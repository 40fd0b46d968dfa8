#include "storage/bptree.h"

#include <algorithm>
#include <cstring>

#include "util/varint.h"

namespace approxql::storage {

using util::Result;
using util::Status;

namespace {

constexpr uint8_t kLeafType = 1;
constexpr uint8_t kInternalType = 2;
constexpr uint8_t kOverflowType = 3;

// Meta slots used by the tree.
constexpr int kRootSlot = 0;
constexpr int kCountSlot = 1;

constexpr size_t kOverflowHeader = 1 + 4 + 2;  // type, next, len
constexpr size_t kOverflowCapacity = kPageUsableSize - kOverflowHeader;

void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v));
  out->push_back(static_cast<char>(v >> 8));
}

void PutU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v));
  out->push_back(static_cast<char>(v >> 8));
  out->push_back(static_cast<char>(v >> 16));
  out->push_back(static_cast<char>(v >> 24));
}

uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

size_t EntrySize(const std::string& key, bool is_inline, size_t inline_size,
                 uint64_t total_length) {
  size_t n = VarintSize(key.size()) + key.size() + 1;  // key + flag
  if (is_inline) {
    n += VarintSize(inline_size) + inline_size;
  } else {
    n += 4 + VarintSize(total_length);
  }
  return n;
}

}  // namespace

size_t BPlusTree::Node::SerializedSize() const {
  if (is_leaf) {
    size_t n = 1 + 2 + 4;  // type, nkeys, next_leaf
    for (size_t i = 0; i < keys.size(); ++i) {
      n += EntrySize(keys[i], values[i].is_inline,
                     values[i].inline_data.size(), values[i].length);
    }
    return n;
  }
  size_t n = 1 + 2;  // type, nchildren
  n += 4 * children.size();
  for (const auto& key : keys) {
    n += VarintSize(key.size()) + key.size();
  }
  return n;
}

Result<std::unique_ptr<BPlusTree>> BPlusTree::Open(
    std::unique_ptr<Pager> pager) {
  std::unique_ptr<BPlusTree> tree(new BPlusTree(std::move(pager)));
  tree->root_ = tree->pager_->GetMetaSlot(kRootSlot);
  tree->key_count_ = tree->pager_->GetMetaSlot(kCountSlot);
  if (tree->root_ == kInvalidPage) {
    ASSIGN_OR_RETURN(Node * root, tree->NewNode(/*is_leaf=*/true));
    tree->root_ = root->id;
    tree->pager_->SetMetaSlot(kRootSlot, tree->root_);
    tree->pager_->SetMetaSlot(kCountSlot, 0);
  }
  return tree;
}

Result<BPlusTree::Node*> BPlusTree::FetchNode(PageId id) const {
  auto it = nodes_.find(id);
  if (it != nodes_.end()) {
    it->second->last_use = ++node_clock_;
    return it->second.get();
  }
  ASSIGN_OR_RETURN(Page * page, pager_->Fetch(id));
  ASSIGN_OR_RETURN(Node node, DecodeNode(id, *page));
  auto owned = std::make_unique<Node>(std::move(node));
  owned->last_use = ++node_clock_;
  Node* raw = owned.get();
  nodes_[id] = std::move(owned);
  return raw;
}

Result<BPlusTree::Node*> BPlusTree::NewNode(bool is_leaf) {
  ASSIGN_OR_RETURN(PageId id, pager_->Allocate());
  auto node = std::make_unique<Node>();
  node->id = id;
  node->is_leaf = is_leaf;
  node->dirty = true;
  node->last_use = ++node_clock_;
  Node* raw = node.get();
  nodes_[id] = std::move(node);
  return raw;
}

void BPlusTree::SetCacheLimits(size_t max_nodes, size_t max_pages) {
  max_cached_nodes_ = max_nodes;
  pager_->set_cache_limit(max_pages);
}

Status BPlusTree::EvictCaches() const {
  if (max_cached_nodes_ != 0 && nodes_.size() > max_cached_nodes_) {
    std::vector<std::pair<uint64_t, PageId>> by_age;
    by_age.reserve(nodes_.size());
    for (const auto& [id, node] : nodes_) {
      by_age.emplace_back(node->last_use, id);
    }
    std::sort(by_age.begin(), by_age.end());
    size_t to_evict = nodes_.size() - max_cached_nodes_;
    for (size_t i = 0; i < to_evict; ++i) {
      auto it = nodes_.find(by_age[i].second);
      APPROXQL_DCHECK(it != nodes_.end());
      if (it->second->dirty) {
        RETURN_IF_ERROR(SerializeNode(*it->second));
      }
      nodes_.erase(it);
    }
  }
  return pager_->EvictIfNeeded();
}

Result<BPlusTree::Node> BPlusTree::DecodeNode(PageId id,
                                              const Page& page) const {
  Node node;
  node.id = id;
  const uint8_t* d = page.data.data();
  uint8_t type = d[0];
  std::string_view body(reinterpret_cast<const char*>(d), kPageSize);
  if (type == kLeafType) {
    node.is_leaf = true;
    uint16_t nkeys = GetU16(d + 1);
    node.next_leaf = GetU32(d + 3);
    util::VarintReader reader(body.substr(7));
    node.keys.reserve(nkeys);
    node.values.reserve(nkeys);
    for (uint16_t i = 0; i < nkeys; ++i) {
      uint64_t klen = 0;
      RETURN_IF_ERROR(reader.GetVarint64(&klen));
      std::string_view key;
      RETURN_IF_ERROR(reader.GetBytes(klen, &key));
      node.keys.emplace_back(key);
      std::string_view flag;
      RETURN_IF_ERROR(reader.GetBytes(1, &flag));
      ValueRef ref;
      if (flag[0] == 1) {
        ref.is_inline = true;
        uint64_t vlen = 0;
        RETURN_IF_ERROR(reader.GetVarint64(&vlen));
        std::string_view value;
        RETURN_IF_ERROR(reader.GetBytes(vlen, &value));
        ref.inline_data.assign(value);
      } else {
        ref.is_inline = false;
        std::string_view raw;
        RETURN_IF_ERROR(reader.GetBytes(4, &raw));
        ref.overflow = GetU32(reinterpret_cast<const uint8_t*>(raw.data()));
        RETURN_IF_ERROR(reader.GetVarint64(&ref.length));
      }
      node.values.push_back(std::move(ref));
    }
    return node;
  }
  if (type == kInternalType) {
    node.is_leaf = false;
    uint16_t nchildren = GetU16(d + 1);
    if (nchildren < 2) {
      return Status::Corruption("internal node with fewer than two children");
    }
    util::VarintReader reader(body.substr(3));
    for (uint16_t i = 0; i < nchildren; ++i) {
      std::string_view raw;
      RETURN_IF_ERROR(reader.GetBytes(4, &raw));
      node.children.push_back(
          GetU32(reinterpret_cast<const uint8_t*>(raw.data())));
    }
    for (uint16_t i = 0; i + 1 < nchildren; ++i) {
      uint64_t klen = 0;
      RETURN_IF_ERROR(reader.GetVarint64(&klen));
      std::string_view key;
      RETURN_IF_ERROR(reader.GetBytes(klen, &key));
      node.keys.emplace_back(key);
    }
    return node;
  }
  return Status::Corruption("unexpected page type " + std::to_string(type) +
                            " for node page " + std::to_string(id));
}

Status BPlusTree::SerializeNode(const Node& node) const {
  std::string out;
  out.reserve(kPageSize);
  if (node.is_leaf) {
    out.push_back(static_cast<char>(kLeafType));
    PutU16(&out, static_cast<uint16_t>(node.keys.size()));
    PutU32(&out, node.next_leaf);
    for (size_t i = 0; i < node.keys.size(); ++i) {
      util::PutVarint64(&out, node.keys[i].size());
      out.append(node.keys[i]);
      const ValueRef& ref = node.values[i];
      out.push_back(ref.is_inline ? 1 : 2);
      if (ref.is_inline) {
        util::PutVarint64(&out, ref.inline_data.size());
        out.append(ref.inline_data);
      } else {
        PutU32(&out, ref.overflow);
        util::PutVarint64(&out, ref.length);
      }
    }
  } else {
    out.push_back(static_cast<char>(kInternalType));
    PutU16(&out, static_cast<uint16_t>(node.children.size()));
    for (PageId child : node.children) PutU32(&out, child);
    for (const auto& key : node.keys) {
      util::PutVarint64(&out, key.size());
      out.append(key);
    }
  }
  if (out.size() > kPageUsableSize) {
    return Status::Internal("node overflows page after split logic");
  }
  ASSIGN_OR_RETURN(Page * page, pager_->Fetch(node.id));
  std::fill(page->data.begin(), page->data.end(), 0);
  std::memcpy(page->data.data(), out.data(), out.size());
  page->dirty = true;
  return Status::OK();
}

Result<BPlusTree::Node*> BPlusTree::DescendToLeaf(
    std::string_view key, std::vector<std::pair<Node*, size_t>>* path) const {
  ASSIGN_OR_RETURN(Node * node, FetchNode(root_));
  while (!node->is_leaf) {
    // First child whose separator exceeds the key.
    size_t idx = static_cast<size_t>(
        std::upper_bound(node->keys.begin(), node->keys.end(), key) -
        node->keys.begin());
    if (path != nullptr) path->emplace_back(node, idx);
    ASSIGN_OR_RETURN(node, FetchNode(node->children[idx]));
  }
  return node;
}

Result<PageId> BPlusTree::WriteOverflow(std::string_view value) {
  PageId head = kInvalidPage;
  PageId prev = kInvalidPage;
  size_t offset = 0;
  while (offset < value.size()) {
    size_t chunk = std::min(kOverflowCapacity, value.size() - offset);
    ASSIGN_OR_RETURN(PageId id, pager_->Allocate());
    ASSIGN_OR_RETURN(Page * page, pager_->Fetch(id));
    uint8_t* d = page->data.data();
    d[0] = kOverflowType;
    // next filled in when the successor is allocated.
    d[5] = static_cast<uint8_t>(chunk);
    d[6] = static_cast<uint8_t>(chunk >> 8);
    std::memcpy(d + kOverflowHeader, value.data() + offset, chunk);
    page->dirty = true;
    if (prev == kInvalidPage) {
      head = id;
    } else {
      ASSIGN_OR_RETURN(Page * prev_page, pager_->Fetch(prev));
      uint8_t* pd = prev_page->data.data();
      pd[1] = static_cast<uint8_t>(id);
      pd[2] = static_cast<uint8_t>(id >> 8);
      pd[3] = static_cast<uint8_t>(id >> 16);
      pd[4] = static_cast<uint8_t>(id >> 24);
      prev_page->dirty = true;
    }
    prev = id;
    offset += chunk;
  }
  return head;
}

Result<std::string> BPlusTree::ReadOverflow(PageId head,
                                            uint64_t length) const {
  std::string out;
  out.reserve(length);
  PageId cursor = head;
  while (cursor != kInvalidPage) {
    ASSIGN_OR_RETURN(Page * page, pager_->Fetch(cursor));
    const uint8_t* d = page->data.data();
    if (d[0] != kOverflowType) {
      return Status::Corruption("expected overflow page");
    }
    uint16_t len = GetU16(d + 5);
    if (len > kOverflowCapacity) {
      return Status::Corruption("overflow chunk too large");
    }
    out.append(reinterpret_cast<const char*>(d + kOverflowHeader), len);
    cursor = GetU32(d + 1);
    if (out.size() > length) {
      return Status::Corruption("overflow chain longer than recorded length");
    }
  }
  if (out.size() != length) {
    return Status::Corruption("overflow chain shorter than recorded length");
  }
  return out;
}

Status BPlusTree::FreeOverflow(PageId head) {
  PageId cursor = head;
  while (cursor != kInvalidPage) {
    ASSIGN_OR_RETURN(Page * page, pager_->Fetch(cursor));
    const uint8_t* d = page->data.data();
    PageId next = GetU32(d + 1);
    RETURN_IF_ERROR(pager_->Free(cursor));
    cursor = next;
  }
  return Status::OK();
}

Status BPlusTree::FreeValue(const ValueRef& ref) {
  if (!ref.is_inline && ref.overflow != kInvalidPage) {
    return FreeOverflow(ref.overflow);
  }
  return Status::OK();
}

Status BPlusTree::Put(std::string_view key, std::string_view value) {
  if (key.size() > kMaxKeySize) {
    return Status::InvalidArgument("key exceeds " +
                                   std::to_string(kMaxKeySize) + " bytes");
  }
  std::vector<std::pair<Node*, size_t>> path;
  ASSIGN_OR_RETURN(Node * leaf, DescendToLeaf(key, &path));

  ValueRef ref;
  if (value.size() <= kInlineValueLimit) {
    ref.is_inline = true;
    ref.inline_data.assign(value);
  } else {
    ref.is_inline = false;
    ref.length = value.size();
    ASSIGN_OR_RETURN(ref.overflow, WriteOverflow(value));
  }

  auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key);
  size_t idx = static_cast<size_t>(it - leaf->keys.begin());
  if (it != leaf->keys.end() && *it == key) {
    RETURN_IF_ERROR(FreeValue(leaf->values[idx]));
    leaf->values[idx] = std::move(ref);
  } else {
    leaf->keys.insert(it, std::string(key));
    leaf->values.insert(leaf->values.begin() + static_cast<long>(idx),
                        std::move(ref));
    ++key_count_;
    pager_->SetMetaSlot(kCountSlot, static_cast<uint32_t>(key_count_));
  }
  leaf->dirty = true;
  RETURN_IF_ERROR(SplitIfNeeded(leaf, &path));
  return EvictCaches();
}

Status BPlusTree::SplitIfNeeded(Node* node,
                                std::vector<std::pair<Node*, size_t>>* path) {
  while (node->SerializedSize() > kPageUsableSize) {
    // Find the split point: the largest prefix whose serialized size stays
    // at or below half the total. Guarantees both halves fit in a page
    // because single entries are bounded (kMaxKeySize/kInlineValueLimit).
    size_t total = node->SerializedSize();
    size_t header = node->is_leaf ? (1 + 2 + 4) : (1 + 2);
    size_t acc = header;
    size_t split = 0;
    size_t n = node->is_leaf ? node->keys.size() : node->children.size();
    for (size_t i = 0; i < n; ++i) {
      size_t cell;
      if (node->is_leaf) {
        cell = EntrySize(node->keys[i], node->values[i].is_inline,
                         node->values[i].inline_data.size(),
                         node->values[i].length);
      } else {
        cell = 4 + (i + 1 < n ? VarintSize(node->keys[i].size()) +
                                    node->keys[i].size()
                              : 0);
      }
      if (acc + cell > total / 2 && split > 0) break;
      acc += cell;
      split = i + 1;
    }
    // Keep at least one entry (leaf) / two children (internal) per side.
    size_t min_left = node->is_leaf ? 1 : 2;
    size_t max_left = node->is_leaf ? n - 1 : n - 2;
    split = std::max(split, min_left);
    split = std::min(split, max_left);

    ASSIGN_OR_RETURN(Node * right, NewNode(node->is_leaf));
    std::string separator;
    if (node->is_leaf) {
      right->keys.assign(node->keys.begin() + static_cast<long>(split),
                         node->keys.end());
      right->values.assign(node->values.begin() + static_cast<long>(split),
                           node->values.end());
      node->keys.resize(split);
      node->values.resize(split);
      right->next_leaf = node->next_leaf;
      node->next_leaf = right->id;
      separator = right->keys.front();
    } else {
      // children[split..] move right; keys[split-1] is promoted.
      right->children.assign(node->children.begin() + static_cast<long>(split),
                             node->children.end());
      right->keys.assign(node->keys.begin() + static_cast<long>(split),
                         node->keys.end());
      separator = node->keys[split - 1];
      node->children.resize(split);
      node->keys.resize(split - 1);
    }
    node->dirty = true;
    right->dirty = true;

    if (path->empty()) {
      // Root split: make a new root.
      ASSIGN_OR_RETURN(Node * new_root, NewNode(/*is_leaf=*/false));
      new_root->children = {node->id, right->id};
      new_root->keys = {separator};
      root_ = new_root->id;
      pager_->SetMetaSlot(kRootSlot, root_);
      return Status::OK();
    }
    auto [parent, child_idx] = path->back();
    path->pop_back();
    parent->keys.insert(parent->keys.begin() + static_cast<long>(child_idx),
                        separator);
    parent->children.insert(
        parent->children.begin() + static_cast<long>(child_idx) + 1,
        right->id);
    parent->dirty = true;
    node = parent;
  }
  return Status::OK();
}

Result<std::string> BPlusTree::Get(std::string_view key) const {
  ASSIGN_OR_RETURN(Node * leaf, DescendToLeaf(key, nullptr));
  auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key);
  if (it == leaf->keys.end() || *it != key) {
    RETURN_IF_ERROR(EvictCaches());
    return Status::NotFound("key not found: " + std::string(key));
  }
  const ValueRef& ref = leaf->values[static_cast<size_t>(
      it - leaf->keys.begin())];
  std::string value;
  if (ref.is_inline) {
    value = ref.inline_data;
  } else {
    ASSIGN_OR_RETURN(value, ReadOverflow(ref.overflow, ref.length));
  }
  RETURN_IF_ERROR(EvictCaches());
  return value;
}

Result<bool> BPlusTree::Contains(std::string_view key) const {
  ASSIGN_OR_RETURN(Node * leaf, DescendToLeaf(key, nullptr));
  auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key);
  bool found = it != leaf->keys.end() && *it == key;
  RETURN_IF_ERROR(EvictCaches());
  return found;
}

Status BPlusTree::Delete(std::string_view key, bool* existed) {
  ASSIGN_OR_RETURN(Node * leaf, DescendToLeaf(key, nullptr));
  auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key);
  bool found = it != leaf->keys.end() && *it == key;
  if (existed != nullptr) *existed = found;
  if (!found) return EvictCaches();
  size_t idx = static_cast<size_t>(it - leaf->keys.begin());
  RETURN_IF_ERROR(FreeValue(leaf->values[idx]));
  leaf->keys.erase(it);
  leaf->values.erase(leaf->values.begin() + static_cast<long>(idx));
  leaf->dirty = true;
  --key_count_;
  pager_->SetMetaSlot(kCountSlot, static_cast<uint32_t>(key_count_));
  return EvictCaches();
}

Status BPlusTree::Flush() {
  for (auto& [id, node] : nodes_) {
    if (node->dirty) {
      RETURN_IF_ERROR(SerializeNode(*node));
      node->dirty = false;
    }
  }
  return pager_->Flush();
}

Status BPlusTree::Sync() {
  for (auto& [id, node] : nodes_) {
    if (node->dirty) {
      RETURN_IF_ERROR(SerializeNode(*node));
      node->dirty = false;
    }
  }
  return pager_->Sync();
}

int BPlusTree::Height() const {
  int height = 1;
  auto node = FetchNode(root_);
  APPROXQL_CHECK(node.ok()) << node.status();
  Node* cursor = *node;
  while (!cursor->is_leaf) {
    ++height;
    auto child = FetchNode(cursor->children.front());
    APPROXQL_CHECK(child.ok()) << child.status();
    cursor = *child;
  }
  return height;
}

Status BPlusTree::CheckSubtree(PageId id, const std::string* lower,
                               const std::string* upper, int depth,
                               int* leaf_depth,
                               std::vector<PageId>* leaves) const {
  ASSIGN_OR_RETURN(Node * node, FetchNode(id));
  // Keys sorted strictly.
  for (size_t i = 1; i < node->keys.size(); ++i) {
    if (!(node->keys[i - 1] < node->keys[i])) {
      return Status::Internal("keys out of order in node " +
                              std::to_string(id));
    }
  }
  for (const auto& key : node->keys) {
    if (lower != nullptr && key < *lower) {
      return Status::Internal("key below lower bound in node " +
                              std::to_string(id));
    }
    if (upper != nullptr && !(key < *upper)) {
      return Status::Internal("key above upper bound in node " +
                              std::to_string(id));
    }
  }
  if (node->is_leaf) {
    if (*leaf_depth == -1) {
      *leaf_depth = depth;
    } else if (*leaf_depth != depth) {
      return Status::Internal("leaves at different depths");
    }
    leaves->push_back(id);
    return Status::OK();
  }
  if (node->children.size() != node->keys.size() + 1) {
    return Status::Internal("child/key count mismatch");
  }
  for (size_t i = 0; i < node->children.size(); ++i) {
    const std::string* lo = i == 0 ? lower : &node->keys[i - 1];
    const std::string* hi = i == node->keys.size() ? upper : &node->keys[i];
    RETURN_IF_ERROR(
        CheckSubtree(node->children[i], lo, hi, depth + 1, leaf_depth, leaves));
  }
  return Status::OK();
}

Status BPlusTree::CheckInvariants() const {
  int leaf_depth = -1;
  std::vector<PageId> leaves;
  RETURN_IF_ERROR(CheckSubtree(root_, nullptr, nullptr, 0, &leaf_depth,
                               &leaves));
  // Leaf chain order must match in-order traversal, allowing interleaved
  // empty leaves to appear in the chain.
  ASSIGN_OR_RETURN(Node * first, FetchNode(leaves.front()));
  size_t pos = 0;
  size_t counted = 0;
  std::string prev_key;
  bool have_prev = false;
  for (Node* cursor = first; cursor != nullptr;) {
    if (pos >= leaves.size() || leaves[pos] != cursor->id) {
      return Status::Internal("leaf chain diverges from tree order");
    }
    ++pos;
    for (const auto& key : cursor->keys) {
      if (have_prev && !(prev_key < key)) {
        return Status::Internal("leaf chain keys out of order");
      }
      prev_key = key;
      have_prev = true;
      ++counted;
    }
    if (cursor->next_leaf == kInvalidPage) {
      cursor = nullptr;
    } else {
      ASSIGN_OR_RETURN(cursor, FetchNode(cursor->next_leaf));
    }
  }
  if (counted != key_count_) {
    return Status::Internal("key count mismatch: counted " +
                            std::to_string(counted) + " stored " +
                            std::to_string(key_count_));
  }
  return Status::OK();
}

BPlusTree::~BPlusTree() {
  Status s = Flush();
  if (!s.ok()) {
    APPROXQL_LOG(Error) << "B+tree flush on close failed: " << s;
  }
}

// ---------------------------------------------------------------------------
// DiskKvStore

class BPlusTreeIteratorImpl : public KvIterator {
 public:
  explicit BPlusTreeIteratorImpl(const BPlusTree* tree) : tree_(tree) {}

  void Seek(std::string_view key) override;
  void SeekToFirst() override { Seek(""); }
  bool Valid() const override { return valid_; }
  void Next() override;
  std::string_view key() const override { return key_; }
  std::string_view value() const override { return value_; }

 private:
  void LoadCurrent();
  void SkipEmptyLeavesAndLoad();

  const BPlusTree* tree_;
  PageId leaf_ = kInvalidPage;
  size_t index_ = 0;
  bool valid_ = false;
  std::string key_;
  std::string value_;
};

std::unique_ptr<KvIterator> DiskKvStore::NewIterator() const {
  return std::make_unique<BPlusTreeIteratorImpl>(tree_.get());
}

Result<std::unique_ptr<DiskKvStore>> DiskKvStore::Open(
    const std::string& path, bool create_if_missing) {
  ASSIGN_OR_RETURN(std::unique_ptr<Pager> pager,
                   Pager::Open(path, create_if_missing));
  ASSIGN_OR_RETURN(std::unique_ptr<BPlusTree> tree,
                   BPlusTree::Open(std::move(pager)));
  return std::unique_ptr<DiskKvStore>(new DiskKvStore(std::move(tree)));
}

Status DiskKvStore::Put(std::string_view key, std::string_view value) {
  return tree_->Put(key, value);
}

Result<std::string> DiskKvStore::Get(std::string_view key) const {
  return tree_->Get(key);
}

Status DiskKvStore::Delete(std::string_view key, bool* existed) {
  return tree_->Delete(key, existed);
}

Result<bool> DiskKvStore::Contains(std::string_view key) const {
  return tree_->Contains(key);
}

size_t DiskKvStore::KeyCount() const { return tree_->KeyCount(); }

Status DiskKvStore::Flush() { return tree_->Flush(); }

void BPlusTreeIteratorImpl::Seek(std::string_view key) {
  valid_ = false;
  auto leaf = tree_->DescendToLeaf(key, nullptr);
  if (!leaf.ok()) return;
  leaf_ = (*leaf)->id;
  auto it = std::lower_bound((*leaf)->keys.begin(), (*leaf)->keys.end(), key);
  index_ = static_cast<size_t>(it - (*leaf)->keys.begin());
  SkipEmptyLeavesAndLoad();
}

void BPlusTreeIteratorImpl::Next() {
  APPROXQL_DCHECK(valid_);
  ++index_;
  SkipEmptyLeavesAndLoad();
}

void BPlusTreeIteratorImpl::SkipEmptyLeavesAndLoad() {
  for (;;) {
    auto node = tree_->FetchNode(leaf_);
    if (!node.ok()) {
      valid_ = false;
      return;
    }
    if (index_ < (*node)->keys.size()) {
      LoadCurrent();
      return;
    }
    if ((*node)->next_leaf == kInvalidPage) {
      valid_ = false;
      return;
    }
    leaf_ = (*node)->next_leaf;
    index_ = 0;
  }
}

void BPlusTreeIteratorImpl::LoadCurrent() {
  auto node = tree_->FetchNode(leaf_);
  if (!node.ok()) {
    valid_ = false;
    return;
  }
  key_ = (*node)->keys[index_];
  const auto& ref = (*node)->values[index_];
  if (ref.is_inline) {
    value_ = ref.inline_data;
  } else {
    auto value = tree_->ReadOverflow(ref.overflow, ref.length);
    if (!value.ok()) {
      valid_ = false;
      return;
    }
    value_ = std::move(value).value();
  }
  valid_ = true;
}

}  // namespace approxql::storage
