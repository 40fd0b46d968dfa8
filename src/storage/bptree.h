// Single-file B+tree keyed by raw bytes. Values of any size are
// supported: small values are stored inline in leaf pages, large values
// spill to overflow-page chains (index postings routinely exceed a
// page). Leaves are chained for ordered iteration.
//
// Structure invariants:
//   - internal node with c children carries c-1 separator keys;
//     separator[i] is the smallest key in the subtree of child i+1;
//   - serialized node size <= kPageSize (enforced by splitting);
//   - deletes do not rebalance (leaves may become empty; iteration skips
//     them) — the workload is build-once/read-mostly, documented in
//     DESIGN.md.
#ifndef APPROXQL_STORAGE_BPTREE_H_
#define APPROXQL_STORAGE_BPTREE_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/kv_store.h"
#include "storage/pager.h"

namespace approxql::storage {

/// Longest accepted key. Bounded so that any single entry fits well
/// within a page half, which makes node splits always succeed.
inline constexpr size_t kMaxKeySize = 512;

/// Values up to this size are stored inline in the leaf.
inline constexpr size_t kInlineValueLimit = 512;

class BPlusTree {
 public:
  /// Takes ownership of the pager. A fresh store gets an empty root leaf;
  /// an existing store resumes from the meta page.
  static util::Result<std::unique_ptr<BPlusTree>> Open(
      std::unique_ptr<Pager> pager);

  util::Status Put(std::string_view key, std::string_view value);
  util::Result<std::string> Get(std::string_view key) const;
  util::Status Delete(std::string_view key, bool* existed);
  util::Result<bool> Contains(std::string_view key) const;
  size_t KeyCount() const { return key_count_; }
  util::Status Flush();

  /// Flush plus fsync — durable on media, not just in the OS cache.
  util::Status Sync();

  /// Bounds the decoded-node and raw-page caches (0 = unbounded, the
  /// default). Enforced between public operations: clean entries beyond
  /// the limit are dropped LRU-first, dirty nodes are serialized first.
  /// Lets the store work on data sets larger than memory.
  void SetCacheLimits(size_t max_nodes, size_t max_pages);
  size_t CachedNodes() const { return nodes_.size(); }

  /// Tree height (1 = root is a leaf); for tests and stats.
  int Height() const;

  /// Verifies all structure invariants (key order within and across
  /// nodes, separator correctness, leaf chain consistency). For tests.
  util::Status CheckInvariants() const;

  ~BPlusTree();
  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

 private:
  friend class BPlusTreeIteratorImpl;

  struct ValueRef {
    bool is_inline = true;
    std::string inline_data;     // when is_inline
    PageId overflow = kInvalidPage;  // head of the chain otherwise
    uint64_t length = 0;             // total overflow value length
  };

  struct Node {
    PageId id = kInvalidPage;
    bool is_leaf = true;
    bool dirty = false;
    uint64_t last_use = 0;  // LRU stamp
    std::vector<std::string> keys;
    // Leaf payloads, parallel to keys.
    std::vector<ValueRef> values;
    PageId next_leaf = kInvalidPage;
    // Internal children; children.size() == keys.size() + 1.
    std::vector<PageId> children;

    size_t SerializedSize() const;
  };

  explicit BPlusTree(std::unique_ptr<Pager> pager)
      : pager_(std::move(pager)) {}

  util::Result<Node*> FetchNode(PageId id) const;
  util::Result<Node*> NewNode(bool is_leaf);
  util::Status SerializeNode(const Node& node) const;
  // lint:allow-unfuzzed pages reach DecodeNode only after the Pager's
  // per-page CRC check, so raw-disk corruption cannot hit this parser.
  util::Result<Node> DecodeNode(PageId id, const Page& page) const;

  /// Descends to the leaf responsible for `key`; fills `path` with the
  /// internal nodes visited (top-down) and the child index taken in each.
  util::Result<Node*> DescendToLeaf(std::string_view key,
                                    std::vector<std::pair<Node*, size_t>>*
                                        path) const;

  util::Status SplitIfNeeded(Node* node,
                             std::vector<std::pair<Node*, size_t>>* path);

  util::Result<std::string> ReadOverflow(PageId head, uint64_t length) const;
  util::Result<PageId> WriteOverflow(std::string_view value);
  util::Status FreeOverflow(PageId head);
  util::Status FreeValue(const ValueRef& ref);

  util::Status CheckSubtree(PageId id, const std::string* lower,
                            const std::string* upper, int depth,
                            int* leaf_depth,
                            std::vector<PageId>* leaves) const;

  /// Applies the cache bounds; called at the end of public operations
  /// (no Node*/Page* is held across them).
  util::Status EvictCaches() const;

  std::unique_ptr<Pager> pager_;
  PageId root_ = kInvalidPage;
  size_t key_count_ = 0;
  size_t max_cached_nodes_ = 0;
  mutable uint64_t node_clock_ = 0;
  // Decoded-node cache: fetched nodes live here until flushed/evicted.
  mutable std::unordered_map<PageId, std::unique_ptr<Node>> nodes_;
};

/// DiskKvStore: the KvStore facade over BPlusTree (what the indexes use).
class DiskKvStore : public KvStore {
 public:
  static util::Result<std::unique_ptr<DiskKvStore>> Open(
      const std::string& path, bool create_if_missing);

  util::Status Put(std::string_view key, std::string_view value) override;
  util::Result<std::string> Get(std::string_view key) const override;
  util::Status Delete(std::string_view key, bool* existed) override;
  util::Result<bool> Contains(std::string_view key) const override;
  std::unique_ptr<KvIterator> NewIterator() const override;
  size_t KeyCount() const override;
  util::Status Flush() override;
  util::Status Sync() { return tree_->Sync(); }

  BPlusTree* tree() { return tree_.get(); }

 private:
  explicit DiskKvStore(std::unique_ptr<BPlusTree> tree)
      : tree_(std::move(tree)) {}

  std::unique_ptr<BPlusTree> tree_;
};

}  // namespace approxql::storage

#endif  // APPROXQL_STORAGE_BPTREE_H_
