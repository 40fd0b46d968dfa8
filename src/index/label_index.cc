#include "index/label_index.h"

#include <algorithm>

#include "util/varint.h"

namespace approxql::index {

using util::Result;
using util::Status;

void LabelIndex::Add(NodeType type, doc::LabelId label, doc::NodeId node) {
  Posting& posting = postings_[static_cast<int>(type)][label];
  APPROXQL_DCHECK(posting.empty() || posting.back() < node)
      << "postings must be built in ascending preorder";
  posting.push_back(node);
}

const Posting* LabelIndex::Fetch(NodeType type, doc::LabelId label) const {
  const auto& map = postings_[static_cast<int>(type)];
  auto it = map.find(label);
  return it == map.end() ? nullptr : &it->second;
}

LabelIndex LabelIndex::BuildFromTree(const doc::DataTree& tree) {
  LabelIndex index;
  // Skip the super-root (node 0): it is synthetic and never queried.
  for (doc::NodeId id = 1; id < tree.size(); ++id) {
    const doc::DataNode& n = tree.node(id);
    index.Add(n.type, n.label, id);
  }
  return index;
}

void SerializePosting(const Posting& posting, std::string* out) {
  util::PutVarint64(out, posting.size());
  doc::NodeId prev = 0;
  for (doc::NodeId id : posting) {
    util::PutVarint32(out, id - prev);
    prev = id;
  }
}

Result<Posting> DeserializePosting(std::string_view data) {
  util::VarintReader reader(data);
  uint64_t count = 0;
  RETURN_IF_ERROR(reader.GetVarint64(&count));
  // Each delta is at least one byte; a count past the remaining bytes is
  // corrupt and must not size the allocation.
  if (count > reader.remaining()) {
    return Status::Corruption("posting count overruns data");
  }
  Posting posting;
  posting.reserve(count);
  doc::NodeId prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t delta = 0;
    RETURN_IF_ERROR(reader.GetVarint32(&delta));
    if (i > 0 && delta == 0) {
      return Status::Corruption("posting deltas must be positive");
    }
    // Hostile deltas must not wrap the 32-bit id space — a wrapped
    // posting is no longer sorted and would corrupt downstream merges.
    if (delta > UINT32_MAX - prev) {
      return Status::Corruption("posting id overflows 32-bit id space");
    }
    prev += delta;
    posting.push_back(prev);
  }
  if (!reader.empty()) {
    return Status::Corruption("trailing bytes after posting");
  }
  return posting;
}

Status LabelIndex::PersistTo(storage::KvStore* store,
                             std::string_view prefix) const {
  // Deterministic Put order (sorted by type, label): saving identical
  // logical content produces an identical store, whereas unordered_map
  // iteration order is anything but stable across processes.
  for (NodeType type : {NodeType::kStruct, NodeType::kText}) {
    std::vector<doc::LabelId> labels;
    labels.reserve(postings(type).size());
    for (const auto& [label, posting] : postings(type)) {
      labels.push_back(label);
    }
    std::sort(labels.begin(), labels.end());
    for (doc::LabelId label : labels) {
      std::string key(prefix);
      key.push_back(type == NodeType::kStruct ? 's' : 't');
      util::PutVarint32(&key, label);
      std::string value;
      SerializePosting(*Fetch(type, label), &value);
      RETURN_IF_ERROR(store->Put(key, value));
    }
  }
  return Status::OK();
}

Result<LabelIndex> LabelIndex::LoadFrom(const storage::KvStore& store,
                                        std::string_view prefix) {
  LabelIndex index;
  auto it = store.NewIterator();
  for (it->Seek(prefix); it->Valid(); it->Next()) {
    std::string_view key = it->key();
    if (!key.starts_with(prefix)) break;
    key.remove_prefix(prefix.size());
    if (key.empty()) return Status::Corruption("truncated index key");
    NodeType type = key[0] == 's' ? NodeType::kStruct : NodeType::kText;
    if (key[0] != 's' && key[0] != 't') {
      return Status::Corruption("bad index key type byte");
    }
    util::VarintReader key_reader(key.substr(1));
    uint32_t label = 0;
    RETURN_IF_ERROR(key_reader.GetVarint32(&label));
    if (!key_reader.empty()) {
      return Status::Corruption("trailing bytes in index key");
    }
    ASSIGN_OR_RETURN(Posting posting, DeserializePosting(it->value()));
    index.postings_[static_cast<int>(type)][label] = std::move(posting);
  }
  return index;
}

}  // namespace approxql::index
