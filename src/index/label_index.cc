#include "index/label_index.h"

#include "util/logging.h"

namespace approxql::index {

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

}  // namespace approxql::index
