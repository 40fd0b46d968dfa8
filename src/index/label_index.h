// The label indexes I_struct and I_text (paper Section 6.2): each maps a
// label to the posting of all nodes carrying that label, in preorder.
// Postings store only preorder numbers — the four encoding numbers
// (pre, bound, pathcost, inscost) live in the tree the index refers to
// and are materialized into list entries at fetch time.
//
// The same class indexes a data tree or a schema tree (the paper's
// schema-driven evaluation runs the identical algorithm over schema
// indexes, Section 7.2).
#ifndef APPROXQL_INDEX_LABEL_INDEX_H_
#define APPROXQL_INDEX_LABEL_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cost/cost_model.h"
#include "doc/data_tree.h"
#include "doc/label_table.h"
#include "util/status.h"

namespace approxql::index {

using Posting = std::vector<doc::NodeId>;

class LabelIndex {
 public:
  LabelIndex() = default;
  LabelIndex(const LabelIndex&) = delete;
  LabelIndex& operator=(const LabelIndex&) = delete;
  LabelIndex(LabelIndex&&) = default;
  LabelIndex& operator=(LabelIndex&&) = default;

  /// Appends `node` to the posting of (type, label). Nodes must be added
  /// in ascending preorder so postings stay sorted.
  void Add(NodeType type, doc::LabelId label, doc::NodeId node);

  /// The posting for (type, label), or nullptr if the label is unknown.
  /// The pointer stays valid for the lifetime of the index.
  const Posting* Fetch(NodeType type, doc::LabelId label) const;

  /// Number of resident postings (both types). Every posting is built
  /// up front, so nothing is decoded per query.
  size_t CachedCount() const {
    return postings_[0].size() + postings_[1].size();
  }

  /// Number of distinct labels of a type.
  size_t LabelCount(NodeType type) const {
    return postings_[static_cast<int>(type)].size();
  }

  /// All postings of a type (for the query generator's label sampling).
  const std::unordered_map<doc::LabelId, Posting>& postings(
      NodeType type) const {
    return postings_[static_cast<int>(type)];
  }

  /// Builds I_struct and I_text over a data tree (or schema tree).
  static LabelIndex BuildFromTree(const doc::DataTree& tree);

 private:
  std::unordered_map<doc::LabelId, Posting> postings_[2];
};

}  // namespace approxql::index

#endif  // APPROXQL_INDEX_LABEL_INDEX_H_
