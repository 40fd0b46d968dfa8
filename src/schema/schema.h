// The schema of a data tree (paper Section 7.1): a compacted
// DataGuide-style structural summary containing every label-type path of
// the data tree exactly once. Every data node belongs to exactly one
// node class (= schema node); classes preserve labels, types and
// parent-child relationships, which is what makes it sound to run the
// embedding algorithm over the schema instead of the data.
//
// Compaction: all text children of a class collapse into a single text
// class labeled "<text>"; the word labels live only in the schema's text
// index and in the secondary index keys (Section 7.1: "sequences of text
// nodes are merged into a single node and the labels are not stored in
// the tree but only in the indexes").
#ifndef APPROXQL_SCHEMA_SCHEMA_H_
#define APPROXQL_SCHEMA_SCHEMA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "doc/data_tree.h"
#include "index/label_index.h"
#include "index/secondary_index.h"

namespace approxql::schema {

/// Label given to compacted text classes; cannot collide with element
/// names or words ('<' is not a word character or name start in our
/// pipeline's output).
inline constexpr std::string_view kTextClassLabel = "<text>";

class Schema {
 public:
  Schema(const Schema&) = delete;
  Schema& operator=(const Schema&) = delete;
  Schema(Schema&&) = default;
  Schema& operator=(Schema&&) = default;

  /// Builds the schema, its label indexes and the secondary index in two
  /// O(|tree|) passes. Interns kTextClassLabel into the tree's label
  /// table (the schema shares the tree's label-id space).
  static Schema Build(doc::DataTree* tree, const cost::CostModel& model);

  /// Schema nodes in schema preorder; same encoding as data nodes
  /// (pre implicit, bound, pathcost, inscost), so the evaluation engine
  /// can run on either tree.
  const std::vector<doc::DataNode>& nodes() const { return nodes_; }
  size_t size() const { return nodes_.size(); }

  bool IsAncestor(uint32_t u, uint32_t v) const {
    return u < v && nodes_[u].bound >= v;
  }
  cost::Cost Distance(uint32_t u, uint32_t v) const {
    APPROXQL_DCHECK(IsAncestor(u, v));
    return nodes_[v].pathcost - nodes_[u].pathcost - nodes_[u].inscost;
  }

  /// Class (schema preorder number) of a data node.
  uint32_t ClassOf(doc::NodeId data_node) const {
    APPROXQL_DCHECK(data_node < class_of_.size());
    return class_of_[data_node];
  }

  /// Schema-level I_struct / I_text (text postings point at text classes).
  const index::LabelIndex& label_index() const { return label_index_; }

  /// Path-dependent instance postings I_sec.
  const index::SecondaryIndex& secondary_index() const { return secondary_; }

  doc::LabelId text_class_label() const { return text_class_label_; }

  /// Human-readable label-type path of a schema node, for debugging and
  /// tests, e.g. "<root>/catalog/cd/title/<text>".
  std::string PathOf(uint32_t schema_node, const doc::LabelTable& labels) const;

 private:
  Schema() = default;

  std::vector<doc::DataNode> nodes_;
  std::vector<uint32_t> class_of_;
  index::LabelIndex label_index_;
  index::SecondaryIndex secondary_;
  doc::LabelId text_class_label_ = doc::kInvalidLabel;
};

}  // namespace approxql::schema

#endif  // APPROXQL_SCHEMA_SCHEMA_H_
