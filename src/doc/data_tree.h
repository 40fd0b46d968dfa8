// The data tree (paper Section 4) and its evaluation encoding (Section
// 6.2). A collection of XML documents is normalized into one labeled
// tree of struct and text nodes under a synthetic super-root; each node
// carries the four numbers (pre, bound, inscost, pathcost) that the list
// algebra uses to test ancestorship and to price node insertions.
#ifndef APPROXQL_DOC_DATA_TREE_H_
#define APPROXQL_DOC_DATA_TREE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cost/cost_model.h"
#include "doc/label_table.h"
#include "util/status.h"
#include "xml/xml_dom.h"

namespace approxql::doc {

/// Node ids are preorder numbers; the super-root is node 0.
using NodeId = uint32_t;
inline constexpr NodeId kInvalidNode = UINT32_MAX;

/// Label of the synthetic super-root; '<' keeps it out of the XML name
/// space so it cannot collide with element names (paper: "a new root
/// node with a unique label").
inline constexpr std::string_view kSuperRootLabel = "<root>";

struct DataNode {
  NodeId parent = kInvalidNode;
  NodeId bound = 0;  // largest preorder number in this node's subtree
  LabelId label = kInvalidLabel;
  NodeType type = NodeType::kStruct;
  cost::Cost inscost = 0;   // cost of inserting this node into a query
  cost::Cost pathcost = 0;  // sum of the insert costs of all ancestors
};

class DataTree {
 public:
  DataTree() = default;
  DataTree(const DataTree&) = delete;
  DataTree& operator=(const DataTree&) = delete;
  DataTree(DataTree&&) = default;
  DataTree& operator=(DataTree&&) = default;

  NodeId root() const { return 0; }
  size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }

  const DataNode& node(NodeId id) const {
    APPROXQL_DCHECK(id < nodes_.size());
    return nodes_[id];
  }
  std::string_view label(NodeId id) const {
    return labels_.Get(node(id).label);
  }

  const LabelTable& labels() const { return labels_; }
  LabelTable& mutable_labels() { return labels_; }

  /// True iff u is a proper ancestor of v (paper invariant:
  /// pre(u) < pre(v) && bound(u) >= pre(v)).
  bool IsAncestor(NodeId u, NodeId v) const {
    return u < v && node(u).bound >= v;
  }

  /// Sum of the insert costs of the nodes strictly between u and v.
  /// Precondition: IsAncestor(u, v).
  cost::Cost Distance(NodeId u, NodeId v) const {
    APPROXQL_DCHECK(IsAncestor(u, v));
    return node(v).pathcost - node(u).pathcost - node(u).inscost;
  }

  /// First child of u, or kInvalidNode. With preorder ids the first child
  /// is u+1 when the subtree has more nodes than u itself.
  NodeId FirstChild(NodeId u) const {
    return node(u).bound > u ? u + 1 : kInvalidNode;
  }

  /// Next sibling of u, or kInvalidNode.
  NodeId NextSibling(NodeId u) const {
    const DataNode& n = node(u);
    if (n.parent == kInvalidNode) return kInvalidNode;
    NodeId next = n.bound + 1;
    return next <= node(n.parent).bound ? next : kInvalidNode;
  }

  /// Recomputes inscost/pathcost for every node from `model`. Must be
  /// called (by the builder or after changing the model) before Distance.
  void ApplyCosts(const cost::CostModel& model);

  /// Reconstructs the subtree rooted at `id` as XML. Attribute/element
  /// distinctions and original word separators were normalized away
  /// (Section 4); words are re-joined with single spaces. Precondition:
  /// node `id` has type struct.
  xml::XmlElement ToXml(NodeId id) const;

  /// Compact binary serialization (labels + structure; the encoding is
  /// recomputed on load from the cost model supplied to Deserialize).
  void Serialize(std::string* out) const;
  static util::Result<DataTree> Deserialize(std::string_view data,
                                            const cost::CostModel& model);

 private:
  friend class DataTreeBuilder;

  std::vector<DataNode> nodes_;
  LabelTable labels_;
};

/// Incremental construction of a data tree from SAX-like events or from
/// parsed XML documents. Creates the super-root automatically; every
/// added document becomes one child subtree of it. Normalization per
/// Section 4: element text is split into lowercase words (one text node
/// per word); an attribute becomes a struct node labeled with the
/// attribute name whose children are the words of the value.
class DataTreeBuilder {
 public:
  DataTreeBuilder();

  void StartElement(std::string_view name);
  void EndElement();
  /// Splits `text` into words and adds one text node per word.
  void AddText(std::string_view text);
  /// Adds a single pre-tokenized word (lowercased by the caller).
  void AddWord(std::string_view word);
  void AddAttribute(std::string_view name, std::string_view value);

  /// Parses `xml` and adds its root element as a document (streaming; no
  /// intermediate DOM). On a parse error the builder may hold a partial
  /// document and should be discarded.
  util::Status AddDocumentXml(std::string_view xml);
  void AddDocument(const xml::XmlElement& element);

  /// Replays the subtree of `tree` rooted at `subtree_root` as SAX
  /// events. Labels were normalized when `tree` was first built
  /// (attributes are struct nodes, text is one lowercase word per node),
  /// so the subtree is reproduced exactly.
  void AppendSubtree(const DataTree& tree, NodeId subtree_root);

  size_t node_count() const { return tree_.nodes_.size(); }

  /// Finalizes bounds and the encoding. The builder is consumed.
  /// Precondition: every StartElement has a matching EndElement.
  util::Result<DataTree> Build(const cost::CostModel& model) &&;

  /// Like Build, but the builder stays usable — the backbone of live
  /// ingest, where every accepted document produces a fresh immutable
  /// tree while the builder keeps accumulating. Precondition: balanced
  /// (between documents, not inside one).
  util::Result<DataTree> Snapshot(const cost::CostModel& model) const;

  /// Reconstructs a builder holding exactly the documents of `tree`, as
  /// if they had just been added — recovery resumes ingest from a
  /// checkpointed tree. Label ids and node ids are preserved.
  static DataTreeBuilder FromTree(const DataTree& tree);

 private:
  DataTree tree_;
  std::vector<NodeId> stack_;
};

}  // namespace approxql::doc

#endif  // APPROXQL_DOC_DATA_TREE_H_
