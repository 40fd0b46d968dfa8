// The path-dependent secondary index I_sec (paper Section 7.3): maps a
// schema node (by its preorder number in the schema) plus a label to the
// posting of all data-node instances of that class carrying the label.
// For struct classes the label is the class's element name (one posting
// per class); for the compacted text class the label is a word, so one
// text class fans out into per-word postings — exactly the paper's
// `pre(u)#label(u)` key.
#ifndef APPROXQL_INDEX_SECONDARY_INDEX_H_
#define APPROXQL_INDEX_SECONDARY_INDEX_H_

#include <cstdint>
#include <unordered_map>

#include "index/label_index.h"

namespace approxql::index {

class SecondaryIndex {
 public:
  SecondaryIndex() = default;
  SecondaryIndex(const SecondaryIndex&) = delete;
  SecondaryIndex& operator=(const SecondaryIndex&) = delete;
  SecondaryIndex(SecondaryIndex&&) = default;
  SecondaryIndex& operator=(SecondaryIndex&&) = default;

  /// Appends a data node to the posting of (schema node, label). Must be
  /// called in ascending data preorder per key.
  void Add(uint32_t schema_pre, doc::LabelId label, doc::NodeId node);

  /// The instance posting, or nullptr.
  const Posting* Fetch(uint32_t schema_pre, doc::LabelId label) const;

  size_t KeyCount() const { return postings_.size(); }

 private:
  static uint64_t Key(uint32_t schema_pre, doc::LabelId label) {
    return (static_cast<uint64_t>(schema_pre) << 32) | label;
  }

  std::unordered_map<uint64_t, Posting> postings_;
};

}  // namespace approxql::index

#endif  // APPROXQL_INDEX_SECONDARY_INDEX_H_
