#include "index/secondary_index.h"

#include "util/logging.h"

namespace approxql::index {

void SecondaryIndex::Add(uint32_t schema_pre, doc::LabelId label,
                         doc::NodeId node) {
  Posting& posting = postings_[Key(schema_pre, label)];
  APPROXQL_DCHECK(posting.empty() || posting.back() < node)
      << "instance postings must be built in ascending preorder";
  posting.push_back(node);
}

const Posting* SecondaryIndex::Fetch(uint32_t schema_pre,
                                     doc::LabelId label) const {
  auto it = postings_.find(Key(schema_pre, label));
  return it == postings_.end() ? nullptr : &it->second;
}

}  // namespace approxql::index
