// doc::DataTree::Deserialize over hostile bytes — the tree section of a
// saved database or a live-ingest snapshot. Contract: clean Result or a tree
// whose structure invariants hold (parents precede children, bounds
// nest) and whose re-serialization reaches a fixed point.

#include <string>
#include <string_view>

#include "cost/cost_model.h"
#include "doc/data_tree.h"
#include "fuzz/fuzz_util.h"
#include "fuzz/targets.h"

namespace approxql::fuzz {

int FuzzDataTree(const uint8_t* data, size_t size) {
  std::string_view blob(reinterpret_cast<const char*>(data), size);
  const cost::CostModel model;
  auto result = doc::DataTree::Deserialize(blob, model);
  if (!result.ok()) {
    APPROXQL_FUZZ_ASSERT(!result.status().message().empty());
    return 0;
  }
  const doc::DataTree& tree = *result;
  for (doc::NodeId id = 0; id < tree.size(); ++id) {
    const doc::DataNode& n = tree.node(id);
    if (id == 0) {
      APPROXQL_FUZZ_ASSERT(n.parent == doc::kInvalidNode);
    } else {
      APPROXQL_FUZZ_ASSERT(n.parent < id);
      // Preorder bounds nest: a child's subtree lies inside its parent's.
      APPROXQL_FUZZ_ASSERT(n.bound <= tree.node(n.parent).bound);
    }
    APPROXQL_FUZZ_ASSERT(n.bound >= id);
    APPROXQL_FUZZ_ASSERT(n.bound < tree.size());
  }
  std::string bytes;
  tree.Serialize(&bytes);
  auto again = doc::DataTree::Deserialize(bytes, model);
  APPROXQL_FUZZ_ASSERT(again.ok());
  std::string bytes2;
  again->Serialize(&bytes2);
  APPROXQL_FUZZ_ASSERT(bytes2 == bytes);
  return 0;
}

}  // namespace approxql::fuzz

APPROXQL_FUZZ_MAIN(approxql::fuzz::FuzzDataTree)
