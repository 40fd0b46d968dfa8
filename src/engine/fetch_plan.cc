#include "engine/fetch_plan.h"

#include <unordered_set>

#include "engine/list_ops.h"

namespace approxql::engine {

using query::ExpandedNode;
using query::RepType;

std::string FetchPlan::Key(NodeType type, std::string_view label,
                           bool as_leaf) {
  std::string key;
  key.reserve(label.size() + 2);
  key.push_back(type == NodeType::kText ? 't' : 's');
  key.push_back(as_leaf ? 'l' : 'n');
  key.append(label);
  return key;
}

void FetchPlan::Add(NodeType type, std::string_view label, bool as_leaf) {
  auto [it, inserted] =
      index_.emplace(Key(type, label, as_leaf), slots_.size());
  if (!inserted) return;
  Slot slot;
  slot.type = type;
  slot.label = std::string(label);
  slot.as_leaf = as_leaf;
  slots_.push_back(std::move(slot));
}

FetchPlan::FetchPlan(const query::ExpandedQuery& query) {
  // Iterative DAG walk; deletion bridges share subtrees, so vertices are
  // visited once by id.
  std::unordered_set<int> visited;
  std::vector<const ExpandedNode*> stack;
  if (query.root() != nullptr) stack.push_back(query.root());
  while (!stack.empty()) {
    const ExpandedNode* node = stack.back();
    stack.pop_back();
    if (node == nullptr || !visited.insert(node->id).second) continue;
    switch (node->rep) {
      case RepType::kLeaf: {
        Add(node->type, node->label, /*as_leaf=*/true);
        for (const auto& renaming : node->renamings) {
          Add(node->type, renaming.to, /*as_leaf=*/true);
        }
        break;
      }
      case RepType::kNode: {
        // Mirrors DirectEvaluator::ComputeInnerList: a bare root (no
        // content) counts its own matches as leaf matches.
        bool bare_root = node->left == nullptr;
        Add(node->type, node->label, bare_root);
        for (const auto& renaming : node->renamings) {
          Add(node->type, renaming.to, bare_root);
        }
        stack.push_back(node->left);
        break;
      }
      case RepType::kAnd:
      case RepType::kOr:
        stack.push_back(node->left);
        stack.push_back(node->right);
        break;
    }
  }
}

void FetchPlan::Materialize(size_t i, const EncodedTree& tree,
                            const index::PostingSource& index,
                            const doc::LabelTable& labels) {
  Slot& slot = slots_[i];
  doc::LabelId id = labels.Find(slot.label);
  const index::Posting* posting =
      id == doc::kInvalidLabel ? nullptr : index.Fetch(slot.type, id);
  slot.list = Fetch(tree, posting, slot.as_leaf);
  slot.ready = true;
}

const EntryList* FetchPlan::Find(NodeType type, std::string_view label,
                                 bool as_leaf) const {
  auto it = index_.find(Key(type, label, as_leaf));
  if (it == index_.end()) return nullptr;
  const Slot& slot = slots_[it->second];
  return slot.ready ? &slot.list : nullptr;
}

}  // namespace approxql::engine
