#include "engine/direct_eval.h"

namespace approxql::engine {

using query::ExpandedNode;
using query::ExpandedQuery;
using query::RepType;

EntryList DirectEvaluator::FetchLabel(NodeType type, std::string_view label,
                                      bool as_leaf) {
  ++stats_.fetches;
  doc::LabelId id = labels_.Find(label);
  EntryList list;
  if (options_.full_scan) {
    // Baseline: no index; filter every node (skipping the super-root).
    for (doc::NodeId node_id = 1; node_id < tree_.size; ++node_id) {
      const doc::DataNode& n = tree_.node(node_id);
      if (n.type != type || n.label != id) continue;
      Entry e;
      e.pre = node_id;
      e.bound = n.bound;
      e.pathcost = n.pathcost;
      e.inscost = n.inscost;
      e.cost_any = 0;
      e.cost_leaf = as_leaf ? 0 : cost::kInfinite;
      list.push_back(e);
    }
  } else {
    const index::Posting* posting =
        id == doc::kInvalidLabel ? nullptr : index_.Fetch(type, id);
    list = Fetch(tree_, posting, as_leaf);
  }
  stats_.entries_fetched += list.size();
  return list;
}

EntryList DirectEvaluator::ComputeInnerList(const ExpandedNode* node) {
  if (node->rep == RepType::kLeaf) {
    EntryList list = FetchLabel(node->type, node->label, /*as_leaf=*/true);
    for (const auto& renaming : node->renamings) {
      EntryList renamed =
          FetchLabel(node->type, renaming.to, /*as_leaf=*/true);
      ++stats_.list_ops;
      list = Merge(list, renamed, renaming.cost);
    }
    return list;
  }
  APPROXQL_DCHECK(node->rep == RepType::kNode);
  // A root without content has no leaves below it; its own matches are
  // the information the query asks for, so they count as leaf matches.
  bool bare_root = node->left == nullptr;
  EntryList list = FetchLabel(node->type, node->label, bare_root);
  if (node->left != nullptr) {
    list = Eval(node->left, 0, list);
  }
  for (const auto& renaming : node->renamings) {
    EntryList renamed = FetchLabel(node->type, renaming.to, bare_root);
    if (node->left != nullptr) {
      renamed = Eval(node->left, 0, renamed);
    }
    ++stats_.list_ops;
    list = Merge(list, renamed, renaming.cost);
  }
  return list;
}

const EntryList& DirectEvaluator::InnerList(const ExpandedNode* node) {
  if (!options_.use_cache) {
    // Compute fully before storing: ComputeInnerList recurses through
    // child vertices whose results also pass through scratch_, so the
    // assignment must happen after the recursion has finished (it does —
    // no caller holds a scratch_ reference across a nested InnerList).
    EntryList list = ComputeInnerList(node);
    scratch_ = std::move(list);
    return scratch_;
  }
  auto it = cache_.find(node->id);
  if (it != cache_.end()) {
    ++stats_.cache_hits;
    return it->second;
  }
  ++stats_.cache_misses;
  EntryList list = ComputeInnerList(node);
  return cache_.emplace(node->id, std::move(list)).first->second;
}

EntryList DirectEvaluator::Eval(const ExpandedNode* node, cost::Cost edge_cost,
                                const EntryList& ancestors) {
  switch (node->rep) {
    case RepType::kLeaf: {
      const EntryList& inner = InnerList(node);
      ++stats_.list_ops;
      return OuterJoin(ancestors, inner, edge_cost, node->delcost);
    }
    case RepType::kNode: {
      const EntryList& inner = InnerList(node);
      if (node->is_root) return inner;
      ++stats_.list_ops;
      return Join(ancestors, inner, edge_cost);
    }
    case RepType::kAnd: {
      EntryList left = Eval(node->left, 0, ancestors);
      if (left.empty()) {
        // Short-circuit: intersect with an empty list is empty, so the
        // right conjunct's fetches and joins can be skipped entirely.
        ++stats_.and_short_circuits;
        return left;
      }
      EntryList right = Eval(node->right, 0, ancestors);
      ++stats_.list_ops;
      return Intersect(left, right, edge_cost);
    }
    case RepType::kOr: {
      EntryList left = Eval(node->left, 0, ancestors);
      EntryList right = Eval(node->right, node->edgecost, ancestors);
      ++stats_.list_ops;
      return Union(left, right, edge_cost);
    }
  }
  APPROXQL_CHECK(false) << "unreachable representation type";
  return {};
}

EntryList DirectEvaluator::EvaluateRootList(const ExpandedQuery& query) {
  cache_.clear();
  EntryList empty;
  return Eval(query.root(), 0, empty);
}

std::vector<RootCost> DirectEvaluator::BestN(const ExpandedQuery& query,
                                             size_t n) {
  return SortBestN(EvaluateRootList(query), n);
}

}  // namespace approxql::engine
