// Algorithm `primary` (paper Section 6.5, Figure 4): direct evaluation
// of the expanded query representation against an encoded tree using the
// list algebra. Includes the "full version" refinements:
//   - the at-least-one-leaf rule via the two-component entry costs;
//   - dynamic programming: the merged descendant list of every
//     node/leaf DAG vertex is independent of the ancestor list passed
//     in, so it is computed once and memoized (renaming loops in
//     ancestors then only redo the final join/outerjoin).
// Each label's postings are fetched when the operator that consumes
// them runs (FetchLabel), from the index the evaluator was given (the
// database's own unless ExecOptions::posting_source names another).
// A conjunct the and short-circuit skips therefore never fetches.
//
// The same evaluator runs over a data tree (direct evaluation) — and, in
// the schema-driven strategy, its adapted sibling in topk_eval.h runs
// over the schema.
#ifndef APPROXQL_ENGINE_DIRECT_EVAL_H_
#define APPROXQL_ENGINE_DIRECT_EVAL_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "engine/entry_list.h"
#include "engine/list_ops.h"
#include "index/label_index.h"
#include "query/expanded.h"

namespace approxql::engine {

/// Operation counters for benchmarks and ablations.
struct EvalStats {
  uint64_t fetches = 0;
  uint64_t entries_fetched = 0;
  uint64_t list_ops = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t and_short_circuits = 0;  // right conjuncts skipped
};

class DirectEvaluator {
 public:
  struct Options {
    /// Disable to measure the ablation A1 (no DP cache).
    bool use_cache = true;
    /// Baseline A4: ignore the index and materialize fetch lists by
    /// scanning every tree node, like the matching algorithms the paper
    /// criticizes in Section 2 ("touches every data node").
    bool full_scan = false;
  };

  /// `tree`, `index` and `labels` must outlive the evaluator. `labels`
  /// resolves query label strings to the tree's label ids.
  DirectEvaluator(EncodedTree tree, const index::LabelIndex& index,
                  const doc::LabelTable& labels, Options options)
      : tree_(tree), index_(index), labels_(labels), options_(options) {}
  DirectEvaluator(EncodedTree tree, const index::LabelIndex& index,
                  const doc::LabelTable& labels)
      : DirectEvaluator(tree, index, labels, Options()) {}

  /// Solves the best-n-pairs problem (Definition 12): all approximate
  /// results are computed, sorted by cost, and pruned after n. Pass
  /// n = SIZE_MAX for every result.
  std::vector<RootCost> BestN(const query::ExpandedQuery& query, size_t n);

  /// The full root list (all root-cost pairs, unsorted); exposed for the
  /// schema evaluator's tests and the oracle comparison.
  EntryList EvaluateRootList(const query::ExpandedQuery& query);

  const EvalStats& stats() const { return stats_; }

 private:
  EntryList FetchLabel(NodeType type, std::string_view label, bool as_leaf);
  /// The merged, ancestor-independent descendant list of a node/leaf
  /// vertex (memoized).
  const EntryList& InnerList(const query::ExpandedNode* node);
  EntryList ComputeInnerList(const query::ExpandedNode* node);
  EntryList Eval(const query::ExpandedNode* node, cost::Cost edge_cost,
                 const EntryList& ancestors);

  EncodedTree tree_;
  const index::LabelIndex& index_;
  const doc::LabelTable& labels_;
  Options options_;
  EvalStats stats_;
  std::unordered_map<int, EntryList> cache_;
  EntryList scratch_;  // holds the latest inner list when the cache is off
};

}  // namespace approxql::engine

#endif  // APPROXQL_ENGINE_DIRECT_EVAL_H_
