// Schema-driven evaluation (paper Section 7): the adapted algorithm
// `primary` runs over the schema and tracks, per query subtree and per
// schema subtree, the best k embedding skeletons ("second-level
// queries", Section 7.2); algorithm `secondary` executes each skeleton
// against the data tree through the path-dependent secondary index
// (Section 7.3); the incremental driver grows k until the best n results
// are found (Section 7.4, Figure 6).
//
// List entries here extend the direct-evaluation entries with the
// paper's `label` and `pointers` components:
//   e = (pre, bound, pathcost, inscost, embcost, label, pointers)
// A list may contain several entries per schema node — a *segment*,
// sorted by ascending cost. Because an entry that matches no query leaf
// can still become part of a valid skeleton through `intersect`,
// segments keep up to k best leaf-valid entries plus up to k best
// invalid ones; only leaf-valid skeletons are emitted as second-level
// queries (the Section 6.5 rule again).
#ifndef APPROXQL_ENGINE_TOPK_EVAL_H_
#define APPROXQL_ENGINE_TOPK_EVAL_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "engine/entry_list.h"
#include "index/label_index.h"
#include "index/secondary_index.h"
#include "query/expanded.h"
#include "schema/schema.h"

namespace approxql::engine {

/// One entry of the top-k algorithm; immutable once created, shared via
/// shared_ptr so pointer sets (skeleton edges) stay valid across list
/// copies. An entry whose `pointers` are followed transitively spans one
/// embedding skeleton = one second-level query.
struct SkeletonEntry {
  uint32_t pre = 0;       // schema node (class) preorder number
  uint32_t bound = 0;
  cost::Cost pathcost = 0;
  cost::Cost inscost = 0;
  cost::Cost cost = 0;    // embedding cost of the skeleton
  bool leaf_matched = false;
  doc::LabelId label = doc::kInvalidLabel;  // possibly renamed query label
  uint64_t seq = 0;       // creation order; deterministic tie-break
  std::vector<std::shared_ptr<const SkeletonEntry>> pointers;
};

using SkeletonRef = std::shared_ptr<const SkeletonEntry>;
/// Sorted by pre; within a segment (equal pre) by (cost, seq).
using TopKList = std::vector<SkeletonRef>;

struct SchemaEvalStats {
  uint64_t rounds = 0;             // incremental iterations
  uint64_t final_k = 0;
  uint64_t entries_created = 0;
  uint64_t second_level_executed = 0;
  uint64_t instances_scanned = 0;  // posting entries touched by secondary
  /// True if BestN stopped at Options::max_k before either finding n
  /// results or exhausting the closure. The returned results are still
  /// the true best ones found so far; the list may just be short.
  bool k_capped = false;
  /// True if Options::cancelled fired and evaluation stopped early. Like
  /// k_capped, everything returned up to that point is correct — the
  /// list may just be short.
  bool cancelled = false;
};

class SchemaEvaluator {
 public:
  struct Options {
    /// Initial k of the incremental algorithm (Figure 6).
    size_t initial_k = 16;
    /// Additive increment delta (Figure 6: "k <- k + delta").
    size_t delta_k = 16;
    /// Multiplicative growth applied on top of the additive delta
    /// (k' = max(k + delta_k, k * growth)); 1.0 is the paper's purely
    /// additive schedule, the default 2.0 bounds the number of rounds
    /// when a query has few or no results. Ablation A2 sweeps this.
    double growth = 2.0;
    /// Hard bound on k. Queries whose results require more second-level
    /// queries than this return what was found (reported through
    /// SchemaEvalStats::k_capped, never logged per query); the bound is
    /// what keeps zero-result queries from enumerating the
    /// full schema closure — the known degenerate case of the
    /// schema-driven strategy (the paper's Figure 7 shows it losing
    /// against direct evaluation exactly when n approaches all results).
    size_t max_k = 4096;
    /// Cooperative cancellation (deadlines): polled between incremental
    /// rounds and between second-level executions, never mid-round, so a
    /// fired check still yields the correct (possibly short) prefix of
    /// results. Null = never cancelled.
    std::function<bool()> cancelled;
    /// External *inclusive* upper bound on useful skeleton cost, polled
    /// before each second-level execution (sharded scatter-gather: the
    /// best known cost of a competing n-th answer). Skeletons with cost
    /// strictly above the bound are pruned — they can never enter the
    /// global top n — so the answers BestN returns are exactly its
    /// answers with cost <= bound (up to n). Null = no bound.
    std::function<cost::Cost()> cost_bound;
    /// Called at most once per BestN, when the evaluation first
    /// accumulates n results, with the crossing skeleton's cost — an
    /// upper bound on this evaluation's true n-th cost. Scatter-gather
    /// feeds it back into other shards' cost_bound.
    std::function<void(cost::Cost)> publish_bound;
  };

  /// `schema`, `tree` (its labels and encoding) must outlive this.
  SchemaEvaluator(const schema::Schema& schema, const doc::DataTree& tree,
                  Options options);
  SchemaEvaluator(const schema::Schema& schema, const doc::DataTree& tree)
      : SchemaEvaluator(schema, tree, Options()) {}

  /// The best k second-level queries, sorted by (cost, pre, seq); only
  /// skeletons satisfying the leaf rule are returned.
  TopKList TopKQueries(const query::ExpandedQuery& query, size_t k);

  /// Algorithm secondary (Figure 5): all data roots of one second-level
  /// query, in preorder.
  index::Posting ExecuteSecondary(const SkeletonRef& skeleton);

  /// The incremental best-n driver (Figure 6). Results sorted by
  /// (cost, root). Pass n = SIZE_MAX for all results.
  std::vector<RootCost> BestN(const query::ExpandedQuery& query, size_t n);

  /// Canonical signature of a skeleton (for dedup and tests).
  static std::string Signature(const SkeletonEntry& entry);

  /// Renders a skeleton as a readable pattern, e.g.
  /// "cd@/catalog/cd{title@/catalog/cd/title{piano}}" — the schema path
  /// of every matched class plus its (possibly renamed) label.
  std::string DescribeSkeleton(const SkeletonEntry& entry) const;

  const schema::Schema& schema() const { return schema_; }
  const doc::DataTree& tree() const { return tree_; }
  const Options& options() const { return options_; }

  const SchemaEvalStats& stats() const { return stats_; }

 private:
  friend class ResultStream;  // shares the round step and the k schedule

  /// One incremental round: counts it (rounds, final_k) and returns the
  /// best k second-level queries. Both drivers go through it.
  TopKList RunRound(const query::ExpandedQuery& query, size_t k);
  /// The k of the round after one at `k` (the growth rule).
  size_t NextK(size_t k) const;

  SkeletonRef NewEntry(const SkeletonEntry& base);

  TopKList FetchLabel(NodeType type, std::string_view label, bool as_leaf);
  const TopKList& InnerList(const query::ExpandedNode* node, size_t k);
  TopKList ComputeInnerList(const query::ExpandedNode* node, size_t k);
  TopKList Eval(const query::ExpandedNode* node, cost::Cost edge_cost,
                const TopKList& ancestors, size_t k);

  // List operations of Section 7.2.
  TopKList MergeK(const TopKList& left, const TopKList& right,
                  cost::Cost rename_cost);
  TopKList JoinK(const TopKList& ancestors, const TopKList& descendants,
                 cost::Cost edge_cost, cost::Cost delete_cost, bool outer,
                 size_t k);
  TopKList IntersectK(const TopKList& left, const TopKList& right,
                      cost::Cost edge_cost, size_t k);
  TopKList UnionK(const TopKList& left, const TopKList& right,
                  cost::Cost edge_cost, size_t k);

  const schema::Schema& schema_;
  const doc::DataTree& tree_;
  Options options_;
  SchemaEvalStats stats_;
  uint64_t next_seq_ = 0;
  std::unordered_map<int, TopKList> cache_;
  std::unordered_map<const SkeletonEntry*, index::Posting> secondary_memo_;
  // Keeps memoized entries alive so raw-pointer keys cannot be reused.
  std::vector<SkeletonRef> memo_guard_;
};

/// Pull-based incremental retrieval (the paper's conclusion: "once the
/// best k second-level queries have been generated, they can be
/// evaluated successively, and the results can be sent immediately to
/// the user"). Results arrive in non-decreasing cost order; equal-cost
/// results in discovery order. The stream owns its evaluator state;
/// `schema`, `tree` and `query` must outlive it.
class ResultStream {
 public:
  ResultStream(const schema::Schema& schema, const doc::DataTree& tree,
               const query::ExpandedQuery* query,
               SchemaEvaluator::Options options);

  /// The next result, or nullopt when no further results exist (or the
  /// k cap was reached; see stats().k_capped).
  std::optional<RootCost> Next();

  const SchemaEvalStats& stats() const { return evaluator_.stats(); }

 private:
  /// Refills pending_ with the roots of the next unexecuted skeleton;
  /// grows k when the current round is used up. False when exhausted.
  bool Advance();

  SchemaEvaluator evaluator_;
  const query::ExpandedQuery* query_;
  TopKList round_;
  size_t round_index_ = 0;
  size_t k_ = 0;
  bool exhausted_ = false;
  std::unordered_set<std::string> executed_;
  std::unordered_set<doc::NodeId> seen_roots_;
  index::Posting pending_;
  size_t pending_index_ = 0;
  cost::Cost pending_cost_ = 0;
};

}  // namespace approxql::engine

#endif  // APPROXQL_ENGINE_TOPK_EVAL_H_
