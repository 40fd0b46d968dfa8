// A per-query fetch plan: the set of (type, label, as_leaf) postings an
// expanded query will read, collected up front so the reads can be
// materialized (and timed) before evaluation starts — the sharded
// scatter path does this per shard. The evaluators treat a plan as an
// optional read-through cache: a slot that was never materialized (the
// label is missing from the plan) makes Find return nullptr and the
// evaluator falls back to its inline fetch, so a partially materialized
// plan is always safe.
//
// Thread safety: Materialize may run concurrently for *distinct* slots;
// the caller must establish a barrier between the materialization phase
// and any Find call. After that barrier the plan is immutable and may be
// shared read-only across threads.
#ifndef APPROXQL_ENGINE_FETCH_PLAN_H_
#define APPROXQL_ENGINE_FETCH_PLAN_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "doc/label_table.h"
#include "engine/entry_list.h"
#include "index/label_index.h"
#include "query/expanded.h"

namespace approxql::engine {

class FetchPlan {
 public:
  FetchPlan() = default;
  FetchPlan(FetchPlan&&) = default;
  FetchPlan& operator=(FetchPlan&&) = default;

  /// Collects every fetch the direct evaluation of `query` will issue
  /// (labels and their renamings, with the same as_leaf flags the
  /// evaluator uses).
  explicit FetchPlan(const query::ExpandedQuery& query);

  /// Number of distinct (type, label, as_leaf) slots.
  size_t size() const { return slots_.size(); }

  /// Materializes slot `i` from the index. Safe to call concurrently
  /// for distinct i.
  void Materialize(size_t i, const EncodedTree& tree,
                   const index::PostingSource& index,
                   const doc::LabelTable& labels);

  /// The materialized list for (type, label, as_leaf), or nullptr if the
  /// slot is absent or was never materialized.
  const EntryList* Find(NodeType type, std::string_view label,
                        bool as_leaf) const;

 private:
  struct Slot {
    NodeType type;
    std::string label;
    bool as_leaf;
    bool ready = false;
    EntryList list;
  };

  void Add(NodeType type, std::string_view label, bool as_leaf);
  static std::string Key(NodeType type, std::string_view label, bool as_leaf);

  std::vector<Slot> slots_;
  std::unordered_map<std::string, size_t> index_;
};

}  // namespace approxql::engine

#endif  // APPROXQL_ENGINE_FETCH_PLAN_H_
