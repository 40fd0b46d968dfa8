// The list algebra of Section 6.4: fetch, merge, join, outerjoin,
// intersect, union, sort. All lists are sorted by pre with unique pre
// values; join/outerjoin use a stack-based structural merge whose stack
// depth is bounded by the label recursivity l, giving the paper's
// O(s * l) bound.
#ifndef APPROXQL_ENGINE_LIST_OPS_H_
#define APPROXQL_ENGINE_LIST_OPS_H_

#include <cstddef>

#include "engine/entry_list.h"
#include "index/label_index.h"

namespace approxql::engine {

/// Initializes a list from an index posting (function fetch). Entries
/// copy the node's four numbers; cost_any = 0. `as_leaf` marks entries
/// that are themselves query-leaf matches (cost_leaf = 0); lists fetched
/// for inner query nodes start with cost_leaf = infinite.
EntryList Fetch(const EncodedTree& tree, const index::Posting* posting,
                bool as_leaf);

/// Function merge: combines the lists of a label and one of its
/// renamings; entries from `right` pay the rename cost on both costs.
/// Inputs share no pre values in normal operation (different labels);
/// collisions keep the componentwise minimum.
EntryList Merge(const EntryList& left, const EntryList& right,
                cost::Cost rename_cost);

/// Function join: ancestors from `ancestors` that have at least one
/// descendant in `descendants`; cost = min over descendants of
/// (distance + descendant cost) + edge_cost, per cost component.
EntryList Join(const EntryList& ancestors, const EntryList& descendants,
               cost::Cost edge_cost);

/// Function outerjoin: like join, but every ancestor survives; ancestors
/// without a (finite) descendant option pay delete_cost instead. Entries
/// whose cost_any ends up infinite are dropped (they can never contribute
/// a finite result).
EntryList OuterJoin(const EntryList& ancestors, const EntryList& descendants,
                    cost::Cost edge_cost, cost::Cost delete_cost);

/// Function intersect: nodes present in both lists; costs add.
/// cost_leaf combines as min(leaf+any, any+leaf) — at least one side
/// must contribute a leaf match.
EntryList Intersect(const EntryList& left, const EntryList& right,
                    cost::Cost edge_cost);

/// Function union: nodes present in either list; matching nodes keep the
/// componentwise minimum.
EntryList Union(const EntryList& left, const EntryList& right,
                cost::Cost edge_cost);

/// Function sort: the best (up to) n root-cost pairs by cost_leaf,
/// ties broken by pre; entries without a leaf match are skipped.
std::vector<RootCost> SortBestN(const EntryList& list, size_t n);

/// The shared final ranking step of both evaluators: orders `results`
/// by (cost, root) and truncates to the best n. Partial-sorts when n is
/// smaller than the list, so ranking costs O(|results| + n log n)
/// instead of sorting every finite entry.
void SortTopN(std::vector<RootCost>* results, size_t n);

/// K-way merge of per-shard best-n lists (each sorted by (cost, root)
/// with unique roots) into the global best n. A root appearing in
/// several lists (the super-root every shard shares) keeps its cheapest
/// cost: entries pop in
/// ascending (cost, root) order, so the first occurrence of a root is
/// its minimum and later ones are skipped. A bounded heap of one cursor
/// per list replaces concatenate-and-sort: O(n log k) pops instead of
/// sorting the concatenation.
std::vector<RootCost> MergeTopN(const std::vector<std::vector<RootCost>>& lists,
                                size_t n);

}  // namespace approxql::engine

#endif  // APPROXQL_ENGINE_LIST_OPS_H_
