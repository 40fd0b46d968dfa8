#include "engine/topk_eval.h"

#include <algorithm>

#include "engine/list_ops.h"
#include "util/varint.h"

namespace approxql::engine {

using cost::Add;
using cost::Cost;
using cost::IsFinite;
using cost::kInfinite;
using query::ExpandedNode;
using query::ExpandedQuery;
using query::RepType;

namespace {

/// Orders entries within a segment.
bool SegmentLess(const SkeletonRef& a, const SkeletonRef& b) {
  if (a->cost != b->cost) return a->cost < b->cost;
  return a->seq < b->seq;
}

/// A prospective segment entry, described without allocating it: cost,
/// validity, a deterministic tie-break (enumeration order), and the up
/// to two source entries the real entry would be derived from.
struct Candidate {
  Cost cost = kInfinite;
  bool leaf_matched = false;
  uint64_t order = 0;  // deterministic enumeration index
  const SkeletonRef* primary = nullptr;    // entry the copy derives from
  const SkeletonRef* secondary = nullptr;  // intersect: the other side
};

bool CandidateLess(const Candidate& a, const Candidate& b) {
  if (a.cost != b.cost) return a.cost < b.cost;
  return a.order < b.order;
}

/// Keeps the best k leaf-valid and best k invalid candidates, sorted by
/// (cost, order). Only survivors are later materialized as entries, so
/// segment construction never allocates more than 2k entries.
void TrimCandidates(std::vector<Candidate>* candidates, size_t k) {
  std::sort(candidates->begin(), candidates->end(), CandidateLess);
  std::vector<Candidate> kept;
  kept.reserve(std::min(candidates->size(), 2 * k));
  size_t valid = 0;
  size_t invalid = 0;
  for (auto& candidate : *candidates) {
    size_t& count = candidate.leaf_matched ? valid : invalid;
    if (count < k) {
      ++count;
      kept.push_back(candidate);
    }
  }
  *candidates = std::move(kept);
}

/// Top-k pairs (by cost sum) from two cost-sorted index lists — the
/// classic sorted-pair frontier expansion, O(k log k) instead of the
/// naive |L|*|R| enumeration (the paper's k^2 factor).
template <typename Emit>
void TopKPairs(const std::vector<const SkeletonRef*>& left,
               const std::vector<const SkeletonRef*>& right, size_t k,
               const Emit& emit) {
  if (left.empty() || right.empty() || k == 0) return;
  struct Frontier {
    Cost cost;
    size_t i;
    size_t j;
  };
  auto cmp = [](const Frontier& a, const Frontier& b) {
    if (a.cost != b.cost) return a.cost > b.cost;
    if (a.i != b.i) return a.i > b.i;
    return a.j > b.j;
  };
  std::vector<Frontier> heap;
  std::unordered_set<uint64_t> visited;
  auto push = [&](size_t i, size_t j) {
    if (i >= left.size() || j >= right.size()) return;
    uint64_t key = (static_cast<uint64_t>(i) << 32) | j;
    if (!visited.insert(key).second) return;
    heap.push_back({Add((*left[i])->cost, (*right[j])->cost), i, j});
    std::push_heap(heap.begin(), heap.end(), cmp);
  };
  push(0, 0);
  for (size_t emitted = 0; emitted < k && !heap.empty(); ++emitted) {
    std::pop_heap(heap.begin(), heap.end(), cmp);
    Frontier top = heap.back();
    heap.pop_back();
    emit(top.cost, *left[top.i], *right[top.j], top.i, top.j);
    push(top.i + 1, top.j);
    push(top.i, top.j + 1);
  }
}

}  // namespace

SchemaEvaluator::SchemaEvaluator(const schema::Schema& schema,
                                 const doc::DataTree& tree, Options options)
    : schema_(schema), tree_(tree), options_(options) {}

SkeletonRef SchemaEvaluator::NewEntry(const SkeletonEntry& base) {
  auto entry = std::make_shared<SkeletonEntry>(base);
  entry->seq = next_seq_++;
  ++stats_.entries_created;
  return entry;
}

TopKList SchemaEvaluator::FetchLabel(NodeType type, std::string_view label,
                                     bool as_leaf) {
  TopKList list;
  doc::LabelId id = tree_.labels().Find(label);
  if (id == doc::kInvalidLabel) return list;
  const index::Posting* posting = schema_.label_index().Fetch(type, id);
  if (posting == nullptr) return list;
  list.reserve(posting->size());
  for (uint32_t pre : *posting) {
    const doc::DataNode& n = schema_.nodes()[pre];
    SkeletonEntry e;
    e.pre = pre;
    e.bound = n.bound;
    e.pathcost = n.pathcost;
    e.inscost = n.inscost;
    e.cost = 0;
    e.leaf_matched = as_leaf;
    e.label = id;
    list.push_back(NewEntry(e));
  }
  return list;
}

TopKList SchemaEvaluator::MergeK(const TopKList& left, const TopKList& right,
                                 Cost rename_cost) {
  TopKList out;
  out.reserve(left.size() + right.size());
  size_t i = 0;
  size_t j = 0;
  auto push_right = [&](const SkeletonRef& src) {
    SkeletonEntry e = *src;
    e.cost = Add(e.cost, rename_cost);
    e.pointers = src->pointers;
    out.push_back(NewEntry(e));
  };
  while (i < left.size() || j < right.size()) {
    if (j >= right.size() ||
        (i < left.size() && left[i]->pre < right[j]->pre)) {
      out.push_back(left[i++]);
    } else if (i >= left.size() || right[j]->pre < left[i]->pre) {
      push_right(right[j++]);
    } else {
      // Same schema node reachable via two label variants: interleave
      // the segments by cost (defensive; distinct labels are distinct
      // classes in practice).
      uint32_t pre = left[i]->pre;
      std::vector<SkeletonRef> segment;
      while (i < left.size() && left[i]->pre == pre) segment.push_back(left[i++]);
      while (j < right.size() && right[j]->pre == pre) {
        SkeletonEntry e = *right[j];
        e.cost = Add(e.cost, rename_cost);
        segment.push_back(NewEntry(e));
        ++j;
      }
      std::sort(segment.begin(), segment.end(), SegmentLess);
      for (auto& entry : segment) out.push_back(std::move(entry));
    }
  }
  return out;
}

TopKList SchemaEvaluator::JoinK(const TopKList& ancestors,
                                const TopKList& descendants, Cost edge_cost,
                                Cost delete_cost, bool outer, size_t k) {
  TopKList out;
  std::vector<Candidate> candidates;
  for (const SkeletonRef& a : ancestors) {
    candidates.clear();
    // Descendant interval: entries with a->pre < pre <= a->bound.
    auto first = std::upper_bound(
        descendants.begin(), descendants.end(), a->pre,
        [](uint32_t pre, const SkeletonRef& e) { return pre < e->pre; });
    uint64_t order = 0;
    for (auto it = first; it != descendants.end() && (*it)->pre <= a->bound;
         ++it) {
      const SkeletonRef& d = *it;
      Cost dist = d->pathcost - a->pathcost - a->inscost;
      Cost total = Add(Add(dist, d->cost), edge_cost);
      if (!IsFinite(total)) continue;
      candidates.push_back({total, d->leaf_matched, order++, &d, nullptr});
    }
    if (outer && IsFinite(delete_cost)) {
      Cost total = Add(delete_cost, edge_cost);
      candidates.push_back({total, false, order++, nullptr, nullptr});
    }
    TrimCandidates(&candidates, k);
    for (const Candidate& c : candidates) {
      SkeletonEntry e = *a;
      e.cost = c.cost;
      e.leaf_matched = c.leaf_matched;
      e.pointers.clear();
      if (c.primary != nullptr) e.pointers = {*c.primary};
      out.push_back(NewEntry(e));
    }
  }
  return out;
}

TopKList SchemaEvaluator::IntersectK(const TopKList& left,
                                     const TopKList& right, Cost edge_cost,
                                     size_t k) {
  TopKList out;
  size_t i = 0;
  size_t j = 0;
  while (i < left.size() && j < right.size()) {
    if (left[i]->pre < right[j]->pre) {
      ++i;
    } else if (right[j]->pre < left[i]->pre) {
      ++j;
    } else {
      uint32_t pre = left[i]->pre;
      size_t i_end = i;
      while (i_end < left.size() && left[i_end]->pre == pre) ++i_end;
      size_t j_end = j;
      while (j_end < right.size() && right[j_end]->pre == pre) ++j_end;
      // Split each side by validity; segments are cost-sorted, so the
      // sublists stay sorted and the frontier expansion below yields the
      // k cheapest pairs per validity class without enumerating all
      // |L|*|R| combinations.
      std::vector<const SkeletonRef*> valid_l, invalid_l, valid_r, invalid_r;
      for (size_t li = i; li < i_end; ++li) {
        (left[li]->leaf_matched ? valid_l : invalid_l).push_back(&left[li]);
      }
      for (size_t rj = j; rj < j_end; ++rj) {
        (right[rj]->leaf_matched ? valid_r : invalid_r).push_back(&right[rj]);
      }
      std::vector<Candidate> candidates;
      // The tie-break (quadrant, i, j) is independent of k so that
      // larger k keeps the smaller k's selection as a prefix.
      auto emit = [&](bool leaf_matched, uint64_t quadrant) {
        return [&candidates, leaf_matched, quadrant, edge_cost](
                   Cost pair_cost, const SkeletonRef& l, const SkeletonRef& r,
                   size_t li, size_t rj) {
          Cost total = Add(pair_cost, edge_cost);
          if (!IsFinite(total)) return;
          uint64_t order = (quadrant << 60) |
                           (static_cast<uint64_t>(li) << 30) |
                           static_cast<uint64_t>(rj);
          candidates.push_back({total, leaf_matched, order, &l, &r});
        };
      };
      // Valid result = at least one valid side (V*V, V*I, I*V).
      TopKPairs(valid_l, valid_r, k, emit(true, 0));
      TopKPairs(valid_l, invalid_r, k, emit(true, 1));
      TopKPairs(invalid_l, valid_r, k, emit(true, 2));
      TopKPairs(invalid_l, invalid_r, k, emit(false, 3));
      TrimCandidates(&candidates, k);
      for (const Candidate& c : candidates) {
        const SkeletonEntry& l = **c.primary;
        const SkeletonEntry& r = **c.secondary;
        SkeletonEntry e = l;
        e.cost = c.cost;
        e.leaf_matched = c.leaf_matched;
        e.pointers = l.pointers;
        e.pointers.insert(e.pointers.end(), r.pointers.begin(),
                          r.pointers.end());
        out.push_back(NewEntry(e));
      }
      i = i_end;
      j = j_end;
    }
  }
  return out;
}

TopKList SchemaEvaluator::UnionK(const TopKList& left, const TopKList& right,
                                 Cost edge_cost, size_t k) {
  TopKList out;
  size_t i = 0;
  size_t j = 0;
  auto take_segment = [](const TopKList& list, size_t* idx,
                         std::vector<SkeletonRef>* segment) {
    uint32_t pre = list[*idx]->pre;
    while (*idx < list.size() && list[*idx]->pre == pre) {
      segment->push_back(list[(*idx)++]);
    }
  };
  while (i < left.size() || j < right.size()) {
    std::vector<SkeletonRef> segment;
    if (j >= right.size() ||
        (i < left.size() && left[i]->pre < right[j]->pre)) {
      take_segment(left, &i, &segment);
    } else if (i >= left.size() || right[j]->pre < left[i]->pre) {
      take_segment(right, &j, &segment);
    } else {
      take_segment(left, &i, &segment);
      take_segment(right, &j, &segment);
    }
    std::vector<Candidate> candidates;
    candidates.reserve(segment.size());
    uint64_t order = 0;
    for (const SkeletonRef& src : segment) {
      Cost total = Add(src->cost, edge_cost);
      if (!IsFinite(total)) continue;
      candidates.push_back({total, src->leaf_matched, order++, &src, nullptr});
    }
    TrimCandidates(&candidates, k);
    for (const Candidate& c : candidates) {
      SkeletonEntry e = **c.primary;
      e.cost = c.cost;
      out.push_back(NewEntry(e));
    }
  }
  return out;
}

TopKList SchemaEvaluator::ComputeInnerList(const ExpandedNode* node,
                                           size_t k) {
  if (node->rep == RepType::kLeaf) {
    TopKList list = FetchLabel(node->type, node->label, /*as_leaf=*/true);
    for (const auto& renaming : node->renamings) {
      TopKList renamed = FetchLabel(node->type, renaming.to, /*as_leaf=*/true);
      list = MergeK(list, renamed, renaming.cost);
    }
    return list;
  }
  APPROXQL_DCHECK(node->rep == RepType::kNode);
  bool bare_root = node->left == nullptr;
  TopKList list = FetchLabel(node->type, node->label, bare_root);
  if (node->left != nullptr) {
    list = Eval(node->left, 0, list, k);
  }
  for (const auto& renaming : node->renamings) {
    TopKList renamed = FetchLabel(node->type, renaming.to, bare_root);
    if (node->left != nullptr) {
      renamed = Eval(node->left, 0, renamed, k);
    }
    list = MergeK(list, renamed, renaming.cost);
  }
  return list;
}

const TopKList& SchemaEvaluator::InnerList(const ExpandedNode* node,
                                           size_t k) {
  auto it = cache_.find(node->id);
  if (it != cache_.end()) return it->second;
  TopKList list = ComputeInnerList(node, k);
  return cache_.emplace(node->id, std::move(list)).first->second;
}

TopKList SchemaEvaluator::Eval(const ExpandedNode* node, Cost edge_cost,
                               const TopKList& ancestors, size_t k) {
  switch (node->rep) {
    case RepType::kLeaf:
      return JoinK(ancestors, InnerList(node, k), edge_cost, node->delcost,
                   /*outer=*/true, k);
    case RepType::kNode: {
      const TopKList& inner = InnerList(node, k);
      if (node->is_root) return inner;
      return JoinK(ancestors, inner, edge_cost, kInfinite, /*outer=*/false,
                   k);
    }
    case RepType::kAnd: {
      TopKList left = Eval(node->left, 0, ancestors, k);
      if (left.empty()) return left;  // intersect with nothing is nothing
      TopKList right = Eval(node->right, 0, ancestors, k);
      return IntersectK(left, right, edge_cost, k);
    }
    case RepType::kOr: {
      TopKList left = Eval(node->left, 0, ancestors, k);
      TopKList right = Eval(node->right, node->edgecost, ancestors, k);
      return UnionK(left, right, edge_cost, k);
    }
  }
  APPROXQL_CHECK(false) << "unreachable representation type";
  return {};
}

TopKList SchemaEvaluator::TopKQueries(const ExpandedQuery& query, size_t k) {
  cache_.clear();
  next_seq_ = 0;
  TopKList empty;
  TopKList roots = Eval(query.root(), 0, empty, k);
  // Function sort (Section 7.2 variant): globally best k, valid only.
  TopKList valid;
  valid.reserve(roots.size());
  for (auto& entry : roots) {
    if (entry->leaf_matched && IsFinite(entry->cost)) {
      valid.push_back(std::move(entry));
    }
  }
  std::sort(valid.begin(), valid.end(),
            [](const SkeletonRef& a, const SkeletonRef& b) {
              if (a->cost != b->cost) return a->cost < b->cost;
              if (a->pre != b->pre) return a->pre < b->pre;
              return a->seq < b->seq;
            });
  if (valid.size() > k) valid.resize(k);
  return valid;
}

index::Posting SchemaEvaluator::ExecuteSecondary(const SkeletonRef& skeleton) {
  auto it = secondary_memo_.find(skeleton.get());
  if (it != secondary_memo_.end()) return it->second;
  ++stats_.second_level_executed;
  index::Posting result;
  const index::Posting* posting =
      schema_.secondary_index().Fetch(skeleton->pre, skeleton->label);
  if (posting != nullptr) {
    result = *posting;
    stats_.instances_scanned += posting->size();
    for (const SkeletonRef& child : skeleton->pointers) {
      if (result.empty()) break;
      index::Posting child_instances = ExecuteSecondary(child);
      // Keep instances with at least one descendant in child_instances.
      // Instances of one class never nest (equal path length), so a
      // single monotone cursor suffices.
      index::Posting filtered;
      size_t cursor = 0;
      for (doc::NodeId u : result) {
        while (cursor < child_instances.size() && child_instances[cursor] <= u) {
          ++cursor;
        }
        if (cursor < child_instances.size() &&
            child_instances[cursor] <= tree_.node(u).bound) {
          filtered.push_back(u);
        }
      }
      result = std::move(filtered);
    }
  }
  secondary_memo_.emplace(skeleton.get(), result);
  memo_guard_.push_back(skeleton);
  return result;
}

std::string SchemaEvaluator::DescribeSkeleton(
    const SkeletonEntry& entry) const {
  std::string out(tree_.labels().Get(entry.label));
  out += "@";
  out += schema_.PathOf(entry.pre, tree_.labels());
  if (!entry.pointers.empty()) {
    out += "{";
    for (size_t i = 0; i < entry.pointers.size(); ++i) {
      if (i > 0) out += ", ";
      out += DescribeSkeleton(*entry.pointers[i]);
    }
    out += "}";
  }
  return out;
}

std::string SchemaEvaluator::Signature(const SkeletonEntry& entry) {
  std::string out;
  util::PutVarint32(&out, entry.pre);
  util::PutVarint32(&out, entry.label);
  if (entry.pointers.empty()) return out;
  std::vector<std::string> children;
  children.reserve(entry.pointers.size());
  for (const auto& child : entry.pointers) {
    children.push_back(Signature(*child));
  }
  std::sort(children.begin(), children.end());
  out.push_back('(');
  for (const auto& child : children) {
    out += child;
    out.push_back(',');
  }
  out.push_back(')');
  return out;
}

std::vector<RootCost> SchemaEvaluator::BestN(const ExpandedQuery& query,
                                             size_t n) {
  std::vector<RootCost> results;
  std::unordered_set<doc::NodeId> seen_roots;
  std::unordered_set<std::string> executed;
  secondary_memo_.clear();
  memo_guard_.clear();
  size_t k = options_.initial_k;
  // Once n results exist, `boundary` is the cost of the skeleton that
  // crossed n. Skeletons run in ascending cost order, so draining every
  // remaining skeleton that ties with the boundary before stopping makes
  // the (cost, root)-truncated list canonical: the same n answers
  // regardless of enumeration order, which is what lets the sharded
  // scatter-gather MergeTopN reproduce this list bit-for-bit.
  bool have_boundary = false;
  cost::Cost boundary = 0;
  bool done = false;
  for (;;) {
    if (options_.cancelled && options_.cancelled()) {
      stats_.cancelled = true;
      break;
    }
    TopKList queries = RunRound(query, k);
    for (const SkeletonRef& skeleton : queries) {
      // Second-level queries run in ascending cost order, so stopping on
      // a fired deadline between them still leaves a correct (short)
      // prefix of the best results.
      if (options_.cancelled && options_.cancelled()) {
        stats_.cancelled = true;
        break;
      }
      if (have_boundary && skeleton->cost > boundary) {
        done = true;
        break;
      }
      // External bound (scatter-gather): a competing evaluation already
      // holds n answers at or below this cost, so costlier skeletons are
      // globally useless — even when *this* evaluation has fewer than n
      // results. Inclusive: ties at the bound still run, which is what
      // keeps the merged (cost, root) ranking bit-identical.
      if (options_.cost_bound && skeleton->cost > options_.cost_bound()) {
        done = true;
        break;
      }
      std::string signature = Signature(*skeleton);
      if (!executed.insert(std::move(signature)).second) continue;
      index::Posting roots = ExecuteSecondary(skeleton);
      for (doc::NodeId root : roots) {
        // Second-level queries run in ascending cost order, so the first
        // hit per root carries its minimal cost.
        if (seen_roots.insert(root).second) {
          results.push_back({root, skeleton->cost});
        }
      }
      if (!have_boundary && results.size() >= n) {
        have_boundary = true;
        boundary = skeleton->cost;
        if (options_.publish_bound) options_.publish_bound(boundary);
      }
    }
    if (stats_.cancelled) break;
    if (done) break;
    // Fewer valid skeletons than requested means the schema closure is
    // exhausted (per-segment trims only bind once a segment reaches k,
    // which forces the global list to k as well) — growing k adds
    // nothing.
    if (queries.size() < k) break;
    if (k >= options_.max_k) {
      stats_.k_capped = true;
      break;
    }
    k = NextK(k);
  }
  SortTopN(&results, n);
  return results;
}

TopKList SchemaEvaluator::RunRound(const ExpandedQuery& query, size_t k) {
  ++stats_.rounds;
  stats_.final_k = k;
  return TopKQueries(query, k);
}

size_t SchemaEvaluator::NextK(size_t k) const {
  size_t grown = static_cast<size_t>(static_cast<double>(k) *
                                     std::max(options_.growth, 1.0));
  return std::min(std::max(k + options_.delta_k, grown), options_.max_k);
}

// ---------------------------------------------------------------------------
// ResultStream

ResultStream::ResultStream(const schema::Schema& schema,
                           const doc::DataTree& tree,
                           const query::ExpandedQuery* query,
                           SchemaEvaluator::Options options)
    : evaluator_(schema, tree, options),
      query_(query),
      k_(options.initial_k) {
  round_ = evaluator_.RunRound(*query_, k_);
}

bool ResultStream::Advance() {
  // Find the next unexecuted skeleton, growing k across rounds exactly
  // like SchemaEvaluator::BestN.
  for (;;) {
    if (evaluator_.options().cancelled && evaluator_.options().cancelled()) {
      evaluator_.stats_.cancelled = true;
      return false;
    }
    while (round_index_ < round_.size()) {
      const SkeletonRef& skeleton = round_[round_index_++];
      std::string signature = SchemaEvaluator::Signature(*skeleton);
      if (!executed_.insert(std::move(signature)).second) continue;
      index::Posting roots = evaluator_.ExecuteSecondary(skeleton);
      pending_.clear();
      for (doc::NodeId root : roots) {
        if (seen_roots_.insert(root).second) pending_.push_back(root);
      }
      if (!pending_.empty()) {
        pending_index_ = 0;
        pending_cost_ = skeleton->cost;
        return true;
      }
    }
    if (round_.size() < k_) return false;  // closure exhausted
    if (k_ >= evaluator_.options().max_k) {
      evaluator_.stats_.k_capped = true;
      return false;
    }
    k_ = evaluator_.NextK(k_);
    round_ = evaluator_.RunRound(*query_, k_);
    round_index_ = 0;
  }
}

std::optional<RootCost> ResultStream::Next() {
  if (exhausted_) return std::nullopt;
  if (pending_index_ >= pending_.size()) {
    if (!Advance()) {
      exhausted_ = true;
      return std::nullopt;
    }
  }
  return RootCost{pending_[pending_index_++], pending_cost_};
}

}  // namespace approxql::engine
