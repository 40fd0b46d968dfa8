#include "engine/list_ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "util/random.h"

namespace approxql::engine {
namespace {

using cost::kInfinite;

/// Builds an encoded forest of chains: each of `groups` groups has
/// `depth` nested struct nodes with inscost 1.
struct ChainTree {
  explicit ChainTree(size_t groups, uint32_t depth = 3) {
    nodes.resize(groups * depth);
    for (size_t g = 0; g < groups; ++g) {
      doc::NodeId base = static_cast<doc::NodeId>(g * depth);
      for (uint32_t i = 0; i < depth; ++i) {
        doc::DataNode& n = nodes[base + i];
        n.parent = i == 0 ? doc::kInvalidNode : base + i - 1;
        n.bound = base + depth - 1;
        n.inscost = 1;
        n.pathcost = i;
      }
    }
  }
  EncodedTree View() const { return {nodes.data(), nodes.size()}; }

  Entry At(doc::NodeId id, cost::Cost cost_any = 0,
           cost::Cost cost_leaf = kInfinite) const {
    Entry e;
    e.pre = id;
    e.bound = nodes[id].bound;
    e.pathcost = nodes[id].pathcost;
    e.inscost = nodes[id].inscost;
    e.cost_any = cost_any;
    e.cost_leaf = cost_leaf;
    return e;
  }

  std::vector<doc::DataNode> nodes;
};

TEST(FetchTest, InitializesFromPosting) {
  ChainTree tree(2);
  index::Posting posting = {0, 3};
  EntryList leaf_list = Fetch(tree.View(), &posting, /*as_leaf=*/true);
  ASSERT_EQ(leaf_list.size(), 2u);
  EXPECT_EQ(leaf_list[0].pre, 0u);
  EXPECT_EQ(leaf_list[0].bound, 2u);
  EXPECT_EQ(leaf_list[0].cost_any, 0);
  EXPECT_EQ(leaf_list[0].cost_leaf, 0);
  EntryList node_list = Fetch(tree.View(), &posting, /*as_leaf=*/false);
  EXPECT_EQ(node_list[0].cost_leaf, kInfinite);
  EXPECT_TRUE(Fetch(tree.View(), nullptr, true).empty());
}

TEST(MergeTest, InterleavesAndCharges) {
  ChainTree tree(3);
  EntryList left = {tree.At(0, 1, 1)};
  EntryList right = {tree.At(3, 2, 2), tree.At(6, 0, kInfinite)};
  EntryList merged = Merge(left, right, 5);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].pre, 0u);
  EXPECT_EQ(merged[0].cost_any, 1);  // left side uncharged
  EXPECT_EQ(merged[1].pre, 3u);
  EXPECT_EQ(merged[1].cost_any, 7);  // 2 + rename 5
  EXPECT_EQ(merged[1].cost_leaf, 7);
  EXPECT_EQ(merged[2].cost_any, 5);
  EXPECT_EQ(merged[2].cost_leaf, kInfinite);  // inf stays inf
}

TEST(MergeTest, CollisionKeepsMinima) {
  ChainTree tree(1);
  EntryList left = {tree.At(0, 4, kInfinite)};
  EntryList right = {tree.At(0, 1, 1)};
  EntryList merged = Merge(left, right, 2);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].cost_any, 3);   // min(4, 1+2)
  EXPECT_EQ(merged[0].cost_leaf, 3);  // min(inf, 1+2)
}

TEST(JoinTest, PicksCheapestDescendantAndAddsDistance) {
  ChainTree tree(2);
  // Group 0: nodes 0,1,2 nested. Ancestor 0; descendants 1 (dist 0) and
  // 2 (dist 1: node 1's inscost).
  EntryList ancestors = {tree.At(0)};
  EntryList descendants = {tree.At(1, 7, 7), tree.At(2, 3, kInfinite)};
  EntryList joined = Join(ancestors, descendants, 2);
  ASSERT_EQ(joined.size(), 1u);
  // any: min(0+7, 1+3) + 2 = 6; leaf: min(0+7, inf) + 2 = 9.
  EXPECT_EQ(joined[0].cost_any, 6);
  EXPECT_EQ(joined[0].cost_leaf, 9);
}

TEST(JoinTest, DropsAncestorsWithoutDescendants) {
  ChainTree tree(2);
  EntryList ancestors = {tree.At(0), tree.At(3)};
  EntryList descendants = {tree.At(4, 0, 0)};  // inside group 1 only
  EntryList joined = Join(ancestors, descendants, 0);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0].pre, 3u);
}

TEST(JoinTest, SelfIsNotDescendant) {
  ChainTree tree(1);
  EntryList ancestors = {tree.At(1)};
  EntryList descendants = {tree.At(1, 0, 0)};
  EXPECT_TRUE(Join(ancestors, descendants, 0).empty());
}

TEST(JoinTest, NestedAncestorsBothSeeDeepDescendant) {
  ChainTree tree(1, /*depth=*/4);
  EntryList ancestors = {tree.At(0), tree.At(1)};
  EntryList descendants = {tree.At(3, 0, 0)};
  EntryList joined = Join(ancestors, descendants, 0);
  ASSERT_EQ(joined.size(), 2u);
  EXPECT_EQ(joined[0].pre, 0u);
  EXPECT_EQ(joined[0].cost_any, 2);  // nodes 1 and 2 inserted
  EXPECT_EQ(joined[1].pre, 1u);
  EXPECT_EQ(joined[1].cost_any, 1);  // node 2 inserted
}

TEST(OuterJoinTest, DeletionOptionAndLeafRule) {
  ChainTree tree(2);
  EntryList ancestors = {tree.At(0), tree.At(3)};
  EntryList descendants = {tree.At(1, 0, 0)};  // only under ancestor 0
  EntryList joined = OuterJoin(ancestors, descendants, 1, /*delete_cost=*/4);
  ASSERT_EQ(joined.size(), 2u);
  EXPECT_EQ(joined[0].cost_any, 1);  // match (0) + edge 1
  EXPECT_EQ(joined[0].cost_leaf, 1);
  EXPECT_EQ(joined[1].cost_any, 5);        // delete 4 + edge 1
  EXPECT_EQ(joined[1].cost_leaf, kInfinite);  // deletion matches no leaf
}

TEST(OuterJoinTest, InfiniteDeleteDropsUnmatchedAncestors) {
  ChainTree tree(2);
  EntryList ancestors = {tree.At(0), tree.At(3)};
  EntryList descendants = {tree.At(1, 0, 0)};
  EntryList joined = OuterJoin(ancestors, descendants, 0, kInfinite);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0].pre, 0u);
}

TEST(OuterJoinTest, DeletionCheaperThanBadMatch) {
  ChainTree tree(1, 4);
  EntryList ancestors = {tree.At(0)};
  EntryList descendants = {tree.At(3, 10, 10)};  // match costs 2+10
  EntryList joined = OuterJoin(ancestors, descendants, 0, /*delete_cost=*/3);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0].cost_any, 3);    // deletion wins
  EXPECT_EQ(joined[0].cost_leaf, 12);  // but the leaf-carrying cost is real
}

TEST(IntersectTest, AddsCostsOnCommonNodes) {
  ChainTree tree(3);
  EntryList left = {tree.At(0, 1, 2), tree.At(3, 1, 1)};
  EntryList right = {tree.At(3, 2, kInfinite), tree.At(6, 0, 0)};
  EntryList both = Intersect(left, right, 1);
  ASSERT_EQ(both.size(), 1u);
  EXPECT_EQ(both[0].pre, 3u);
  EXPECT_EQ(both[0].cost_any, 4);  // 1 + 2 + 1
  // leaf: min(1+2, 1+inf) + 1 = 4.
  EXPECT_EQ(both[0].cost_leaf, 4);
}

TEST(IntersectTest, LeafRuleNeedsOneSideOnly) {
  ChainTree tree(1);
  EntryList left = {tree.At(0, 2, kInfinite)};
  EntryList right = {tree.At(0, 3, 5)};
  EntryList both = Intersect(left, right, 0);
  ASSERT_EQ(both.size(), 1u);
  EXPECT_EQ(both[0].cost_any, 5);
  EXPECT_EQ(both[0].cost_leaf, 7);  // 2 + 5
}

TEST(UnionTest, MinimaOnCommonCopyOnSingle) {
  ChainTree tree(3);
  EntryList left = {tree.At(0, 1, 1), tree.At(3, 5, kInfinite)};
  EntryList right = {tree.At(3, 2, 2), tree.At(6, 4, 4)};
  EntryList either = Union(left, right, 1);
  ASSERT_EQ(either.size(), 3u);
  EXPECT_EQ(either[0].cost_any, 2);
  EXPECT_EQ(either[1].pre, 3u);
  EXPECT_EQ(either[1].cost_any, 3);   // min(5,2)+1
  EXPECT_EQ(either[1].cost_leaf, 3);  // min(inf,2)+1
  EXPECT_EQ(either[2].cost_any, 5);
}

TEST(SortBestNTest, SortsFiltersTruncates) {
  ChainTree tree(4);
  EntryList list = {tree.At(0, 0, 5), tree.At(3, 0, 2),
                    tree.At(6, 0, kInfinite), tree.At(9, 0, 2)};
  auto top = SortBestN(list, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].root, 3u);  // cost 2, smaller pre first
  EXPECT_EQ(top[1].root, 9u);
  auto all = SortBestN(list, SIZE_MAX);
  ASSERT_EQ(all.size(), 3u);  // infinite cost_leaf filtered
  EXPECT_EQ(all[2].cost, 5);
}

TEST(SortTopNTest, MatchesFullSortForEveryN) {
  util::Rng rng(20020314);
  for (int round = 0; round < 20; ++round) {
    std::vector<RootCost> list;
    size_t size = rng.Uniform(40);
    for (size_t i = 0; i < size; ++i) {
      // Few distinct costs and roots force tie-breaking through both
      // comparator components.
      list.push_back({static_cast<doc::NodeId>(rng.Uniform(20)),
                      static_cast<cost::Cost>(rng.Uniform(5))});
    }
    std::vector<RootCost> reference = list;
    std::sort(reference.begin(), reference.end(),
              [](const RootCost& a, const RootCost& b) {
                return a.cost != b.cost ? a.cost < b.cost : a.root < b.root;
              });
    for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size, SIZE_MAX}) {
      std::vector<RootCost> partial = list;
      SortTopN(&partial, n);
      std::vector<RootCost> expected = reference;
      if (expected.size() > n) expected.resize(n);
      EXPECT_EQ(partial, expected) << "size=" << size << " n=" << n;
    }
  }
}

TEST(MergeTopNTest, DedupKeepsMinimumCost) {
  // Root 5 appears in both lists; the cheaper occurrence must win.
  std::vector<std::vector<RootCost>> lists = {
      {{5, 1}, {7, 4}},
      {{3, 2}, {5, 3}},
  };
  auto merged = MergeTopN(lists, SIZE_MAX);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0], (RootCost{5, 1}));
  EXPECT_EQ(merged[1], (RootCost{3, 2}));
  EXPECT_EQ(merged[2], (RootCost{7, 4}));
}

TEST(MergeTopNTest, TruncatesToNAndHandlesEmpty) {
  std::vector<std::vector<RootCost>> lists = {
      {{1, 1}, {2, 2}, {3, 3}},
      {},
      {{4, 1}, {5, 5}},
  };
  auto merged = MergeTopN(lists, 2);
  ASSERT_EQ(merged.size(), 2u);
  // Equal costs tie-break by root.
  EXPECT_EQ(merged[0], (RootCost{1, 1}));
  EXPECT_EQ(merged[1], (RootCost{4, 1}));
  EXPECT_TRUE(MergeTopN({}, 10).empty());
  EXPECT_TRUE(MergeTopN({{}, {}}, 10).empty());
  EXPECT_TRUE(MergeTopN(lists, 0).empty());
}

TEST(MergeTopNTest, DuplicateCostRootPairAcrossLists) {
  // The sharded scatter can (in principle) present the exact same
  // (cost, root) pair in several input lists; the merge must emit it
  // once — heap pops of equal keys are adjacent, so the first pop wins
  // and the rest are skipped as duplicate roots.
  std::vector<std::vector<RootCost>> lists = {
      {{9, 2}, {4, 7}},
      {{9, 2}},
      {{9, 2}, {1, 5}},
  };
  auto merged = MergeTopN(lists, SIZE_MAX);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0], (RootCost{9, 2}));
  EXPECT_EQ(merged[1], (RootCost{1, 5}));
  EXPECT_EQ(merged[2], (RootCost{4, 7}));

  // k = 0 with duplicates present still yields nothing.
  EXPECT_TRUE(MergeTopN(lists, 0).empty());
}

TEST(MergeTopNTest, NLargerThanUnionReturnsWholeUnion) {
  // A finite n beyond the deduplicated union must not pad, repeat, or
  // drop entries — it returns exactly the union, still ranked.
  std::vector<std::vector<RootCost>> lists = {
      {{2, 1}, {6, 3}},
      {{2, 4}, {8, 3}},
  };
  auto merged = MergeTopN(lists, 100);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0], (RootCost{2, 1}));
  // Equal costs tie-break by root: (6,3) before (8,3).
  EXPECT_EQ(merged[1], (RootCost{6, 3}));
  EXPECT_EQ(merged[2], (RootCost{8, 3}));
}

TEST(MergeTopNTest, MatchesConcatenateSortDedup) {
  util::Rng rng(7001);
  for (int round = 0; round < 20; ++round) {
    size_t k = 1 + rng.Uniform(5);
    std::vector<std::vector<RootCost>> lists(k);
    for (auto& list : lists) {
      // Unique roots per list, sorted by (cost, root) — the contract the
      // per-shard evaluations guarantee.
      size_t size = rng.Uniform(15);
      std::vector<doc::NodeId> roots;
      for (size_t i = 0; i < size; ++i) {
        roots.push_back(static_cast<doc::NodeId>(rng.Uniform(30)));
      }
      std::sort(roots.begin(), roots.end());
      roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
      for (doc::NodeId root : roots) {
        list.push_back({root, static_cast<cost::Cost>(rng.Uniform(8))});
      }
      std::sort(list.begin(), list.end(),
                [](const RootCost& a, const RootCost& b) {
                  return a.cost != b.cost ? a.cost < b.cost : a.root < b.root;
                });
    }
    // Oracle: concatenate, keep the min cost per root, sort, truncate.
    std::map<doc::NodeId, cost::Cost> best;
    for (const auto& list : lists) {
      for (const RootCost& rc : list) {
        auto [it, inserted] = best.emplace(rc.root, rc.cost);
        if (!inserted && rc.cost < it->second) it->second = rc.cost;
      }
    }
    std::vector<RootCost> expected;
    for (const auto& [root, costv] : best) expected.push_back({root, costv});
    std::sort(expected.begin(), expected.end(),
              [](const RootCost& a, const RootCost& b) {
                return a.cost != b.cost ? a.cost < b.cost : a.root < b.root;
              });
    size_t n = rng.Uniform(10);
    if (expected.size() > n) expected.resize(n);
    EXPECT_EQ(MergeTopN(lists, n), expected) << "round " << round;
  }
}

// Algebraic properties on random lists.
class ListOpsPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  EntryList RandomList(const ChainTree& tree, util::Rng& rng) {
    EntryList list;
    for (doc::NodeId id = 0; id < tree.nodes.size(); ++id) {
      if (rng.Bernoulli(0.5)) {
        cost::Cost any = static_cast<cost::Cost>(rng.Uniform(10));
        cost::Cost leaf =
            rng.Bernoulli(0.3) ? kInfinite
                               : any + static_cast<cost::Cost>(rng.Uniform(5));
        list.push_back(tree.At(id, any, leaf));
      }
    }
    return list;
  }
};

TEST_P(ListOpsPropertyTest, IntersectAndUnionAreCommutative) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 1);
  ChainTree tree(10, 4);
  EntryList a = RandomList(tree, rng);
  EntryList b = RandomList(tree, rng);
  auto eq = [](const EntryList& x, const EntryList& y) {
    if (x.size() != y.size()) return false;
    for (size_t i = 0; i < x.size(); ++i) {
      if (x[i].pre != y[i].pre || x[i].cost_any != y[i].cost_any ||
          x[i].cost_leaf != y[i].cost_leaf) {
        return false;
      }
    }
    return true;
  };
  EXPECT_TRUE(eq(Intersect(a, b, 3), Intersect(b, a, 3)));
  EXPECT_TRUE(eq(Union(a, b, 3), Union(b, a, 3)));
}

TEST_P(ListOpsPropertyTest, UnionWithSelfAddsEdgeOnly) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 37 + 5);
  ChainTree tree(10, 4);
  EntryList a = RandomList(tree, rng);
  EntryList u = Union(a, a, 2);
  ASSERT_EQ(u.size(), a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(u[i].cost_any, cost::Add(a[i].cost_any, 2));
    EXPECT_EQ(u[i].cost_leaf, cost::Add(a[i].cost_leaf, 2));
  }
}

TEST_P(ListOpsPropertyTest, OutputsSortedUniquePre) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 41 + 3);
  ChainTree tree(10, 4);
  EntryList a = RandomList(tree, rng);
  EntryList b = RandomList(tree, rng);
  for (const EntryList& out :
       {Merge(a, b, 1), Join(a, b, 1), OuterJoin(a, b, 1, 2),
        Intersect(a, b, 1), Union(a, b, 1)}) {
    for (size_t i = 1; i < out.size(); ++i) {
      EXPECT_LT(out[i - 1].pre, out[i].pre);
    }
    for (const Entry& e : out) {
      EXPECT_LE(e.cost_any, e.cost_leaf)
          << "the leaf-constrained cost can never beat the free one";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ListOpsPropertyTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace approxql::engine
