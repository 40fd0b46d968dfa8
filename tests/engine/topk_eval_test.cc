#include "engine/topk_eval.h"

#include <gtest/gtest.h>

#include <string>

#include "engine/direct_eval.h"
#include "query/ast.h"

namespace approxql::engine {
namespace {

using cost::CostModel;
using doc::DataTree;
using doc::DataTreeBuilder;

constexpr std::string_view kCatalogXml =
    "<catalog>"
    "<cd><title>piano concerto</title><composer>rachmaninov</composer></cd>"
    "<cd><category>piano concerto</category>"
    "<tracks><track><title>vivace</title></track>"
    "<track><title>allegro piano</title></track></tracks>"
    "<performer>ashkenazy</performer></cd>"
    "<mc><title>piano sonata</title><composer>chopin</composer></mc>"
    "</catalog>";

CostModel PaperCosts() {
  auto model = CostModel::ParseConfig(
      "insert struct category 4\n"
      "insert struct cd 2\n"
      "insert struct composer 5\n"
      "insert struct performer 5\n"
      "insert struct title 3\n"
      "delete struct composer 7\n"
      "delete text concerto 6\n"
      "delete text piano 8\n"
      "delete struct title 5\n"
      "delete struct track 3\n"
      "rename struct cd dvd 6\n"
      "rename struct cd mc 4\n"
      "rename struct composer performer 4\n"
      "rename text concerto sonata 3\n"
      "rename struct title category 4\n");
  EXPECT_TRUE(model.ok()) << model.status();
  return std::move(model).value();
}

struct Fixture {
  explicit Fixture(std::string_view xml, CostModel cost_model = CostModel())
      : model(std::move(cost_model)) {
    DataTreeBuilder builder;
    auto s = builder.AddDocumentXml(xml);
    APPROXQL_CHECK(s.ok()) << s;
    auto built = std::move(builder).Build(model);
    APPROXQL_CHECK(built.ok());
    tree = std::make_unique<DataTree>(std::move(built).value());
    schema = std::make_unique<schema::Schema>(
        schema::Schema::Build(tree.get(), model));
    index = std::make_unique<index::LabelIndex>(
        index::LabelIndex::BuildFromTree(*tree));
  }

  query::ExpandedQuery Expand(const std::string& text) {
    auto q = query::Parse(text);
    APPROXQL_CHECK(q.ok()) << q.status();
    auto expanded = query::ExpandedQuery::Build(*q, model);
    APPROXQL_CHECK(expanded.ok());
    return std::move(expanded).value();
  }

  std::vector<RootCost> Direct(const std::string& text, size_t n = SIZE_MAX) {
    auto expanded = Expand(text);
    DirectEvaluator evaluator(EncodedTree::Of(*tree), *index, tree->labels());
    return evaluator.BestN(expanded, n);
  }

  std::vector<RootCost> Schema(const std::string& text, size_t n = SIZE_MAX,
                               SchemaEvaluator::Options options = {},
                               SchemaEvalStats* stats = nullptr) {
    auto expanded = Expand(text);
    SchemaEvaluator evaluator(*schema, *tree, options);
    auto results = evaluator.BestN(expanded, n);
    if (stats != nullptr) *stats = evaluator.stats();
    return results;
  }

  CostModel model;
  std::unique_ptr<DataTree> tree;
  std::unique_ptr<schema::Schema> schema;
  std::unique_ptr<index::LabelIndex> index;
};

const char* const kQueries[] = {
    R"(cd[title["piano" and "concerto"] and composer["rachmaninov"]])",
    R"(cd[title["piano" and "concerto"]])",
    R"(cd[track[title["vivace"]]])",
    R"(cd[title["piano" and ("concerto" or "sonata")]])",
    R"(cd[composer["rachmaninov"] or performer["ashkenazy"]])",
    R"(cd[title["piano"] and composer])",
    R"(cd[title["piano" and "sonata"]])",
    R"(cd[title["vivace"]])",
    R"(cd[performer])",
    "cd",
    R"(nonexistent[title["x"]])",
};

TEST(SchemaEvalTest, MatchesDirectEvaluationAllResults) {
  Fixture fx(kCatalogXml, PaperCosts());
  for (const char* text : kQueries) {
    EXPECT_EQ(fx.Schema(text), fx.Direct(text)) << text;
  }
}

TEST(SchemaEvalTest, MatchesDirectEvaluationDefaultCosts) {
  Fixture fx(kCatalogXml);
  for (const char* text : kQueries) {
    EXPECT_EQ(fx.Schema(text), fx.Direct(text)) << text;
  }
}

TEST(SchemaEvalTest, BestNPrefixesAgree) {
  Fixture fx(kCatalogXml, PaperCosts());
  for (const char* text : kQueries) {
    auto all_direct = fx.Direct(text);
    for (size_t n : {size_t{1}, size_t{2}, size_t{5}}) {
      auto top = fx.Schema(text, n);
      ASSERT_LE(top.size(), n);
      size_t expect = std::min(n, all_direct.size());
      ASSERT_EQ(top.size(), expect) << text << " n=" << n;
      // Costs must agree entry-by-entry (roots may permute among ties).
      for (size_t i = 0; i < top.size(); ++i) {
        EXPECT_EQ(top[i].cost, all_direct[i].cost) << text << " i=" << i;
      }
    }
  }
}

TEST(SchemaEvalTest, SmallKStillCorrectViaIncrement) {
  Fixture fx(kCatalogXml, PaperCosts());
  SchemaEvaluator::Options options;
  options.initial_k = 1;
  options.delta_k = 1;
  for (const char* text : kQueries) {
    SchemaEvalStats stats;
    auto results = fx.Schema(text, SIZE_MAX, options, &stats);
    EXPECT_EQ(results, fx.Direct(text)) << text;
  }
}

TEST(SchemaEvalTest, TopKQueriesSortedAndValid) {
  Fixture fx(kCatalogXml, PaperCosts());
  auto expanded = fx.Expand(R"(cd[title["piano" and "concerto"]])");
  SchemaEvaluator evaluator(*fx.schema, *fx.tree);
  TopKList queries = evaluator.TopKQueries(expanded, 10);
  ASSERT_FALSE(queries.empty());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(queries[i]->leaf_matched);
    if (i > 0) {
      EXPECT_GE(queries[i]->cost, queries[i - 1]->cost);
    }
  }
  // The cheapest second-level query is the exact match (cost 0) rooted
  // at the cd class.
  EXPECT_EQ(queries[0]->cost, 0);
  EXPECT_EQ(fx.tree->labels().Get(queries[0]->label), "cd");
}

TEST(SchemaEvalTest, TopKListsArePrefixesAcrossK) {
  Fixture fx(kCatalogXml, PaperCosts());
  auto expanded = fx.Expand(R"(cd[title["piano" and "concerto"]])");
  SchemaEvaluator evaluator(*fx.schema, *fx.tree);
  TopKList small = evaluator.TopKQueries(expanded, 3);
  TopKList large = evaluator.TopKQueries(expanded, 12);
  ASSERT_LE(small.size(), large.size());
  for (size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(SchemaEvaluator::Signature(*small[i]),
              SchemaEvaluator::Signature(*large[i]))
        << "top-k list for k must be a prefix of the list for k' > k";
    EXPECT_EQ(small[i]->cost, large[i]->cost);
  }
}

TEST(SchemaEvalTest, SecondaryFindsExactInstances) {
  Fixture fx(kCatalogXml, PaperCosts());
  auto expanded = fx.Expand(R"(cd[title["piano" and "concerto"]])");
  SchemaEvaluator evaluator(*fx.schema, *fx.tree);
  TopKList queries = evaluator.TopKQueries(expanded, 1);
  ASSERT_EQ(queries.size(), 1u);
  index::Posting roots = evaluator.ExecuteSecondary(queries[0]);
  // Exactly one cd has a direct title with both words.
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(fx.tree->label(roots[0]), "cd");
}

TEST(SchemaEvalTest, IncrementalGrowsKWhenResultsMissing) {
  // The first skeletons may produce no data results ("the last
  // proposition is an implication", Section 7.1): classes share a parent
  // in the schema while no instances co-occur. Force that situation.
  constexpr std::string_view xml =
      "<lib>"
      "<doc><a>x</a></doc>"
      "<doc><b>y</b></doc>"
      "</lib>";
  Fixture fx(xml);
  // Schema has doc/a and doc/b under one doc class, but no single doc
  // instance has both.
  auto results = fx.Schema(R"(doc[a["x"] and b["y"]])");
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(fx.Direct(R"(doc[a["x"] and b["y"]])"), results);
}

TEST(SchemaEvalTest, SignatureCanonicalizesChildOrder) {
  SkeletonEntry leaf_a;
  leaf_a.pre = 5;
  leaf_a.label = 2;
  SkeletonEntry leaf_b;
  leaf_b.pre = 7;
  leaf_b.label = 3;
  SkeletonEntry parent1;
  parent1.pre = 1;
  parent1.label = 1;
  parent1.pointers = {std::make_shared<const SkeletonEntry>(leaf_a),
                      std::make_shared<const SkeletonEntry>(leaf_b)};
  SkeletonEntry parent2 = parent1;
  std::swap(parent2.pointers[0], parent2.pointers[1]);
  EXPECT_EQ(SchemaEvaluator::Signature(parent1),
            SchemaEvaluator::Signature(parent2));
  // Different structure -> different signature.
  SkeletonEntry other = parent1;
  other.pointers.pop_back();
  EXPECT_NE(SchemaEvaluator::Signature(parent1),
            SchemaEvaluator::Signature(other));
}

TEST(SchemaEvalTest, RootRenamingCrossesClasses) {
  // Renaming the query root shifts the search space across schema
  // classes (paper: "the renaming of the query root from cd to mc
  // shifts the search space from CDs to MCs").
  Fixture fx(kCatalogXml, PaperCosts());
  auto expanded = fx.Expand(R"(cd[title["piano"]])");
  SchemaEvaluator evaluator(*fx.schema, *fx.tree);
  TopKList queries = evaluator.TopKQueries(expanded, 20);
  bool saw_cd = false;
  bool saw_mc = false;
  for (const auto& skeleton : queries) {
    std::string_view label = fx.tree->labels().Get(skeleton->label);
    saw_cd |= label == "cd";
    saw_mc |= label == "mc";
  }
  EXPECT_TRUE(saw_cd);
  EXPECT_TRUE(saw_mc);
}

TEST(SchemaEvalTest, SharedTextClassDistinguishesWords) {
  // "piano" and "vivace" live in different classes, but "piano" and
  // "concerto" share one; the secondary index must still separate the
  // words via its (class, label) keys.
  Fixture fx(kCatalogXml, CostModel());
  auto expanded = fx.Expand(R"(cd[title["concerto"]])");
  SchemaEvaluator evaluator(*fx.schema, *fx.tree);
  TopKList queries = evaluator.TopKQueries(expanded, 5);
  ASSERT_FALSE(queries.empty());
  index::Posting roots = evaluator.ExecuteSecondary(queries[0]);
  ASSERT_EQ(roots.size(), 1u) << "only cd1's title contains 'concerto'";
  // Same class path, different word: no false sharing.
  auto expanded2 = fx.Expand(R"(cd[title["nonexistentword"]])");
  SchemaEvaluator evaluator2(*fx.schema, *fx.tree);
  EXPECT_TRUE(evaluator2.TopKQueries(expanded2, 5).empty());
}

TEST(SchemaEvalTest, DescribeSkeletonShowsRenamedLabels) {
  Fixture fx(kCatalogXml, PaperCosts());
  auto expanded = fx.Expand(R"(cd[title["piano" and "sonata"]])");
  SchemaEvaluator evaluator(*fx.schema, *fx.tree);
  TopKList queries = evaluator.TopKQueries(expanded, 10);
  ASSERT_FALSE(queries.empty());
  // The only match renames the root to mc (see direct-eval tests); the
  // description must show the mc class path.
  std::string description = evaluator.DescribeSkeleton(*queries[0]);
  EXPECT_NE(description.find("mc@"), std::string::npos) << description;
  EXPECT_NE(description.find("piano"), std::string::npos);
  EXPECT_NE(description.find("sonata"), std::string::npos);
}

TEST(SchemaEvalTest, StatsReportWork) {
  Fixture fx(kCatalogXml, PaperCosts());
  SchemaEvalStats stats;
  SchemaEvaluator::Options options;
  options.initial_k = 2;
  options.delta_k = 2;
  fx.Schema(R"(cd[title["piano"]])", SIZE_MAX, options, &stats);
  EXPECT_GE(stats.rounds, 1u);
  EXPECT_GT(stats.entries_created, 0u);
  EXPECT_GT(stats.second_level_executed, 0u);
}

TEST(SchemaEvalTest, ResultStreamCountsRoundsLikeBestN) {
  Fixture fx(kCatalogXml, PaperCosts());
  SchemaEvaluator::Options options;
  options.initial_k = 1;
  options.delta_k = 1;
  options.growth = 1.0;
  const std::string text = R"(cd[title["piano"]])";
  SchemaEvalStats batch;
  const std::vector<RootCost> all = fx.Schema(text, SIZE_MAX, options, &batch);

  query::ExpandedQuery expanded = fx.Expand(text);
  ResultStream stream(*fx.schema, *fx.tree, &expanded, options);
  size_t drained = 0;
  while (stream.Next().has_value()) ++drained;
  EXPECT_EQ(drained, all.size());
  // Draining the stream runs the same rounds as BestN over all results.
  EXPECT_GE(stream.stats().rounds, 2u);
  EXPECT_EQ(stream.stats().rounds, batch.rounds);
  EXPECT_EQ(stream.stats().final_k, batch.final_k);
  EXPECT_GE(stream.stats().final_k, 2u);
}

}  // namespace
}  // namespace approxql::engine
