// Ablation A3: micro-benchmarks of the building blocks — list algebra
// throughput (join/intersect/union over synthetic postings), XML parse
// throughput, Zipf sampling, index construction. These are the costs
// the paper's O(s*l) analysis is made of. Plus one serving-layer guard: the per-request
// overhead QueryService adds around a cheap query under a large cost
// model.
#include <benchmark/benchmark.h>

#include <string>

#include "engine/database.h"
#include "engine/list_ops.h"
#include "gen/xml_generator.h"
#include "index/label_index.h"
#include "schema/schema.h"
#include "service/query_service.h"
#include "util/random.h"
#include "util/zipf.h"
#include "xml/xml_dom.h"

namespace approxql {
namespace {

// --- list algebra ----------------------------------------------------------

/// Builds a synthetic encoded "tree": a forest of chains so that
/// ancestor/descendant relations exist between the two lists.
struct SyntheticLists {
  std::vector<doc::DataNode> nodes;
  engine::EntryList ancestors;
  engine::EntryList descendants;
};

SyntheticLists MakeLists(size_t count) {
  SyntheticLists out;
  util::Rng rng(99);
  out.nodes.resize(count * 3);
  // Groups of three nodes: ancestor -> middle -> descendant.
  for (size_t g = 0; g < count; ++g) {
    doc::NodeId base = static_cast<doc::NodeId>(3 * g);
    for (int i = 0; i < 3; ++i) {
      auto& n = out.nodes[base + static_cast<doc::NodeId>(i)];
      n.parent = i == 0 ? doc::kInvalidNode : base + static_cast<doc::NodeId>(i) - 1;
      n.bound = base + 2;
      n.inscost = 1;
      n.pathcost = i;
    }
    engine::Entry ancestor;
    ancestor.pre = base;
    ancestor.bound = base + 2;
    ancestor.pathcost = 0;
    ancestor.inscost = 1;
    ancestor.cost_any = 0;
    out.ancestors.push_back(ancestor);
    engine::Entry descendant;
    descendant.pre = base + 2;
    descendant.bound = base + 2;
    descendant.pathcost = 2;
    descendant.inscost = 0;
    descendant.cost_any = static_cast<cost::Cost>(rng.Uniform(5));
    descendant.cost_leaf = descendant.cost_any;
    out.descendants.push_back(descendant);
  }
  return out;
}

void BM_Join(benchmark::State& state) {
  SyntheticLists lists = MakeLists(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine::Join(lists.ancestors, lists.descendants, 0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Join)->Range(1 << 10, 1 << 18);

void BM_OuterJoin(benchmark::State& state) {
  SyntheticLists lists = MakeLists(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine::OuterJoin(lists.ancestors, lists.descendants, 0, 5));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OuterJoin)->Range(1 << 10, 1 << 18);

void BM_Intersect(benchmark::State& state) {
  SyntheticLists lists = MakeLists(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine::Intersect(lists.ancestors, lists.ancestors, 0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Intersect)->Range(1 << 10, 1 << 18);

void BM_Union(benchmark::State& state) {
  SyntheticLists lists = MakeLists(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine::Union(lists.ancestors, lists.descendants, 0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Union)->Range(1 << 10, 1 << 18);

// --- XML & generators ------------------------------------------------------

void BM_XmlParse(benchmark::State& state) {
  gen::XmlGenOptions options;
  options.seed = 5;
  options.elements_per_document = 500;
  options.total_elements = 500;
  gen::XmlGenerator generator(options);
  std::string xml = generator.GenerateDocumentXml();
  for (auto _ : state) {
    auto doc = xml::ParseXmlDocument(xml);
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(xml.size()));
}
BENCHMARK(BM_XmlParse);

void BM_ZipfSample(benchmark::State& state) {
  util::ZipfDistribution zipf(100000, 1.0);
  util::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample);

void BM_IndexBuild(benchmark::State& state) {
  gen::XmlGenOptions options;
  options.seed = 9;
  options.total_elements = static_cast<size_t>(state.range(0));
  gen::XmlGenerator generator(options);
  auto tree = generator.GenerateTree(cost::CostModel());
  APPROXQL_CHECK(tree.ok());
  for (auto _ : state) {
    benchmark::DoNotOptimize(index::LabelIndex::BuildFromTree(*tree));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tree->size()));
}
BENCHMARK(BM_IndexBuild)->Arg(10000)->Arg(50000);

void BM_SchemaBuild(benchmark::State& state) {
  gen::XmlGenOptions options;
  options.seed = 9;
  options.total_elements = static_cast<size_t>(state.range(0));
  gen::XmlGenerator generator(options);
  auto tree = generator.GenerateTree(cost::CostModel());
  APPROXQL_CHECK(tree.ok());
  cost::CostModel model;
  for (auto _ : state) {
    benchmark::DoNotOptimize(schema::Schema::Build(&*tree, model));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tree->size()));
}
BENCHMARK(BM_SchemaBuild)->Arg(10000)->Arg(50000);

// --- serving layer ---------------------------------------------------------

/// QueryService::ExecuteNow of one cheap direct query over a small
/// database whose cost model has ~6k delete entries (one per term, as in
/// a deletable-vocabulary deployment). Arg = cache capacity: 0 never
/// consults the cache; 256 cycles 1024 distinct queries, so every
/// request misses and inserts. Neither should pay for serializing the
/// backend model — per-request work here is parse, evaluate, and (at
/// 256) one key, lookup and insert.
void BM_ServiceExecuteNowLargeModel(benchmark::State& state) {
  gen::XmlGenOptions options;
  options.seed = 11;
  options.total_elements = 2000;
  options.vocabulary = 6000;
  gen::XmlGenerator generator(options);
  cost::CostModel model;
  for (size_t i = 0; i < options.element_names; ++i) {
    model.SetDeleteCost(NodeType::kStruct, generator.ElementName(i),
                        static_cast<cost::Cost>(2 + i % 9));
  }
  for (size_t i = 0; i < options.vocabulary; ++i) {
    model.SetDeleteCost(NodeType::kText, generator.Term(i),
                        static_cast<cost::Cost>(2 + i % 9));
  }
  auto tree = generator.GenerateTree(model);
  APPROXQL_CHECK(tree.ok());
  auto db = engine::Database::FromDataTree(std::move(tree).value(),
                                           std::move(model));
  APPROXQL_CHECK(db.ok());

  std::vector<std::string> queries;
  for (size_t i = 0; i < 1024; ++i) {
    queries.push_back(generator.ElementName(i % options.element_names) +
                      "[\"" + generator.Term(i) + "\"]");
  }
  service::QueryService service(
      *db, service::ServiceOptions{
               .num_threads = 1,
               .cache_capacity = static_cast<size_t>(state.range(0))});
  size_t next = 0;
  for (auto _ : state) {
    service::QueryRequest request;
    request.query_text = queries[next++ % queries.size()];
    request.exec.strategy = engine::Strategy::kDirect;
    request.exec.n = 10;
    service::QueryResponse response = service.ExecuteNow(std::move(request));
    APPROXQL_CHECK(response.status.ok()) << response.status;
    APPROXQL_CHECK(!response.cache_hit);
    benchmark::DoNotOptimize(response.answers.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServiceExecuteNowLargeModel)->Arg(0)->Arg(256);

}  // namespace
}  // namespace approxql

BENCHMARK_MAIN();
