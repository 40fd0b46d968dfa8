#include "service/query_service.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <future>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gen/query_generator.h"
#include "gen/xml_generator.h"
#include "ingest/mutable_corpus.h"
#include "service/thread_pool.h"

namespace approxql::service {
namespace {

using engine::Database;
using engine::ExecOptions;
using engine::QueryAnswer;
using engine::Strategy;

// --- ThreadPool ------------------------------------------------------------

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool({.num_threads = 4, .queue_capacity = 1024});
  std::atomic<int> sum{0};
  std::latch ran(100);
  for (int i = 1; i <= 100; ++i) {
    ASSERT_TRUE(pool.TrySubmit([&sum, &ran, i] {
      sum.fetch_add(i, std::memory_order_relaxed);
      ran.count_down();
    }));
  }
  ran.wait();  // Shutdown abandons whatever is still queued
  pool.Shutdown();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPoolTest, RejectsWhenQueueFull) {
  ThreadPool pool({.num_threads = 1, .queue_capacity = 2});
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::promise<void> started;
  // Occupy the only worker, then fill the queue.
  ASSERT_TRUE(pool.TrySubmit([&started, gate] {
    started.set_value();
    gate.wait();
  }));
  started.get_future().wait();
  ASSERT_TRUE(pool.TrySubmit([gate] { gate.wait(); }));
  ASSERT_TRUE(pool.TrySubmit([gate] { gate.wait(); }));
  EXPECT_EQ(pool.QueueDepth(), 2u);
  EXPECT_FALSE(pool.TrySubmit([] {}));  // bounded: reject, don't buffer
  release.set_value();
  pool.Shutdown();  // abandons whatever of the two is still queued
  EXPECT_EQ(pool.QueueDepth(), 0u);
}

TEST(ThreadPoolTest, ShutdownStopsAdmission) {
  ThreadPool pool({.num_threads = 1, .queue_capacity = 8});
  pool.Shutdown();
  EXPECT_FALSE(pool.TrySubmit([] {}));
}

// --- QueryService ----------------------------------------------------------

std::vector<std::string> CatalogDocs() {
  return {
      "<catalog><cd><title>piano concerto</title>"
      "<composer>rachmaninov</composer></cd></catalog>",
      "<catalog><cd><title>goldberg variations</title>"
      "<composer>bach</composer></cd></catalog>",
  };
}

cost::CostModel CatalogModel() {
  cost::CostModel model;
  model.SetRenameCost(NodeType::kText, "concerto", "variations", 3);
  model.SetDeleteCost(NodeType::kText, "piano", 5);
  return model;
}

Database MakeDb() {
  auto db = Database::BuildFromXml(CatalogDocs(), CatalogModel());
  APPROXQL_CHECK(db.ok()) << db.status();
  return std::move(db).value();
}

constexpr char kQuery[] = R"(cd[title["piano" and "concerto"]])";

TEST(QueryServiceTest, SubmitMatchesDirectDatabaseExecution) {
  Database db = MakeDb();
  QueryService service(db, ServiceOptions{.num_threads = 2});
  QueryRequest request;
  request.query_text = kQuery;
  request.exec.n = SIZE_MAX;
  QueryResponse response = service.Submit(request).get();
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_FALSE(response.truncated);
  EXPECT_FALSE(response.cache_hit);

  ExecOptions exec;
  exec.n = SIZE_MAX;
  auto expected = db.Execute(kQuery, exec);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(response.answers.size(), expected->size());
  for (size_t i = 0; i < expected->size(); ++i) {
    EXPECT_EQ(response.answers[i].root, (*expected)[i].root);
    EXPECT_EQ(response.answers[i].cost, (*expected)[i].cost);
  }
}

TEST(QueryServiceTest, SecondIdenticalRequestHitsCache) {
  Database db = MakeDb();
  QueryService service(db, ServiceOptions{.num_threads = 2});
  QueryRequest request;
  request.query_text = kQuery;
  QueryResponse first = service.Submit(request).get();
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.cache_hit);
  // Normalization: extra whitespace must map onto the same cache entry.
  QueryRequest spaced;
  spaced.query_text = R"(cd[ title [ "piano"   and "concerto" ] ])";
  QueryResponse second = service.Submit(spaced).get();
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit);
  ASSERT_EQ(second.answers.size(), first.answers.size());
  for (size_t i = 0; i < first.answers.size(); ++i) {
    EXPECT_EQ(second.answers[i].root, first.answers[i].root);
    EXPECT_EQ(second.answers[i].cost, first.answers[i].cost);
  }
  QueryService::Snapshot snapshot = service.GetSnapshot();
  EXPECT_EQ(snapshot.cache.hits, 1u);
  EXPECT_EQ(snapshot.cache.misses, 1u);
}

TEST(QueryServiceTest, BypassCacheSkipsLookupAndInsert) {
  Database db = MakeDb();
  QueryService service(db, ServiceOptions{.num_threads = 1});
  QueryRequest bypass;
  bypass.query_text = kQuery;
  bypass.bypass_cache = true;
  EXPECT_FALSE(service.ExecuteNow(bypass).cache_hit);
  EXPECT_FALSE(service.ExecuteNow(bypass).cache_hit);
  // Neither run filled the cache: a caching request still misses.
  EXPECT_EQ(service.GetSnapshot().cache.size, 0u);
  QueryRequest cached = bypass;
  cached.bypass_cache = false;
  EXPECT_FALSE(service.ExecuteNow(cached).cache_hit);
  ASSERT_EQ(service.GetSnapshot().cache.size, 1u);
  // And with the entry present, a bypassing request does not read it.
  EXPECT_FALSE(service.ExecuteNow(bypass).cache_hit);
  QueryService::Snapshot snapshot = service.GetSnapshot();
  EXPECT_EQ(snapshot.cache.hits, 0u);
  EXPECT_EQ(snapshot.cache.misses, 1u);
  EXPECT_NE(service.DumpMetrics().find("cache_misses 1\n"), std::string::npos);
}

TEST(QueryServiceTest, DisabledCacheCountsNoHitsOrMisses) {
  Database db = MakeDb();
  QueryService service(db,
                       ServiceOptions{.num_threads = 1, .cache_capacity = 0});
  QueryRequest request;
  request.query_text = kQuery;
  for (int i = 0; i < 3; ++i) {
    QueryResponse response = service.ExecuteNow(request);
    ASSERT_TRUE(response.status.ok()) << response.status;
    EXPECT_FALSE(response.cache_hit);
  }
  // The service counters and the cache's own stats agree: a disabled
  // cache is never consulted, so nothing counts as a miss.
  QueryService::Snapshot snapshot = service.GetSnapshot();
  EXPECT_EQ(snapshot.completed, 3u);
  EXPECT_EQ(snapshot.cache.hits, 0u);
  EXPECT_EQ(snapshot.cache.misses, 0u);
  std::string dump = service.DumpMetrics();
  for (const char* key : {"cache_hits 0\n", "cache_misses 0\n",
                          "cache_hit_rate 0.0000\n", "cache_capacity 0\n"}) {
    EXPECT_NE(dump.find(key), std::string::npos)
        << "missing `" << key << "` in:\n"
        << dump;
  }
}

TEST(QueryServiceTest, MutableCorpusNeverServesAcrossGenerations) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("approxql_query_service_test_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  {
    ingest::MutableCorpus::Options options;
    options.data_dir = dir;
    options.num_shards = 2;
    options.model = CatalogModel();
    auto corpus = ingest::MutableCorpus::Open(std::move(options));
    ASSERT_TRUE(corpus.ok()) << corpus.status();
    for (const std::string& xml : CatalogDocs()) {
      ASSERT_TRUE((*corpus)->AddDocument(xml).ok());
    }
    QueryService service(**corpus, ServiceOptions{.num_threads = 1});
    QueryRequest request;
    request.query_text = kQuery;
    request.exec.n = SIZE_MAX;

    QueryResponse before = service.ExecuteNow(request);
    ASSERT_TRUE(before.status.ok()) << before.status;
    EXPECT_FALSE(before.cache_hit);
    QueryResponse warm = service.ExecuteNow(request);
    EXPECT_TRUE(warm.cache_hit);
    EXPECT_EQ(warm.backend_epoch, before.backend_epoch);

    // A new generation: the cached answer list is for the old one.
    auto added = (*corpus)->AddDocument(
        "<catalog><cd><title>piano concerto</title></cd></catalog>");
    ASSERT_TRUE(added.ok()) << added.status();
    QueryResponse after = service.ExecuteNow(request);
    ASSERT_TRUE(after.status.ok()) << after.status;
    EXPECT_FALSE(after.cache_hit);
    EXPECT_EQ(after.backend_epoch, added->epoch);
    EXPECT_GT(after.answers.size(), before.answers.size());
    // The new generation caches under its own key.
    QueryResponse rewarm = service.ExecuteNow(request);
    EXPECT_TRUE(rewarm.cache_hit);
    EXPECT_EQ(rewarm.backend_epoch, added->epoch);
    EXPECT_EQ(rewarm.answers.size(), after.answers.size());
  }
  std::filesystem::remove_all(dir);
}

TEST(QueryServiceTest, QueueFullRejectsWithResourceExhausted) {
  Database db = MakeDb();
  // Zero queue capacity: every Submit is rejected up front, which makes
  // the overload path deterministic.
  QueryService service(
      db, ServiceOptions{.num_threads = 1, .queue_capacity = 0});
  QueryRequest request;
  request.query_text = kQuery;
  QueryResponse response = service.Submit(request).get();
  EXPECT_TRUE(response.status.IsResourceExhausted()) << response.status;
  EXPECT_TRUE(response.answers.empty());
  QueryService::Snapshot snapshot = service.GetSnapshot();
  EXPECT_EQ(snapshot.rejected, 1u);
  EXPECT_EQ(snapshot.submitted, 1u);
  // ExecuteNow bypasses admission and still works under a full queue.
  EXPECT_TRUE(service.ExecuteNow(request).status.ok());
}

TEST(QueryServiceTest, ExpiredDeadlineFailsBeforeExecution) {
  Database db = MakeDb();
  QueryService service(db, ServiceOptions{.num_threads = 1});
  QueryRequest request;
  request.query_text = kQuery;
  request.deadline = std::chrono::milliseconds(-1);  // already expired
  QueryResponse response = service.Submit(request).get();
  EXPECT_TRUE(response.status.IsDeadlineExceeded()) << response.status;
  EXPECT_EQ(service.GetSnapshot().deadline_exceeded, 1u);
}

TEST(QueryServiceTest, CancelledSchemaRunReturnsTruncated) {
  Database db = MakeDb();
  QueryService service(db, ServiceOptions{.num_threads = 1});
  QueryRequest request;
  request.query_text = kQuery;
  // A user-supplied cancellation hook (no deadline) fires immediately:
  // the run completes OK but flags truncation, and the partial answer
  // must not be cached.
  request.exec.schema.cancelled = [] { return true; };
  QueryResponse response = service.ExecuteNow(request);
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_TRUE(response.truncated);
  EXPECT_EQ(service.GetSnapshot().truncated, 1u);
  EXPECT_EQ(service.GetSnapshot().cache.size, 0u);

  QueryRequest clean;
  clean.query_text = kQuery;
  QueryResponse full = service.ExecuteNow(clean);
  ASSERT_TRUE(full.status.ok());
  EXPECT_FALSE(full.cache_hit);  // truncated run must not have populated
  EXPECT_FALSE(full.truncated);
  EXPECT_FALSE(full.answers.empty());
}

TEST(QueryServiceTest, PerQueryCostModelsGetDistinctCacheEntries) {
  Database db = MakeDb();
  QueryService service(db, ServiceOptions{.num_threads = 1});
  cost::CostModel expensive;
  expensive.SetRenameCost(NodeType::kText, "concerto", "variations", 3);
  expensive.SetDeleteCost(NodeType::kText, "piano", 50);  // build-time: 5

  QueryRequest base;
  base.query_text = kQuery;
  base.exec.n = SIZE_MAX;
  QueryRequest tweaked = base;
  tweaked.exec.cost_model = &expensive;

  // The build-time tables in a separate object: the precomputed backend
  // fingerprint must equal the one computed on demand.
  const cost::CostModel same = CatalogModel();
  QueryRequest matching = base;
  matching.exec.cost_model = &same;

  QueryResponse base_response = service.ExecuteNow(base);
  QueryResponse matching_response = service.ExecuteNow(matching);
  QueryResponse tweaked_response = service.ExecuteNow(tweaked);
  ASSERT_TRUE(base_response.status.ok());
  ASSERT_TRUE(matching_response.status.ok());
  ASSERT_TRUE(tweaked_response.status.ok());
  EXPECT_FALSE(base_response.cache_hit);
  EXPECT_TRUE(matching_response.cache_hit);  // same content, same entry
  EXPECT_FALSE(tweaked_response.cache_hit);  // different fingerprint
  ASSERT_EQ(base_response.answers.size(), 2u);
  ASSERT_EQ(tweaked_response.answers.size(), 2u);
  EXPECT_NE(base_response.answers[1].cost, tweaked_response.answers[1].cost);
  // Each model now hits its own entry.
  EXPECT_TRUE(service.ExecuteNow(base).cache_hit);
  EXPECT_TRUE(service.ExecuteNow(tweaked).cache_hit);
  EXPECT_EQ(service.GetSnapshot().cache.size, 2u);
}

TEST(QueryServiceTest, InvalidateCacheForcesReexecution) {
  Database db = MakeDb();
  QueryService service(db, ServiceOptions{.num_threads = 1});
  QueryRequest request;
  request.query_text = kQuery;
  service.ExecuteNow(request);
  ASSERT_TRUE(service.ExecuteNow(request).cache_hit);
  service.InvalidateCache();
  EXPECT_FALSE(service.ExecuteNow(request).cache_hit);
}

TEST(QueryServiceTest, ParseErrorCountsAsFailed) {
  Database db = MakeDb();
  QueryService service(db, ServiceOptions{.num_threads = 1});
  QueryRequest request;
  request.query_text = "cd[oops";
  QueryResponse response = service.Submit(request).get();
  EXPECT_TRUE(response.status.IsParseError());
  EXPECT_EQ(service.GetSnapshot().failed, 1u);
}

// Three independent binary "or"s: eight disjuncts once separated.
constexpr std::string_view kOrHeavyPattern =
    "name[(name[term] or term) and (term or term) and (name[term] or term)]";

std::string Canonical(const QueryResponse& response) {
  std::string out;
  for (const QueryAnswer& answer : response.answers) {
    out += std::to_string(answer.root) + ":" + std::to_string(answer.cost) +
           ";";
  }
  return out;
}

TEST(QueryServiceTest, KCappedOrQueriesIdenticalOnRepeatAndConcurrently) {
  // A request is one serial Execute on one worker. Or-heavy schema
  // queries under a small max_k stop at the cap; evaluating them per
  // disjunct instead would cap each disjunct later than the whole query
  // and return different answers. A repeat and a concurrent Submit of
  // each query stop at the same cap with the same answers. Capped runs
  // are counted, not logged.
  gen::XmlGenOptions gen_options;
  gen_options.seed = 20020314;
  gen_options.total_elements = 4000;
  gen_options.vocabulary = 800;
  gen::XmlGenerator generator(gen_options);
  auto tree = generator.GenerateTree(cost::CostModel());
  ASSERT_TRUE(tree.ok()) << tree.status();
  auto built =
      Database::FromDataTree(std::move(tree).value(), cost::CostModel());
  ASSERT_TRUE(built.ok()) << built.status();
  const Database db = std::move(built).value();

  QueryService service(db, ServiceOptions{.num_threads = 4,
                                          .cache_capacity = 0});
  gen::QueryGenOptions query_options;
  query_options.seed = 99;
  query_options.renamings_per_label = 3;
  gen::QueryGenerator queries(db, query_options);
  constexpr size_t kQueries = 12;
  std::vector<gen::GeneratedQuery> generated;
  std::vector<std::string> expected;
  std::vector<bool> expected_capped;
  size_t capped = 0;
  auto make_request = [](const gen::GeneratedQuery& query) {
    QueryRequest request;
    request.query_text = query.text;
    request.exec.strategy = Strategy::kSchema;
    request.exec.n = 10;
    request.exec.cost_model = &query.cost_model;
    request.exec.schema.max_k = 16;
    return request;
  };
  for (size_t i = 0; i < kQueries; ++i) {
    auto query = queries.Generate(kOrHeavyPattern);
    ASSERT_TRUE(query.ok()) << query.status();
    generated.push_back(std::move(query).value());
  }
  for (const gen::GeneratedQuery& query : generated) {
    QueryRequest request = make_request(query);
    engine::SchemaEvalStats first_stats;
    request.exec.schema_stats_out = &first_stats;
    QueryResponse first = service.ExecuteNow(request);
    ASSERT_TRUE(first.status.ok()) << first.status;
    capped += first_stats.k_capped ? 1 : 0;
    expected.push_back(Canonical(first));
    expected_capped.push_back(first_stats.k_capped);

    engine::SchemaEvalStats repeat_stats;
    request.exec.schema_stats_out = &repeat_stats;
    QueryResponse repeat = service.ExecuteNow(request);
    ASSERT_TRUE(repeat.status.ok()) << repeat.status;
    EXPECT_EQ(Canonical(repeat), expected.back()) << query.text;
    EXPECT_EQ(repeat_stats.k_capped, first_stats.k_capped) << query.text;
  }

  std::vector<engine::SchemaEvalStats> submit_stats(kQueries);
  std::vector<std::future<QueryResponse>> futures;
  for (size_t i = 0; i < kQueries; ++i) {
    QueryRequest request = make_request(generated[i]);
    request.exec.schema_stats_out = &submit_stats[i];
    futures.push_back(service.Submit(std::move(request)));
  }
  for (size_t i = 0; i < kQueries; ++i) {
    QueryResponse response = futures[i].get();
    ASSERT_TRUE(response.status.ok()) << response.status;
    EXPECT_EQ(Canonical(response), expected[i]) << generated[i].text;
    EXPECT_EQ(submit_stats[i].k_capped, expected_capped[i])
        << generated[i].text;
  }
  EXPECT_GT(capped, 0u);  // the cap really fired
  const std::string counter = "queries_k_capped " + std::to_string(3 * capped);
  EXPECT_NE(service.DumpMetrics().find(counter + "\n"), std::string::npos)
      << service.DumpMetrics();
}

TEST(QueryServiceTest, DestructionResolvesQueuedFuturesUnavailable) {
  Database db = MakeDb();
  std::future<QueryResponse> running;
  std::future<QueryResponse> queued;
  std::thread releaser;
  {
    QueryService service(
        db, ServiceOptions{.num_threads = 1, .queue_capacity = 8});
    // Park the only worker inside a request via a blocking cancellation
    // hook, then queue a second request behind it.
    std::promise<void> release;
    std::shared_future<void> gate(release.get_future());
    auto started = std::make_shared<std::promise<void>>();
    std::future<void> started_future = started->get_future();
    QueryRequest blocker;
    blocker.query_text = kQuery;
    blocker.exec.schema.cancelled = [gate, started]() mutable {
      if (started != nullptr) {
        started->set_value();
        started.reset();
      }
      gate.wait();
      return false;
    };
    running = service.Submit(blocker);
    started_future.wait();
    QueryRequest waiting;
    waiting.query_text = kQuery;
    queued = service.Submit(waiting);
    // Unblock the worker only once the queued request's future resolves
    // — which abandonment does during ~QueryService. In-flight work is
    // never abandoned, so `running` still completes normally.
    releaser = std::thread([&queued, release = std::move(release)]() mutable {
      queued.wait();
      release.set_value();
    });
  }
  releaser.join();
  QueryResponse abandoned = queued.get();
  EXPECT_TRUE(abandoned.status.IsUnavailable()) << abandoned.status;
  QueryResponse finished = running.get();
  EXPECT_TRUE(finished.status.ok()) << finished.status;
}

TEST(QueryServiceTest, MetricsDumpCoversLifecycle) {
  Database db = MakeDb();
  QueryService service(db, ServiceOptions{.num_threads = 1});
  QueryRequest request;
  request.query_text = kQuery;
  service.ExecuteNow(request);
  service.ExecuteNow(request);
  std::string dump = service.DumpMetrics();
  for (const char* key :
       {"queries_submitted 2", "queries_completed 2", "queries_rejected 0",
        "queries_deadline_exceeded 0", "queue_depth", "queries_running 0",
        "queue_wait_us", "exec_latency_us", "total_latency_us",
        "cache_hits 1", "cache_misses 1", "cache_hit_rate 0.5000",
        "cache_evictions 0"}) {
    EXPECT_NE(dump.find(key), std::string::npos)
        << "missing `" << key << "` in:\n"
        << dump;
  }
}

// --- Backend seam ----------------------------------------------------------

/// A backend whose pins and responses the test controls, so the
/// service's cache policy is pinned without sockets or shards. Each
/// execution answers with a root equal to its own ordinal: a response
/// served from the cache carries the ordinal of the run that filled it.
class FakeBackend final : public Backend {
 public:
  uint32_t fingerprint = 1;
  uint64_t epoch = 7;
  bool is_cacheable = true;
  bool degraded = false;
  bool truncated = false;
  mutable int executions = 0;

  BackendPin Pin() const override { return {fingerprint, epoch, nullptr}; }

  QueryResponse Execute(const BackendPin& pin, const query::Query&,
                        const QueryRequest&, const ExecOptions& exec,
                        std::optional<Clock::time_point>) const override {
    ++executions;
    QueryResponse r;
    r.answers.push_back({static_cast<doc::NodeId>(executions), 0});
    r.degraded = degraded;
    if (truncated) exec.schema_stats_out->cancelled = true;
    r.backend_epoch = pin.epoch;
    return r;
  }

  const cost::CostModel& cost_model() const override { return model_; }
  bool cacheable() const override { return is_cacheable; }
  doc::NodeId DocRootOf(doc::NodeId node) const override { return node; }
  std::string DumpMetrics() const override { return "fake_backend_line 1\n"; }

 private:
  cost::CostModel model_;
};

QueryRequest FakeRequest() {
  QueryRequest request;
  request.query_text = kQuery;
  request.exec.strategy = Strategy::kSchema;
  return request;
}

TEST(QueryServiceTest, NewPinFingerprintMissesTheCache) {
  FakeBackend backend;
  QueryService service(backend, ServiceOptions{.num_threads = 1});
  QueryResponse first = service.ExecuteNow(FakeRequest());
  ASSERT_TRUE(first.status.ok()) << first.status;
  EXPECT_FALSE(first.cache_hit);
  QueryResponse warm = service.ExecuteNow(FakeRequest());
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.answers[0].root, 1u);
  EXPECT_EQ(warm.backend_epoch, 7u);  // a hit is stamped from its pin

  // The backend moved: the old entry must not answer for the new pin.
  backend.fingerprint = 2;
  backend.epoch = 8;
  QueryResponse moved = service.ExecuteNow(FakeRequest());
  EXPECT_FALSE(moved.cache_hit);
  EXPECT_EQ(moved.answers[0].root, 2u);
  EXPECT_EQ(moved.backend_epoch, 8u);
  EXPECT_EQ(backend.executions, 2);

  // Both states keep their own entries.
  backend.fingerprint = 1;
  backend.epoch = 7;
  QueryResponse back = service.ExecuteNow(FakeRequest());
  EXPECT_TRUE(back.cache_hit);
  EXPECT_EQ(back.answers[0].root, 1u);
  EXPECT_EQ(backend.executions, 2);
  EXPECT_EQ(service.GetSnapshot().cache.size, 2u);
}

TEST(QueryServiceTest, DegradedAndTruncatedResponsesAreNeverInserted) {
  FakeBackend backend;
  QueryService service(backend, ServiceOptions{.num_threads = 1});
  backend.degraded = true;
  for (int i = 0; i < 2; ++i) {
    QueryResponse r = service.ExecuteNow(FakeRequest());
    ASSERT_TRUE(r.status.ok()) << r.status;
    EXPECT_TRUE(r.degraded);
    EXPECT_FALSE(r.cache_hit);
  }
  backend.degraded = false;
  backend.truncated = true;
  for (int i = 0; i < 2; ++i) {
    QueryResponse r = service.ExecuteNow(FakeRequest());
    ASSERT_TRUE(r.status.ok()) << r.status;
    EXPECT_TRUE(r.truncated);
    EXPECT_FALSE(r.cache_hit);
  }
  EXPECT_EQ(backend.executions, 4);
  QueryService::Snapshot snapshot = service.GetSnapshot();
  EXPECT_EQ(snapshot.cache.hits, 0u);
  EXPECT_EQ(snapshot.cache.size, 0u);
  EXPECT_EQ(snapshot.truncated, 2u);

  // A complete answer list from the same backend is cached as usual.
  backend.truncated = false;
  EXPECT_FALSE(service.ExecuteNow(FakeRequest()).cache_hit);
  EXPECT_TRUE(service.ExecuteNow(FakeRequest()).cache_hit);
  EXPECT_EQ(backend.executions, 5);
}

TEST(QueryServiceTest, UncacheableBackendNeverConsultsTheCache) {
  FakeBackend backend;
  backend.is_cacheable = false;
  QueryService service(backend, ServiceOptions{.num_threads = 1});
  for (int i = 0; i < 3; ++i) {
    QueryResponse r = service.ExecuteNow(FakeRequest());
    ASSERT_TRUE(r.status.ok()) << r.status;
    EXPECT_FALSE(r.cache_hit);
  }
  EXPECT_EQ(backend.executions, 3);
  QueryService::Snapshot snapshot = service.GetSnapshot();
  EXPECT_EQ(snapshot.cache.hits, 0u);
  EXPECT_EQ(snapshot.cache.misses, 0u);
  EXPECT_EQ(snapshot.cache.size, 0u);
  const std::string dump = service.DumpMetrics();
  for (const char* key : {"cache_hits 0", "cache_misses 0",
                          "fake_backend_line 1"}) {
    EXPECT_NE(dump.find(key), std::string::npos) << key << " in:\n" << dump;
  }
}

}  // namespace
}  // namespace approxql::service
