// The distributed tier's contract, proved over real TCP loopback:
//
//   1. EQUIVALENCE — remote scatter-gather through ShardRouter answers
//      every query bit-identically to the single in-process Database
//      (and therefore to in-process ShardedDatabase, whose own
//      equivalence tests/shard/ already pins), at 1/2/4 shard servers,
//      both strategies, with the shared cost bound riding the wire.
//
//   2. DEGRADATION — with one of four shard servers down, every answer
//      is explicitly degraded with the correct missing_shards, is
//      NEVER cached (a repeat re-asks the cluster), and strict mode
//      fails fast with kUnavailable. All shards down is kUnavailable
//      in every mode.
//
//   3. HEALTH — query/ping failures walk UP -> SUSPECT -> DOWN; a DOWN
//      shard is skipped without burning its timeout; a restarted
//      server is revived by the health probe.
//
//   4. TOPOLOGY — a shard server stamped with a different layout
//      fingerprint is rejected (kInternal), never silently
//      mistranslated.
#include "dist/shard_router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "gen/query_generator.h"
#include "gen/xml_generator.h"
#include "net/server.h"
#include "service/query_service.h"
#include "shard/layout_manifest.h"
#include "shard/sharded_database.h"

namespace approxql::dist {
namespace {

using engine::Database;
using engine::ExecOptions;
using engine::QueryAnswer;
using engine::Strategy;
using net::Server;
using net::ServerOptions;
using service::QueryRequest;
using service::QueryResponse;
using service::QueryService;
using service::ServiceOptions;
using shard::ShardedDatabase;

Database MakeSyntheticDb() {
  gen::XmlGenOptions options;
  options.seed = 20020314;
  options.total_elements = 3000;
  options.vocabulary = 600;
  gen::XmlGenerator generator(options);
  cost::CostModel model;
  auto tree = generator.GenerateTree(model);
  APPROXQL_CHECK(tree.ok()) << tree.status();
  auto db = Database::FromDataTree(std::move(tree).value(), model);
  APPROXQL_CHECK(db.ok()) << db.status();
  return std::move(db).value();
}

std::vector<std::string> MakeQueries(const Database& db) {
  gen::QueryGenOptions options;
  options.seed = 4242;
  options.renamings_per_label = 3;
  gen::QueryGenerator generator(db, options);
  std::vector<std::string> queries;
  constexpr std::string_view kPatterns[] = {gen::kPattern1, gen::kPattern2,
                                            gen::kPattern3};
  for (size_t i = 0; i < 8; ++i) {
    auto generated = generator.Generate(kPatterns[i % 3]);
    APPROXQL_CHECK(generated.ok()) << generated.status();
    queries.push_back(std::move(generated->text));
  }
  return queries;
}

std::string Canonical(const std::vector<QueryAnswer>& answers) {
  std::string out;
  for (const auto& answer : answers) {
    out += std::to_string(answer.root) + ":" + std::to_string(answer.cost) +
           ";";
  }
  return out;
}

/// One shard server process-equivalent: its own QueryService over one
/// shard's Database, fronted by a net::Server in shard-serving mode.
struct ShardServer {
  std::unique_ptr<QueryService> service;
  std::unique_ptr<Server> server;

  uint16_t port() const { return server->port(); }
  void Stop() {
    if (server) server->Shutdown(/*drain=*/false);
    server.reset();
    service.reset();
  }
};

ShardServer StartShardServer(const ShardedDatabase& sharded, size_t index,
                             uint16_t port = 0, uint32_t fingerprint = 0) {
  ShardServer s;
  s.service = std::make_unique<QueryService>(sharded.shard(index),
                                             ServiceOptions{.num_threads = 2});
  ServerOptions options;
  options.port = port;
  options.shard.enabled = true;
  options.shard.fingerprint =
      fingerprint != 0 ? fingerprint : sharded.LayoutFingerprint();
  options.shard.shard_index = static_cast<uint32_t>(index);
  s.server =
      std::make_unique<Server>(*s.service, sharded.shard(index), options);
  auto started = s.server->Start();
  APPROXQL_CHECK(started.ok()) << started;
  return s;
}

RouterOptions FastFailOptions(const std::vector<ShardServer>& servers) {
  RouterOptions options;
  for (const ShardServer& s : servers) {
    options.shards.push_back({"127.0.0.1", s.port()});
  }
  options.connect_timeout_ms = 500;
  // Short enough that a dead endpoint (whose requests wait out the
  // attempt deadline — connection-refused leaves them queued for the
  // next connect) fails in test time, long enough for a live TSan-built
  // shard to answer well within one attempt.
  options.attempt_deadline_ms = 400;
  options.max_retries = 1;
  options.retry_backoff_ms = 5;
  options.retry_backoff_cap_ms = 20;
  options.health_period_ms = 0;  // deterministic: no background probes
  return options;
}

class DistRouterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database(MakeSyntheticDb());
    queries_ = new std::vector<std::string>(MakeQueries(*db_));
  }
  static void TearDownTestSuite() {
    delete queries_;
    queries_ = nullptr;
    delete db_;
    db_ = nullptr;
  }

  static ShardedDatabase MakeSharded(size_t num_shards) {
    auto sharded =
        ShardedDatabase::Partition(db_->tree(), db_->cost_model(), num_shards);
    APPROXQL_CHECK(sharded.ok()) << sharded.status();
    return std::move(sharded).value();
  }

  static std::vector<ShardServer> StartCluster(const ShardedDatabase& sharded) {
    std::vector<ShardServer> servers;
    for (size_t i = 0; i < sharded.num_shards(); ++i) {
      servers.push_back(StartShardServer(sharded, i));
    }
    return servers;
  }

  static Database* db_;
  static std::vector<std::string>* queries_;
};

Database* DistRouterTest::db_ = nullptr;
std::vector<std::string>* DistRouterTest::queries_ = nullptr;

TEST_F(DistRouterTest, RemoteScatterGatherBitIdenticalToSingleDatabase) {
  for (size_t num_shards : {size_t{1}, size_t{2}, size_t{4}}) {
    ShardedDatabase sharded = MakeSharded(num_shards);
    std::vector<ShardServer> servers = StartCluster(sharded);
    ShardRouter router(sharded, FastFailOptions(servers));
    ASSERT_TRUE(router.Start().ok());
    for (Strategy strategy : {Strategy::kSchema, Strategy::kDirect}) {
      for (const std::string& query : *queries_) {
        ExecOptions exec;
        exec.strategy = strategy;
        exec.n = 10;
        auto expected = db_->Execute(query, exec);
        ASSERT_TRUE(expected.ok()) << expected.status();
        auto routed = router.Execute(query, strategy, 10, /*deadline_ms=*/0);
        ASSERT_TRUE(routed.ok()) << routed.status();
        EXPECT_FALSE(routed->degraded);
        EXPECT_TRUE(routed->missing_shards.empty());
        EXPECT_EQ(Canonical(routed->answers), Canonical(*expected))
            << "shards=" << num_shards << " strategy="
            << (strategy == Strategy::kSchema ? "schema" : "direct")
            << " query=" << query;
      }
    }
    router.Shutdown();
    for (ShardServer& s : servers) s.Stop();
  }
}

TEST_F(DistRouterTest, UnboundedNAndShardHealthyPathMetrics) {
  // n = SIZE_MAX (all answers, no bound sharing) must also match.
  ShardedDatabase sharded = MakeSharded(2);
  std::vector<ShardServer> servers = StartCluster(sharded);
  ShardRouter router(sharded, FastFailOptions(servers));
  ASSERT_TRUE(router.Start().ok());
  ExecOptions exec;
  exec.n = SIZE_MAX;
  auto expected = db_->Execute((*queries_)[0], exec);
  ASSERT_TRUE(expected.ok()) << expected.status();
  auto routed =
      router.Execute((*queries_)[0], Strategy::kSchema, SIZE_MAX, 0);
  ASSERT_TRUE(routed.ok()) << routed.status();
  EXPECT_EQ(Canonical(routed->answers), Canonical(*expected));
  EXPECT_EQ(router.shard_health(0), ShardHealth::kUp);
  EXPECT_EQ(router.shard_health(1), ShardHealth::kUp);
  std::string metrics = router.DumpMetrics();
  EXPECT_NE(metrics.find("dist_queries"), std::string::npos);
  EXPECT_NE(metrics.find("dist_shard_0_health UP"), std::string::npos);
  router.Shutdown();
  for (ShardServer& s : servers) s.Stop();
}

TEST_F(DistRouterTest, ZeroNAnswersEmptyAndShardsKeepServing) {
  // n = 0 asks for no answers. A shard server must not try to publish
  // the n-th answer's cost as a bound when there is no n-th answer.
  ShardedDatabase sharded = MakeSharded(2);
  std::vector<ShardServer> servers = StartCluster(sharded);
  ShardRouter router(sharded, FastFailOptions(servers));
  ASSERT_TRUE(router.Start().ok());
  for (Strategy strategy : {Strategy::kSchema, Strategy::kDirect}) {
    auto routed = router.Execute((*queries_)[0], strategy, /*n=*/0, 2000);
    ASSERT_TRUE(routed.ok()) << routed.status();
    EXPECT_TRUE(routed->answers.empty());
    EXPECT_FALSE(routed->degraded);
  }
  // The same servers still answer a normal query.
  for (Strategy strategy : {Strategy::kSchema, Strategy::kDirect}) {
    ExecOptions exec;
    exec.strategy = strategy;
    exec.n = 10;
    auto expected = db_->Execute((*queries_)[1], exec);
    ASSERT_TRUE(expected.ok()) << expected.status();
    auto routed = router.Execute((*queries_)[1], strategy, 10, 2000);
    ASSERT_TRUE(routed.ok()) << routed.status();
    EXPECT_FALSE(routed->degraded);
    EXPECT_EQ(Canonical(routed->answers), Canonical(*expected));
  }
  router.Shutdown();
  for (ShardServer& s : servers) s.Stop();
}

TEST_F(DistRouterTest, OneShardDownDegradesWithCorrectMissingShards) {
  ShardedDatabase sharded = MakeSharded(4);
  std::vector<ShardServer> servers = StartCluster(sharded);
  constexpr size_t kDead = 2;
  RouterOptions options = FastFailOptions(servers);
  servers[kDead].Stop();

  ShardRouter router(sharded, options);
  ASSERT_TRUE(router.Start().ok());

  // An overall deadline shorter than the attempt deadline ends the
  // scatter while the dead shard's attempt is still out, before epoch
  // reconciliation runs: the live shards' answers must still be
  // translated and merged, exactly as when the dead shard fails first.
  // The query is shard 0's first document's root label, so the live
  // shards answer it.
  const doc::DataTree& tree = db_->tree();
  const std::string label(tree.labels().Get(
      tree.node(sharded.shard_spans(0).front().global_start).label));
  auto bounded =
      router.Execute(label, Strategy::kSchema, 10, /*deadline_ms=*/300);
  ASSERT_TRUE(bounded.ok()) << bounded.status();
  EXPECT_EQ(bounded->missing_shards, std::vector<uint32_t>{kDead});
  auto unbounded = router.Execute(label, Strategy::kSchema, 10, 0);
  ASSERT_TRUE(unbounded.ok()) << unbounded.status();
  ASSERT_FALSE(unbounded->answers.empty());
  EXPECT_EQ(Canonical(bounded->answers), Canonical(unbounded->answers));

  for (const std::string& query : *queries_) {
    auto routed = router.Execute(query, Strategy::kSchema, 10, 0);
    ASSERT_TRUE(routed.ok()) << routed.status();
    EXPECT_TRUE(routed->degraded);
    ASSERT_EQ(routed->missing_shards.size(), 1u);
    EXPECT_EQ(routed->missing_shards[0], kDead);

    // The degraded answer is the merge of the LIVE shards only: every
    // answer it does return matches the full result's entry (a correct
    // subset, not garbage).
    ExecOptions exec;
    exec.n = SIZE_MAX;
    auto full = db_->Execute(query, exec);
    ASSERT_TRUE(full.ok());
    for (const QueryAnswer& answer : routed->answers) {
      bool found = false;
      for (const QueryAnswer& expected : *full) {
        if (expected.root == answer.root && expected.cost == answer.cost) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "degraded answer invented root " << answer.root;
    }
  }
  // After enough consecutive failures the dead shard goes DOWN and is
  // skipped immediately (no timeout burned), still correctly degraded.
  EXPECT_EQ(router.shard_health(kDead), ShardHealth::kDown);
  auto after = router.Execute((*queries_)[0], Strategy::kSchema, 10, 0);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->degraded);
  router.Shutdown();
  for (ShardServer& s : servers) s.Stop();
}

TEST_F(DistRouterTest, DegradedResponsesAreNeverCached) {
  ShardedDatabase sharded = MakeSharded(4);
  std::vector<ShardServer> servers = StartCluster(sharded);
  RouterOptions router_options = FastFailOptions(servers);
  servers[1].Stop();

  ShardRouter router(sharded, router_options);
  ASSERT_TRUE(router.Start().ok());
  ServiceOptions service_options;
  service_options.num_threads = 2;
  service_options.cache_capacity = 64;
  QueryService service(router, service_options);

  QueryRequest first;
  first.query_text = (*queries_)[0];
  QueryResponse r1 = service.ExecuteNow(std::move(first));
  ASSERT_TRUE(r1.status.ok()) << r1.status;
  EXPECT_TRUE(r1.degraded);
  ASSERT_EQ(r1.missing_shards.size(), 1u);
  EXPECT_EQ(r1.missing_shards[0], 1u);

  // The identical query again: a degraded answer must not have been
  // cached, so this re-asks the cluster (and degrades again).
  QueryRequest second;
  second.query_text = (*queries_)[0];
  QueryResponse r2 = service.ExecuteNow(std::move(second));
  ASSERT_TRUE(r2.status.ok()) << r2.status;
  EXPECT_FALSE(r2.cache_hit);
  EXPECT_TRUE(r2.degraded);
  EXPECT_EQ(service.GetSnapshot().cache.hits, 0u);

  // A per-request cost model cannot ride the wire: the routed backend
  // rejects it before any shard is asked, the failure is counted, and
  // nothing is cached.
  const cost::CostModel priced_model;
  for (int i = 0; i < 2; ++i) {
    QueryRequest priced;
    priced.query_text = (*queries_)[0];
    priced.exec.cost_model = &priced_model;
    QueryResponse r = service.ExecuteNow(std::move(priced));
    EXPECT_EQ(r.status.code(), util::StatusCode::kInvalidArgument)
        << r.status;
    EXPECT_FALSE(r.cache_hit);
    EXPECT_TRUE(r.answers.empty());
  }
  EXPECT_EQ(service.GetSnapshot().failed, 2u);
  EXPECT_EQ(service.GetSnapshot().cache.hits, 0u);
  EXPECT_EQ(service.GetSnapshot().cache.size, 0u);
  router.Shutdown();
  for (ShardServer& s : servers) s.Stop();
}

TEST_F(DistRouterTest, StrictModeFailsFastWithUnavailable) {
  ShardedDatabase sharded = MakeSharded(4);
  std::vector<ShardServer> servers = StartCluster(sharded);
  RouterOptions options = FastFailOptions(servers);
  servers[3].Stop();
  options.strict = true;
  ShardRouter router(sharded, options);
  ASSERT_TRUE(router.Start().ok());
  auto routed = router.Execute((*queries_)[0], Strategy::kSchema, 10, 0);
  ASSERT_FALSE(routed.ok());
  EXPECT_TRUE(routed.status().IsUnavailable()) << routed.status();
  router.Shutdown();
  for (ShardServer& s : servers) s.Stop();
}

TEST_F(DistRouterTest, AllShardsDownIsUnavailableInEveryMode) {
  ShardedDatabase sharded = MakeSharded(2);
  std::vector<ShardServer> servers = StartCluster(sharded);
  RouterOptions options = FastFailOptions(servers);
  for (ShardServer& s : servers) s.Stop();

  for (bool strict : {false, true}) {
    options.strict = strict;
    ShardRouter router(sharded, options);
    ASSERT_TRUE(router.Start().ok());
    auto routed = router.Execute((*queries_)[0], Strategy::kSchema, 10, 0);
    ASSERT_FALSE(routed.ok());
    EXPECT_TRUE(routed.status().IsUnavailable()) << routed.status();
    router.Shutdown();
  }
}

TEST_F(DistRouterTest, BadQueryFailsTheQueryNotTheCluster) {
  ShardedDatabase sharded = MakeSharded(2);
  std::vector<ShardServer> servers = StartCluster(sharded);
  ShardRouter router(sharded, FastFailOptions(servers));
  ASSERT_TRUE(router.Start().ok());
  auto routed = router.Execute("][not a query", Strategy::kSchema, 10, 0);
  ASSERT_FALSE(routed.ok());
  // A parse error is the query's own fault: not degraded, not
  // unavailable, and the shards stay healthy.
  EXPECT_FALSE(routed.status().IsUnavailable()) << routed.status();
  EXPECT_EQ(router.shard_health(0), ShardHealth::kUp);
  EXPECT_EQ(router.shard_health(1), ShardHealth::kUp);
  router.Shutdown();
  for (ShardServer& s : servers) s.Stop();
}

TEST_F(DistRouterTest, FingerprintMismatchIsRejectedNotMistranslated) {
  ShardedDatabase sharded = MakeSharded(2);
  std::vector<ShardServer> servers;
  servers.push_back(StartShardServer(sharded, 0));
  // Shard 1 claims a different layout: its local preorders must not be
  // translated through this router's DocSpan table.
  servers.push_back(
      StartShardServer(sharded, 1, /*port=*/0, /*fingerprint=*/0xBAD5EED));

  ShardRouter router(sharded, FastFailOptions(servers));
  ASSERT_TRUE(router.Start().ok());
  auto routed = router.Execute((*queries_)[0], Strategy::kSchema, 10, 0);
  // Non-strict: the mismatched shard is treated as missing (permanent
  // failure, no retry), so the answer degrades rather than lying.
  ASSERT_TRUE(routed.ok()) << routed.status();
  EXPECT_TRUE(routed->degraded);
  ASSERT_EQ(routed->missing_shards.size(), 1u);
  EXPECT_EQ(routed->missing_shards[0], 1u);
  router.Shutdown();
  for (ShardServer& s : servers) s.Stop();
}

TEST_F(DistRouterTest, ManifestOnlyRouterMatchesAndRejectsWrongLayout) {
  // A router host holding only a LayoutManifest (no trees, no postings)
  // must route bit-identically to one holding the full partition — and
  // a manifest describing a DIFFERENT layout pointed at these servers
  // must be rejected per call, never mistranslated.
  ShardedDatabase sharded = MakeSharded(2);
  std::vector<ShardServer> servers = StartCluster(sharded);

  // Round-trip through the serialized form, exactly what
  // `approxql_serve --save-manifest` writes and a router server's
  // `--manifest` reads.
  auto manifest = shard::LayoutManifest::Deserialize(
      sharded.layout().Serialize());
  ASSERT_TRUE(manifest.ok()) << manifest.status();

  {
    ShardRouter router(*manifest, FastFailOptions(servers));
    ASSERT_TRUE(router.Start().ok());
    for (const std::string& query : *queries_) {
      ExecOptions exec;
      exec.n = 10;
      auto expected = db_->Execute(query, exec);
      ASSERT_TRUE(expected.ok()) << expected.status();
      auto routed = router.Execute(query, Strategy::kSchema, 10, 0);
      ASSERT_TRUE(routed.ok()) << routed.status();
      EXPECT_FALSE(routed->degraded);
      EXPECT_EQ(Canonical(routed->answers), Canonical(*expected)) << query;
    }
    // The manifest's spans are the view's epoch-0 slices: nothing is
    // fetched, before or after the queries.
    EXPECT_NE(router.DumpMetrics().find("dist_manifest_fetches 0\n"),
              std::string::npos)
        << router.DumpMetrics();

    // Immutable shard servers only ever answer at epoch 0, so a floor
    // above it can never be met: that shard is missing, never returned.
    auto floored = router.Execute((*queries_)[0], Strategy::kSchema, 10, 0,
                                  /*min_epochs=*/{1});
    ASSERT_TRUE(floored.ok()) << floored.status();
    EXPECT_TRUE(floored->degraded);
    EXPECT_EQ(floored->missing_shards, std::vector<uint32_t>{0});

    // Ingest needs mutable shard servers; these decline it, typed.
    net::WireIngest add;
    add.op = net::WireIngest::Op::kAdd;
    add.xml = "<a>b</a>";
    auto added = router.Ingest(add, /*deadline_ms=*/2000);
    ASSERT_FALSE(added.ok());
    EXPECT_EQ(added.status().code(), util::StatusCode::kUnimplemented)
        << added.status();
    router.Shutdown();
  }

  // Same endpoints, wrong layout: every shard's reply carries the real
  // fingerprint, the manifest claims another, so every slot fails
  // permanently (no retries) and the query is kUnavailable.
  std::vector<std::vector<shard::DocSpan>> spans;
  for (size_t s = 0; s < manifest->num_shards(); ++s) {
    spans.push_back(manifest->shard_spans(s));
  }
  shard::LayoutManifest wrong(manifest->fingerprint() ^ 0xDEADBEEF,
                              manifest->cost_model(), std::move(spans));
  ShardRouter router(wrong, FastFailOptions(servers));
  ASSERT_TRUE(router.Start().ok());
  auto routed = router.Execute((*queries_)[0], Strategy::kSchema, 10, 0);
  ASSERT_FALSE(routed.ok());
  EXPECT_EQ(routed.status().code(), util::StatusCode::kUnavailable)
      << routed.status();
  router.Shutdown();
  for (ShardServer& s : servers) s.Stop();
}

TEST_F(DistRouterTest, AnswerOutsideManifestSpansFailsTheShard) {
  // A shard whose fingerprint matches but whose answer root lies past
  // every span the manifest holds for it (here: the manifest lacks
  // shard 1's last document) must fail that shard. Translating the root
  // anyway would map it onto a neighbouring document's global id.
  ShardedDatabase sharded = MakeSharded(2);
  std::vector<ShardServer> servers = StartCluster(sharded);
  std::vector<std::vector<shard::DocSpan>> spans = {sharded.shard_spans(0),
                                                    sharded.shard_spans(1)};
  const shard::DocSpan dropped = spans[1].back();
  spans[1].pop_back();
  const shard::LayoutManifest truncated(sharded.LayoutFingerprint(),
                                        sharded.cost_model(), std::move(spans));

  // The dropped document's root label as a bare query: its n = all
  // answers include that root.
  const doc::DataTree& tree = db_->tree();
  const std::string query(
      tree.labels().Get(tree.node(dropped.global_start).label));
  ExecOptions exec;
  exec.strategy = Strategy::kDirect;
  exec.n = SIZE_MAX;
  auto all = db_->Execute(query, exec);
  ASSERT_TRUE(all.ok()) << all.status();
  ASSERT_TRUE(std::any_of(all->begin(), all->end(), [&](const QueryAnswer& a) {
    return a.root == dropped.global_start;
  })) << query;

  for (bool strict : {false, true}) {
    RouterOptions options = FastFailOptions(servers);
    options.strict = strict;
    ShardRouter router(truncated, options);
    ASSERT_TRUE(router.Start().ok());
    auto routed = router.Execute(query, Strategy::kDirect, SIZE_MAX, 0);
    if (strict) {
      ASSERT_FALSE(routed.ok());
      EXPECT_EQ(routed.status().code(), util::StatusCode::kUnavailable)
          << routed.status();
    } else {
      ASSERT_TRUE(routed.ok()) << routed.status();
      EXPECT_TRUE(routed->degraded);
      EXPECT_EQ(routed->missing_shards, std::vector<uint32_t>{1});
      for (const QueryAnswer& answer : routed->answers) {
        EXPECT_TRUE(std::any_of(all->begin(), all->end(),
                                [&](const QueryAnswer& expected) {
                                  return expected.root == answer.root &&
                                         expected.cost == answer.cost;
                                }))
            << "root " << answer.root << " cost " << answer.cost
            << " is no answer of the single database";
      }
    }
    router.Shutdown();
  }
  for (ShardServer& s : servers) s.Stop();
}

TEST_F(DistRouterTest, FastDownStopsRetryingMidQuery) {
  // Outcome-driven fast-DOWN: with a generous retry budget against a
  // dead endpoint, the router must NOT relaunch all retries (each
  // burning a full attempt deadline) — the backend flips DOWN at
  // failures_to_down consecutive transport failures and the slot is
  // declared missing during its next backoff instead.
  ShardedDatabase sharded = MakeSharded(2);
  std::vector<ShardServer> servers = StartCluster(sharded);
  RouterOptions options = FastFailOptions(servers);
  options.max_retries = 8;
  options.failures_to_down = 2;
  servers[1].Stop();
  ShardRouter router(sharded, options);
  ASSERT_TRUE(router.Start().ok());
  auto routed = router.Execute((*queries_)[0], Strategy::kSchema, 10, 0);
  ASSERT_TRUE(routed.ok()) << routed.status();
  EXPECT_TRUE(routed->degraded);
  ASSERT_EQ(routed->missing_shards.size(), 1u);
  EXPECT_EQ(routed->missing_shards[0], 1u);
  EXPECT_EQ(router.shard_health(1), ShardHealth::kDown);
  // Attempts stop at the DOWN threshold: the initial launch plus
  // exactly one retry (whose failure is the second consecutive one),
  // not the full max_retries budget.
  EXPECT_EQ(routed->retries, 1u);
  // The live shard's answers still arrive intact.
  ExecOptions exec;
  exec.n = SIZE_MAX;
  auto full = db_->Execute((*queries_)[0], exec);
  ASSERT_TRUE(full.ok());
  for (const QueryAnswer& answer : routed->answers) {
    bool found = false;
    for (const QueryAnswer& expected : *full) {
      if (expected.root == answer.root && expected.cost == answer.cost) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "degraded answer invented root " << answer.root;
  }
  router.Shutdown();
  for (ShardServer& s : servers) s.Stop();
}

TEST_F(DistRouterTest, HealthProbeRevivesARestartedShard) {
  ShardedDatabase sharded = MakeSharded(2);
  std::vector<ShardServer> servers = StartCluster(sharded);
  const uint16_t port1 = servers[1].port();

  RouterOptions options = FastFailOptions(servers);
  options.health_period_ms = 25;
  options.ping_deadline_ms = 200;
  ShardRouter router(sharded, options);
  ASSERT_TRUE(router.Start().ok());

  servers[1].Stop();
  // Health probes alone must walk shard 1 down…
  for (int i = 0; i < 200 && router.shard_health(1) != ShardHealth::kDown;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(router.shard_health(1), ShardHealth::kDown);

  // …and revive it once the server is back on the same port.
  servers[1] = StartShardServer(sharded, 1, port1);
  for (int i = 0; i < 500 && router.shard_health(1) != ShardHealth::kUp;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(router.shard_health(1), ShardHealth::kUp);

  // A revived shard serves full answers again: no degradation.
  auto routed = router.Execute((*queries_)[0], Strategy::kSchema, 10, 0);
  ASSERT_TRUE(routed.ok()) << routed.status();
  EXPECT_FALSE(routed->degraded);
  router.Shutdown();
  for (ShardServer& s : servers) s.Stop();
}

TEST_F(DistRouterTest, WithoutAHealthCheckerTheNextQueryRevivesADownShard) {
  // No health checker means no ping: the only probe a DOWN shard can get
  // is a query's own attempt. Skipping DOWN shards at launch would leave
  // every later query degraded after the shard came back.
  ShardedDatabase sharded = MakeSharded(2);
  std::vector<ShardServer> servers = StartCluster(sharded);
  const uint16_t port1 = servers[1].port();
  RouterOptions options = FastFailOptions(servers);
  ASSERT_EQ(options.health_period_ms, 0);
  // Long enough for the transport's capped reconnect backoff (1 s) to
  // elapse inside the reviving query's first attempt.
  options.attempt_deadline_ms = 3000;
  ShardRouter router(sharded, options);
  ASSERT_TRUE(router.Start().ok());

  servers[1].Stop();
  // Short overall deadlines walk shard 1 down one failed attempt at a
  // time.
  for (int i = 0; i < 20 && router.shard_health(1) != ShardHealth::kDown;
       ++i) {
    (void)router.Execute((*queries_)[0], Strategy::kSchema, 10,
                         /*deadline_ms=*/300);
  }
  ASSERT_EQ(router.shard_health(1), ShardHealth::kDown);

  servers[1] = StartShardServer(sharded, 1, port1);
  auto routed = router.Execute((*queries_)[0], Strategy::kSchema, 10, 0);
  ASSERT_TRUE(routed.ok()) << routed.status();
  EXPECT_FALSE(routed->degraded);
  EXPECT_TRUE(routed->missing_shards.empty());
  EXPECT_EQ(router.shard_health(1), ShardHealth::kUp);
  ExecOptions exec;
  exec.strategy = Strategy::kSchema;
  exec.n = 10;
  auto expected = db_->Execute((*queries_)[0], exec);
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_EQ(Canonical(routed->answers), Canonical(*expected));
  router.Shutdown();
  for (ShardServer& s : servers) s.Stop();
}

}  // namespace
}  // namespace approxql::dist
