// End-to-end manifest-sync equivalence: a live ShardRouter over real
// mutable shard servers (TCP loopback, kManifestDelta subscriptions)
// must serve BIT-IDENTICAL answers to an in-process oracle built from
// exactly the acked documents — while the cluster mutates between and
// during queries. This is the distributed counterpart of the
// mutable-corpus equivalence tests: the moving parts proven here are
// epoch tagging, delta application, fetch-on-stale reconciliation,
// cluster-global id assignment, and read-your-writes floors.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_config.h"
#include "cluster/manifest_view.h"
#include "cost/cost_model.h"
#include "dist/shard_router.h"
#include "engine/database.h"
#include "gen/query_generator.h"
#include "ingest/mutable_corpus.h"
#include "net/server.h"
#include "net/wire.h"
#include "service/query_service.h"
#include "util/random.h"

namespace approxql::cluster {
namespace {

using dist::RouterOptions;
using dist::ShardRouter;
using engine::Database;
using engine::ExecOptions;
using engine::QueryAnswer;
using engine::Strategy;
using ingest::MutableCorpus;
using net::Server;
using net::ServerOptions;
using net::WireIngest;
using service::QueryService;
using service::ServiceOptions;

cost::CostModel TestModel() {
  cost::CostModel model;
  for (int i = 0; i < 8; ++i) {
    model.SetDeleteCost(NodeType::kStruct, "elem" + std::to_string(i),
                        static_cast<cost::Cost>(2 + (i * 3) % 7));
    model.SetDeleteCost(NodeType::kText, "term" + std::to_string(i),
                        static_cast<cost::Cost>(1 + (i * 5) % 6));
  }
  return model;
}

/// Small nested documents over the elem*/term* space, deterministic in
/// the rng — rich enough that generated tree patterns hit approximate
/// matches across documents.
std::string MakeDoc(util::Rng& rng) {
  std::string xml;
  size_t budget = static_cast<size_t>(rng.UniformInt(4, 14));
  std::function<void(size_t)> emit = [&](size_t depth) {
    const std::string label =
        "elem" + std::to_string(rng.UniformInt(0, 7));
    xml += "<" + label + ">";
    while (budget > 0 && rng.UniformInt(0, 2) != 0) {
      --budget;
      if (depth >= 3 || rng.UniformInt(0, 1) == 0) {
        xml += "term" + std::to_string(rng.UniformInt(0, 7)) + " ";
      } else {
        emit(depth + 1);
      }
    }
    xml += "</" + label + ">";
  };
  emit(0);
  return xml;
}

std::string Canonical(const std::vector<QueryAnswer>& answers) {
  std::string out;
  for (const auto& answer : answers) {
    out += std::to_string(answer.root) + ":" + std::to_string(answer.cost) +
           ";";
  }
  return out;
}

/// The value of the counter `name` in a metrics dump; -1 if absent.
int64_t CounterValue(const std::string& dump, const std::string& name) {
  const std::string key = "\n" + name + " ";
  const size_t at = ("\n" + dump).find(key);
  if (at == std::string::npos) return -1;
  return std::stoll(dump.substr(at + key.size() - 1));
}

/// A loopback listening socket nobody serves: connections complete in
/// the kernel's backlog, and no reply ever comes. Returns the fd (or -1)
/// and its port in `port`.
int ListenLoopback(uint16_t* port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 8) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return -1;
  }
  *port = ntohs(addr.sin_port);
  return fd;
}

/// One mutable cluster shard-server process-equivalent: a single-shard
/// MutableCorpus served in shard mode with the static CLUSTER
/// fingerprint (the corpus's own fingerprint is epoch-salted).
struct ClusterNode {
  std::unique_ptr<MutableCorpus> corpus;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<Server> server;

  uint16_t port() const { return server->port(); }
  void Stop() {
    if (server) server->Shutdown(/*drain=*/false);
    server.reset();
    service.reset();
    corpus.reset();
  }
};

class ClusterEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("approxql_cluster_eq_test_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    if (router_) router_->Shutdown();
    router_.reset();
    for (auto& node : nodes_) node.Stop();
    nodes_.clear();
    std::filesystem::remove_all(dir_);
  }

  ClusterNode StartNode(size_t index, size_t cluster_width,
                        uint16_t port = 0) {
    MutableCorpus::Options options;
    options.data_dir = dir_ + "/node" + std::to_string(index);
    options.num_shards = 1;
    options.model = TestModel();
    auto corpus = MutableCorpus::Open(std::move(options));
    EXPECT_TRUE(corpus.ok()) << corpus.status();
    ClusterNode node;
    node.corpus = std::move(corpus).value();
    node.service = std::make_unique<QueryService>(
        *node.corpus, ServiceOptions{.num_threads = 1});
    ServerOptions server_options;
    server_options.port = port;
    server_options.shard.enabled = true;
    server_options.shard.fingerprint =
        ClusterFingerprint(TestModel(), cluster_width);
    server_options.shard.shard_index = static_cast<uint32_t>(index);
    node.server =
        std::make_unique<Server>(*node.service, *node.corpus, server_options);
    EXPECT_TRUE(node.server->Start().ok());
    return node;
  }

  void StartCluster(size_t width, int health_period_ms = 50) {
    for (size_t i = 0; i < width; ++i) {
      nodes_.push_back(StartNode(i, width));
    }
    ClusterConfig config;
    config.model = TestModel();
    config.num_shards = width;
    RouterOptions options;
    for (const auto& node : nodes_) {
      options.shards.push_back({"127.0.0.1", node.port()});
    }
    options.connect_timeout_ms = 500;
    options.attempt_deadline_ms = 2000;
    options.max_retries = 2;
    options.health_period_ms = health_period_ms;
    options.ping_deadline_ms = 500;
    router_ = std::make_unique<ShardRouter>(config, std::move(options));
    ASSERT_TRUE(router_->Start().ok());
    ASSERT_TRUE(router_->live());
  }

  /// Adds one generated document through the router and mirrors it in
  /// the acked oracle inputs. Returns the ack.
  net::WireIngestAck AddOne() {
    WireIngest op;
    op.op = WireIngest::Op::kAdd;
    op.xml = MakeDoc(doc_rng_);
    auto ack = router_->Ingest(op, /*deadline_ms=*/5000);
    EXPECT_TRUE(ack.ok()) << ack.status();
    if (ack.ok()) {
      acked_.push_back(op.xml);
      if (ack->shard_index < floors_.size()) {
        floors_[ack->shard_index] =
            std::max(floors_[ack->shard_index], ack->epoch);
      }
    }
    return ack.ok() ? *ack : net::WireIngestAck{};
  }

  /// The single-node oracle: cluster-global ids are assigned
  /// sequentially in ack order, so a Database built from the acked
  /// documents in that order reproduces the cluster's id space exactly.
  Database Oracle() {
    auto db = Database::BuildFromXml(acked_, TestModel());
    EXPECT_TRUE(db.ok()) << db.status();
    return std::move(db).value();
  }

  std::vector<std::string> MakeQueries(const Database& db, size_t count) {
    gen::QueryGenOptions options;
    options.seed = 7321;
    gen::QueryGenerator generator(db, options);
    std::vector<std::string> queries;
    constexpr std::string_view kPatterns[] = {gen::kPattern1, gen::kPattern2,
                                              gen::kPattern3};
    for (size_t i = 0; i < count; ++i) {
      auto generated = generator.Generate(kPatterns[i % 3]);
      if (generated.ok()) queries.push_back(std::move(generated->text));
    }
    EXPECT_FALSE(queries.empty());
    return queries;
  }

  /// Routed answers (with the accumulated read-your-writes floors) must
  /// be bit-identical to the oracle for every query and both real
  /// strategies.
  void ExpectEquivalent(const Database& oracle,
                        const std::vector<std::string>& queries) {
    for (const std::string& query : queries) {
      for (Strategy strategy : {Strategy::kSchema, Strategy::kDirect}) {
        ExecOptions exec;
        exec.n = 10;
        exec.strategy = strategy;
        auto expected = oracle.Execute(query, exec);
        ASSERT_TRUE(expected.ok()) << expected.status();
        auto routed = router_->Execute(query, strategy, 10,
                                       /*deadline_ms=*/10000, floors_);
        ASSERT_TRUE(routed.ok()) << routed.status();
        EXPECT_FALSE(routed->degraded);
        EXPECT_EQ(Canonical(routed->answers), Canonical(*expected))
            << query << " strategy "
            << (strategy == Strategy::kSchema ? "schema" : "direct");
      }
    }
  }

  std::string dir_;
  util::Rng doc_rng_{991};
  std::vector<ClusterNode> nodes_;
  std::unique_ptr<ShardRouter> router_;
  std::vector<std::string> acked_;
  std::vector<uint64_t> floors_;
};

class ClusterWidthTest : public ClusterEquivalenceTest,
                         public ::testing::WithParamInterface<size_t> {};

TEST_P(ClusterWidthTest, RoutedAnswersBitIdenticalUnderLiveIngest) {
  const size_t width = GetParam();
  StartCluster(width);
  floors_.assign(width, 0);
  // Three ingest rounds; after each, routed answers must equal the
  // acked oracle's — the router's view has to keep up with every
  // publish through deltas alone (no query-path fetch needed, but
  // either path must land on identical bits).
  std::vector<std::string> queries;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 8; ++i) AddOne();
    Database oracle = Oracle();
    if (queries.empty()) queries = MakeQueries(oracle, 6);
    ExpectEquivalent(oracle, queries);
  }
  // The whole run must be failure-clean: a fingerprint mismatch (the
  // epoch-salted corpus fingerprint leaking into the cluster stamp)
  // would surface as a permanent shard failure.
  const std::string dump = router_->DumpMetrics();
  EXPECT_NE(dump.find("dist_shard_failures 0"), std::string::npos) << dump;
  ASSERT_EQ(acked_.size(), 24u);
  // Each acked mutation reaches the router as exactly one delta, however
  // often the router fetched (and so subscribed) on that connection, and
  // the delta chain never gaps.
  EXPECT_NE(dump.find("dist_manifest_deltas " +
                      std::to_string(acked_.size()) + "\n"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("dist_manifest_delta_gaps 0\n"), std::string::npos)
      << dump;
}

INSTANTIATE_TEST_SUITE_P(Widths, ClusterWidthTest,
                         ::testing::Values(1u, 2u, 4u));

TEST_F(ClusterEquivalenceTest, StaleViewReconcilesThroughFetchNotGuessing)
{
  // A remove made directly on a node's corpus is pushed to no one, so
  // the router's slice of that node goes stale; and since the remove
  // shifts every later local id, translating through the stale spans
  // would put answers on the wrong documents. With the health checker
  // off no pong notices the newer epoch either: the query path itself
  // must see it on an answer, fetch the slice, and retranslate.
  StartCluster(2, /*health_period_ms=*/0);
  floors_.assign(2, 0);
  std::vector<net::WireIngestAck> acks;
  for (int i = 0; i < 10; ++i) acks.push_back(AddOne());
  // The oracle replays the acked history into one corpus, as in
  // RemovesTranslateThroughShiftedSlices.
  MutableCorpus::Options oracle_options;
  oracle_options.data_dir = dir_ + "/oracle";
  oracle_options.num_shards = 1;
  oracle_options.model = TestModel();
  auto oracle = MutableCorpus::Open(std::move(oracle_options));
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  for (size_t i = 0; i < acked_.size(); ++i) {
    auto added = (*oracle)->AddDocumentAt(acked_[i], acks[i].doc_root);
    ASSERT_TRUE(added.ok()) << added.status();
  }
  // The first acked document is its shard's first: every later
  // document on that node gets new local ids.
  const net::WireIngestAck& victim = acks[0];
  ASSERT_LT(victim.shard_index, nodes_.size());
  auto removed =
      nodes_[victim.shard_index].corpus->RemoveDocument(victim.doc_root);
  ASSERT_TRUE(removed.ok()) << removed.status();
  ASSERT_TRUE((*oracle)->RemoveDocument(victim.doc_root).ok());
  const int64_t fetches_before =
      CounterValue(router_->DumpMetrics(), "dist_manifest_fetches");

  auto snapshot = (*oracle)->snapshot();
  const auto queries = MakeQueries(Oracle(), 4);
  for (const std::string& query : queries) {
    for (Strategy strategy : {Strategy::kSchema, Strategy::kDirect}) {
      shard::ScatterOptions scatter;
      ExecOptions exec;
      exec.n = 10;
      exec.strategy = strategy;
      auto expected = snapshot->Execute(query, exec, scatter);
      ASSERT_TRUE(expected.ok()) << expected.status();
      auto routed = router_->Execute(query, strategy, 10,
                                     /*deadline_ms=*/10000, floors_);
      ASSERT_TRUE(routed.ok()) << routed.status();
      EXPECT_FALSE(routed->degraded);
      EXPECT_EQ(Canonical(routed->answers), Canonical(*expected)) << query;
    }
  }
  // The queries fetched the slice (nothing else could have), and no
  // answer was failed along the way.
  const std::string dump = router_->DumpMetrics();
  EXPECT_GT(CounterValue(dump, "dist_manifest_fetches"), fetches_before)
      << dump;
  EXPECT_NE(dump.find("dist_shard_failures 0\n"), std::string::npos) << dump;
}

TEST_F(ClusterEquivalenceTest, DeadlineKeepsAnswersSettledWhileAShardHangs) {
  // Shard 0 is a real node whose corpus is populated directly after the
  // router started, so its answer arrives at an epoch the view lacks;
  // shard 1 is a socket nobody serves, so its attempts hang until the
  // overall deadline. Shard 0's answer must be settled (slice fetched,
  // retranslated) while shard 1 still hangs, and survive the deadline:
  // a degraded answer missing shard 1 only.
  nodes_.push_back(StartNode(0, 2));
  uint16_t silent_port = 0;
  const int silent = ListenLoopback(&silent_port);
  ASSERT_GE(silent, 0);
  ClusterConfig config;
  config.model = TestModel();
  config.num_shards = 2;
  RouterOptions options;
  options.shards.push_back({"127.0.0.1", nodes_[0].port()});
  options.shards.push_back({"127.0.0.1", silent_port});
  options.connect_timeout_ms = 500;
  options.attempt_deadline_ms = 2000;
  options.health_period_ms = 0;
  router_ = std::make_unique<ShardRouter>(config, std::move(options));
  ASSERT_TRUE(router_->Start().ok());
  // Let the bootstrap fetch install shard 0's empty slice first, so the
  // documents below land at epochs the view never hears of.
  for (int i = 0; i < 500 && !router_->view()->known(0); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(router_->view()->known(0));
  for (int i = 0; i < 6; ++i) {
    acked_.push_back(MakeDoc(doc_rng_));
    auto added = nodes_[0].corpus->AddDocument(acked_.back());
    ASSERT_TRUE(added.ok()) << added.status();
  }
  ASSERT_LT(router_->view()->epoch(0), nodes_[0].corpus->epoch());

  // The first generated query with answers: an empty answer list needs
  // no slice to translate.
  Database oracle = Oracle();
  ExecOptions exec;
  exec.n = 10;
  exec.strategy = Strategy::kSchema;
  std::string query;
  std::vector<QueryAnswer> expected;
  for (const std::string& candidate : MakeQueries(oracle, 12)) {
    auto answers = oracle.Execute(candidate, exec);
    ASSERT_TRUE(answers.ok()) << answers.status();
    if (!answers->empty()) {
      query = candidate;
      expected = std::move(answers).value();
      break;
    }
  }
  ASSERT_FALSE(expected.empty());
  auto routed = router_->Execute(query, Strategy::kSchema, 10,
                                 /*deadline_ms=*/300);
  ASSERT_TRUE(routed.ok()) << routed.status();
  EXPECT_TRUE(routed->degraded);
  EXPECT_EQ(routed->missing_shards, std::vector<uint32_t>{1});
  EXPECT_EQ(Canonical(routed->answers), Canonical(expected)) << query;
  router_->Shutdown();
  router_.reset();
  ::close(silent);
}

TEST_F(ClusterEquivalenceTest, RemovesTranslateThroughShiftedSlices) {
  StartCluster(2);
  floors_.assign(2, 0);
  std::vector<net::WireIngestAck> acks;
  for (int i = 0; i < 10; ++i) acks.push_back(AddOne());
  // Remove three documents spread across both servers by their GLOBAL
  // roots (live acks carry cluster-global ids). The oracle becomes a
  // single-shard MutableCorpus replaying the surviving history with
  // AddDocumentAt — BuildFromXml cannot represent the permanent id
  // holes a remove leaves behind.
  MutableCorpus::Options oracle_options;
  oracle_options.data_dir = dir_ + "/oracle";
  oracle_options.num_shards = 1;
  oracle_options.model = TestModel();
  auto oracle = MutableCorpus::Open(std::move(oracle_options));
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  for (size_t i = 0; i < acked_.size(); ++i) {
    auto added = (*oracle)->AddDocumentAt(acked_[i], acks[i].doc_root);
    ASSERT_TRUE(added.ok()) << added.status();
  }
  for (size_t victim : {1u, 4u, 7u}) {
    WireIngest remove;
    remove.op = WireIngest::Op::kRemove;
    remove.doc_root = acks[victim].doc_root;
    auto ack = router_->Ingest(remove, 5000);
    ASSERT_TRUE(ack.ok()) << ack.status();
    if (ack->shard_index < floors_.size()) {
      floors_[ack->shard_index] =
          std::max(floors_[ack->shard_index], ack->epoch);
    }
    auto removed = (*oracle)->RemoveDocument(acks[victim].doc_root);
    ASSERT_TRUE(removed.ok()) << removed.status();
  }
  // Removing an id nobody holds: typed NOT_FOUND through the live
  // manifest lookup, not a guess.
  WireIngest missing;
  missing.op = WireIngest::Op::kRemove;
  missing.doc_root = 999999;
  auto not_found = router_->Ingest(missing, 5000);
  ASSERT_FALSE(not_found.ok());
  EXPECT_TRUE(not_found.status().IsNotFound()) << not_found.status();

  auto snapshot = (*oracle)->snapshot();
  const auto queries = MakeQueries(Oracle(), 4);
  for (const std::string& query : queries) {
    for (Strategy strategy : {Strategy::kSchema, Strategy::kDirect}) {
      shard::ScatterOptions scatter;
      ExecOptions exec;
      exec.n = 10;
      exec.strategy = strategy;
      auto expected = snapshot->Execute(query, exec, scatter);
      ASSERT_TRUE(expected.ok()) << expected.status();
      auto routed =
          router_->Execute(query, strategy, 10, /*deadline_ms=*/10000,
                           floors_);
      ASSERT_TRUE(routed.ok()) << routed.status();
      EXPECT_EQ(Canonical(routed->answers), Canonical(*expected)) << query;
    }
  }
}

TEST_F(ClusterEquivalenceTest, MinEpochFloorAboveClusterStateFailsTyped) {
  StartCluster(1);
  floors_.assign(1, 0);
  for (int i = 0; i < 3; ++i) AddOne();
  Database oracle = Oracle();
  const auto queries = MakeQueries(oracle, 1);
  // A floor the cluster can actually satisfy: served, bit-identical.
  ExpectEquivalent(oracle, queries);
  // A floor beyond any published epoch can NEVER be satisfied: the
  // router must re-query until its rounds are exhausted and fail the
  // shard rather than serve an answer below the caller's floor.
  std::vector<uint64_t> impossible{floors_[0] + 1000};
  auto routed = router_->Execute(queries[0], Strategy::kSchema, 10,
                                 /*deadline_ms=*/5000, impossible);
  ASSERT_FALSE(routed.ok());
  EXPECT_TRUE(routed.status().IsUnavailable()) << routed.status();
}

TEST_F(ClusterEquivalenceTest, RestartedServerResyncsEpochAndAnswers) {
  StartCluster(2);
  floors_.assign(2, 0);
  for (int i = 0; i < 8; ++i) AddOne();
  Database oracle = Oracle();
  const auto queries = MakeQueries(oracle, 4);
  ExpectEquivalent(oracle, queries);

  // Hard-stop node 1 (its WAL is the only durable state), bring it back
  // on the same port, and wait for the health probe to revive it.
  const uint16_t port1 = nodes_[1].port();
  nodes_[1].Stop();
  nodes_[1] = StartNode(1, 2, port1);
  for (int i = 0;
       i < 500 && router_->shard_health(1) != dist::ShardHealth::kUp; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(router_->shard_health(1), dist::ShardHealth::kUp);

  // Recovery restores the documents AND the epoch; the revived pong
  // triggers a slice refetch, after which answers are bit-identical
  // again — including documents that lived on the restarted server.
  ExpectEquivalent(oracle, queries);
  // And the cluster keeps ingesting across the restart: new adds land
  // with fresh global ids (the router resyncs its id-space high-water
  // mark from the fetched slices).
  for (int i = 0; i < 4; ++i) AddOne();
  ExpectEquivalent(Oracle(), queries);
}

}  // namespace
}  // namespace approxql::cluster
