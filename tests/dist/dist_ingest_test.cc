// ShardRouter::Ingest against real mutable shard servers over TCP
// loopback: adds are placed on the shard the router has sent the
// fewest documents (ties to the lowest index), removes reach the shard
// holding the document, and the ingest counters surface in
// DumpMetrics. Routed Execute() over a mutating cluster is
// tests/cluster/cluster_equivalence_test.cc's subject.
#include "dist/shard_router.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_config.h"
#include "cost/cost_model.h"
#include "ingest/mutable_corpus.h"
#include "net/server.h"
#include "net/wire.h"
#include "service/query_service.h"

namespace approxql::dist {
namespace {

using cluster::ClusterConfig;
using cluster::ClusterFingerprint;
using ingest::MutableCorpus;
using net::Server;
using net::ServerOptions;
using net::WireIngest;
using service::QueryService;
using service::ServiceOptions;

cost::CostModel TestModel() {
  cost::CostModel model;
  for (int i = 0; i < 10; ++i) {
    model.SetDeleteCost(NodeType::kStruct, "elem" + std::to_string(i),
                        static_cast<cost::Cost>(2 + (i * 3) % 7));
    model.SetDeleteCost(NodeType::kText, "term" + std::to_string(i),
                        static_cast<cost::Cost>(1 + (i * 5) % 6));
  }
  return model;
}

std::string MakeDoc(size_t i) {
  const std::string a = "elem" + std::to_string(i % 5);
  const std::string t = "term" + std::to_string(i % 7);
  return "<" + a + "><elem3>" + t + "</elem3></" + a + ">";
}

/// One mutable shard-server process-equivalent: its own single-shard
/// MutableCorpus in its own directory, served over loopback.
struct MutableServer {
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

class DistIngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("approxql_dist_ingest_test_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    router_.reset();
    for (auto& server : servers_) server.Stop();
    servers_.clear();
    std::filesystem::remove_all(dir_);
  }

  void StartCluster(size_t num_servers) {
    for (size_t i = 0; i < num_servers; ++i) {
      MutableCorpus::Options options;
      options.data_dir = dir_ + "/node" + std::to_string(i);
      options.num_shards = 1;
      options.model = TestModel();
      auto corpus = MutableCorpus::Open(std::move(options));
      ASSERT_TRUE(corpus.ok()) << corpus.status();
      MutableServer node;
      node.corpus = std::move(corpus).value();
      node.service = std::make_unique<QueryService>(
          *node.corpus, ServiceOptions{.num_threads = 1});
      ServerOptions server_options;
      server_options.shard.enabled = true;
      server_options.shard.fingerprint =
          ClusterFingerprint(TestModel(), num_servers);
      server_options.shard.shard_index = static_cast<uint32_t>(i);
      node.server = std::make_unique<Server>(*node.service, *node.corpus,
                                             server_options);
      ASSERT_TRUE(node.server->Start().ok());
      servers_.push_back(std::move(node));
    }
    ClusterConfig config;
    config.model = TestModel();
    config.num_shards = num_servers;
    RouterOptions options;
    for (const auto& server : servers_) {
      options.shards.push_back({"127.0.0.1", server.port()});
    }
    options.connect_timeout_ms = 500;
    options.attempt_deadline_ms = 2000;
    options.max_retries = 0;
    options.health_period_ms = 0;
    router_ = std::make_unique<ShardRouter>(config, std::move(options));
    ASSERT_TRUE(router_->Start().ok());
  }

  std::string dir_;
  std::vector<MutableServer> servers_;
  std::unique_ptr<ShardRouter> router_;
};

TEST_F(DistIngestTest, AddsBalanceAcrossShardsLeastLoadedFirst) {
  StartCluster(2);
  for (size_t i = 0; i < 8; ++i) {
    WireIngest op;
    op.op = WireIngest::Op::kAdd;
    op.xml = MakeDoc(i);
    auto ack = router_->Ingest(op, /*deadline_ms=*/5000);
    ASSERT_TRUE(ack.ok()) << ack.status();
  }
  // Argmin with ties-to-lowest alternates servers 0,1,0,1,... so the
  // documents split 4/4.
  EXPECT_EQ(servers_[0].corpus->document_count(), 4u);
  EXPECT_EQ(servers_[1].corpus->document_count(), 4u);

  const std::string dump = router_->DumpMetrics();
  EXPECT_NE(dump.find("dist_ingest_calls"), std::string::npos);
  // Per-shard document counts come from the router's view, which each
  // ack's delta has already advanced.
  EXPECT_NE(dump.find("dist_shard_0_documents 4\n"), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("dist_shard_1_documents 4\n"), std::string::npos)
      << dump;
}

TEST_F(DistIngestTest, RemovesProbeShardsInIndexOrder) {
  StartCluster(2);
  // Four adds alternate between the servers, each under the next
  // cluster-global root id.
  std::vector<doc::NodeId> roots;
  std::vector<uint32_t> owners;
  for (size_t i = 0; i < 4; ++i) {
    WireIngest op;
    op.op = WireIngest::Op::kAdd;
    op.xml = MakeDoc(i);
    auto ack = router_->Ingest(op, 5000);
    ASSERT_TRUE(ack.ok()) << ack.status();
    roots.push_back(ack->doc_root);
  }
  // Remove server 0's second document by its root id. Roots are
  // cluster-global, so exactly one server holds it, and only that
  // server loses a document.
  WireIngest remove;
  remove.op = WireIngest::Op::kRemove;
  remove.doc_root = roots[2];  // third add = second doc on server 0
  auto ack = router_->Ingest(remove, 5000);
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_EQ(servers_[0].corpus->document_count(), 1u);
  EXPECT_EQ(servers_[1].corpus->document_count(), 2u);

  // A root id no server has: NOT_FOUND after probing everyone.
  WireIngest missing;
  missing.op = WireIngest::Op::kRemove;
  missing.doc_root = 999999;
  auto not_found = router_->Ingest(missing, 5000);
  ASSERT_FALSE(not_found.ok());
  EXPECT_TRUE(not_found.status().IsNotFound()) << not_found.status();
}

TEST_F(DistIngestTest, DeadShardFailsTheAddCleanly) {
  StartCluster(2);
  // First two adds land one per server; then server 0 dies. The next
  // add deterministically targets it (count tie, lowest index wins): a
  // transport failure must come back as an error, never be silently
  // rerouted — the mutation may have landed, so resending elsewhere
  // could duplicate it. In-doubt semantics forbid failover by design,
  // so repeat calls keep failing until the shard returns.
  for (size_t i = 0; i < 2; ++i) {
    WireIngest op;
    op.op = WireIngest::Op::kAdd;
    op.xml = MakeDoc(i);
    ASSERT_TRUE(router_->Ingest(op, 5000).ok());
  }
  servers_[0].Stop();
  WireIngest op;
  op.op = WireIngest::Op::kAdd;
  op.xml = MakeDoc(2);
  auto failed = router_->Ingest(op, 2000);
  ASSERT_FALSE(failed.ok());
  auto again = router_->Ingest(op, 2000);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(servers_[1].corpus->document_count(), 1u);
}

}  // namespace
}  // namespace approxql::dist
