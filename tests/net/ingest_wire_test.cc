// Live ingest over the wire: kIngest/kIngestAck against a Server
// fronting a MutableCorpus, interleaved with verified queries. The ack
// contract under test: an OK ack means the mutation is durable AND
// visible (any later query's backend_epoch >= the ack's epoch sees it),
// a non-OK ack means nothing happened, and a plain immutable server
// nacks with UNIMPLEMENTED instead of dropping the frame.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "engine/database.h"
#include "ingest/mutable_corpus.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "service/query_service.h"

namespace approxql::net {
namespace {

using engine::Strategy;
using ingest::MutableCorpus;
using service::QueryService;
using service::ServiceOptions;

constexpr char kQuery[] = R"(elem1[elem3 and "term2"])";

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
  const std::string b = "elem" + std::to_string((i + 2) % 6);
  const std::string t1 = "term" + std::to_string(i % 7);
  const std::string t2 = "term" + std::to_string((i + 3) % 8);
  return "<" + a + "><" + b + ">" + t1 + "</" + b + "><elem3>" + t2 +
         "</elem3></" + a + ">";
}

class IngestWireTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("approxql_ingest_wire_test_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
  }

  void StartMutableServer(size_t num_shards = 2) {
    MutableCorpus::Options options;
    options.data_dir = dir_;
    options.num_shards = num_shards;
    options.model = TestModel();
    auto corpus = MutableCorpus::Open(std::move(options));
    ASSERT_TRUE(corpus.ok()) << corpus.status();
    corpus_ = std::move(corpus).value();
    service_ = std::make_unique<QueryService>(*corpus_,
                                              ServiceOptions{.num_threads = 2});
    server_ = std::make_unique<Server>(*service_, *corpus_, ServerOptions{});
    auto started = server_->Start();
    ASSERT_TRUE(started.ok()) << started;
  }

  void TearDown() override {
    if (server_) server_->Shutdown(/*drain=*/true);
    server_.reset();
    service_.reset();
    corpus_.reset();
    std::filesystem::remove_all(dir_);
  }

  Client MakeClient() {
    ClientOptions options;
    options.port = server_->port();
    return Client(options);
  }

  std::string dir_;
  std::unique_ptr<MutableCorpus> corpus_;
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<Server> server_;
};

TEST_F(IngestWireTest, InterleavedIngestAndQueriesMatchTheOracle) {
  StartMutableServer();
  Client client = MakeClient();
  std::vector<std::string> acked;
  uint64_t last_epoch = 0;
  for (size_t i = 0; i < 10; ++i) {
    WireIngest op;
    op.op = WireIngest::Op::kAdd;
    op.xml = MakeDoc(i);
    auto ack = client.Ingest(op);
    ASSERT_TRUE(ack.ok()) << ack.status();
    acked.push_back(op.xml);
    EXPECT_EQ(ack->epoch, last_epoch + 1);
    last_epoch = ack->epoch;
    EXPECT_GT(ack->length, 0u);

    // Query between ingests: the ack said "visible", so the response
    // epoch may never lag the ack's.
    WireRequest request;
    request.query = kQuery;
    request.n = UINT64_MAX;
    auto response = client.Call(request);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_GE(response->backend_epoch, ack->epoch);

    // And the answers are bit-identical to an in-process oracle over
    // exactly the acked documents.
    auto oracle = engine::Database::BuildFromXml(acked, TestModel());
    ASSERT_TRUE(oracle.ok());
    engine::ExecOptions exec;
    exec.n = SIZE_MAX;
    auto want = oracle->Execute(kQuery, exec);
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(response->answers.size(), want->size()) << "after doc " << i;
    for (size_t a = 0; a < want->size(); ++a) {
      EXPECT_EQ(response->answers[a].root, (*want)[a].root);
      EXPECT_EQ(response->answers[a].cost, (*want)[a].cost);
    }
  }
}

TEST_F(IngestWireTest, RemoveOverTheWire) {
  StartMutableServer();
  Client client = MakeClient();
  std::vector<doc::NodeId> roots;
  for (size_t i = 0; i < 3; ++i) {
    WireIngest op;
    op.op = WireIngest::Op::kAdd;
    op.xml = MakeDoc(i);
    auto ack = client.Ingest(op);
    ASSERT_TRUE(ack.ok()) << ack.status();
    roots.push_back(ack->doc_root);
  }
  WireIngest remove;
  remove.op = WireIngest::Op::kRemove;
  remove.doc_root = roots[1];
  auto ack = client.Ingest(remove);
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_EQ(ack->doc_root, roots[1]);

  WireRequest request;
  request.query = kQuery;
  request.n = UINT64_MAX;
  auto response = client.Call(request);
  ASSERT_TRUE(response.ok());
  for (const auto& answer : response->answers) {
    EXPECT_NE(answer.doc, roots[1]);
  }
  // The id is burned: removing it again is NOT_FOUND, and nothing
  // changed server-side.
  auto again = client.Ingest(remove);
  ASSERT_FALSE(again.ok());
  EXPECT_TRUE(again.status().IsNotFound()) << again.status();
  EXPECT_EQ(corpus_->document_count(), 2u);
}

TEST_F(IngestWireTest, MalformedXmlIsNackedWithoutStateChange) {
  StartMutableServer();
  Client client = MakeClient();
  WireIngest bad;
  bad.op = WireIngest::Op::kAdd;
  bad.xml = "<unclosed><and-worse";
  auto nack = client.Ingest(bad);
  ASSERT_FALSE(nack.ok());
  EXPECT_EQ(corpus_->document_count(), 0u);
  EXPECT_EQ(corpus_->epoch(), 0u);

  // The connection survives the nack and the next good ingest lands.
  WireIngest good;
  good.op = WireIngest::Op::kAdd;
  good.xml = MakeDoc(0);
  auto ack = client.Ingest(good);
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_EQ(ack->epoch, 1u);
}

TEST_F(IngestWireTest, MetricsDumpCarriesIngestCounters) {
  StartMutableServer();
  Client client = MakeClient();
  WireIngest op;
  op.op = WireIngest::Op::kAdd;
  op.xml = MakeDoc(0);
  ASSERT_TRUE(client.Ingest(op).ok());
  auto dump = client.FetchMetrics();
  ASSERT_TRUE(dump.ok()) << dump.status();
  EXPECT_NE(dump->find("ingest_docs_added"), std::string::npos) << *dump;
  EXPECT_NE(dump->find("ingest_epoch"), std::string::npos);
}

TEST_F(IngestWireTest, ImmutableServerNacksIngest) {
  // A server fronting a plain immutable Database answers kIngest with
  // UNIMPLEMENTED — never a dropped frame or a killed connection.
  auto db = engine::Database::BuildFromXml({MakeDoc(0)}, TestModel());
  ASSERT_TRUE(db.ok());
  QueryService service(*db, ServiceOptions{.num_threads = 1});
  Server server(service, *db, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  ClientOptions options;
  options.port = server.port();
  Client client(options);
  WireIngest op;
  op.op = WireIngest::Op::kAdd;
  op.xml = MakeDoc(1);
  auto nack = client.Ingest(op);
  ASSERT_FALSE(nack.ok());
  EXPECT_EQ(nack.status().code(), util::StatusCode::kUnimplemented)
      << nack.status();
  // The same connection still serves queries.
  WireRequest request;
  request.query = kQuery;
  auto response = client.Call(request);
  EXPECT_TRUE(response.ok()) << response.status();
  server.Shutdown(/*drain=*/true);
}

}  // namespace
}  // namespace approxql::net
