// Concurrent writers on the serial ingest path, and threshold-driven
// auto-checkpointing (inline checkpoints bound how much WAL a crash
// replays). The tests pin the part that must NOT change: the documents
// and their ids.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cost/cost_model.h"
#include "engine/database.h"
#include "ingest/mutable_corpus.h"
#include "shard/sharded_database.h"

namespace approxql::ingest {
namespace {

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

class IngestTuningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("approxql_ingest_tuning_test_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(IngestTuningTest, ConcurrentWritersKeepIdOrder) {
  MutableCorpus::Options options;
  options.data_dir = dir_;
  options.num_shards = 1;
  options.model = TestModel();
  auto corpus = MutableCorpus::Open(std::move(options));
  ASSERT_TRUE(corpus.ok()) << corpus.status();

  constexpr size_t kThreads = 4;
  constexpr size_t kDocsPerThread = 16;
  std::vector<std::vector<std::pair<doc::NodeId, std::string>>> acked(
      kThreads);
  std::vector<std::thread> writers;
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (size_t i = 0; i < kDocsPerThread; ++i) {
        const std::string xml = MakeDoc(t * kDocsPerThread + i);
        auto ack = (*corpus)->AddDocument(xml);
        ASSERT_TRUE(ack.ok()) << ack.status();
        acked[t].push_back({ack->doc_root, xml});
      }
    });
  }
  for (auto& writer : writers) writer.join();
  ASSERT_EQ((*corpus)->document_count(), kThreads * kDocsPerThread);

  // Interleaved writers must not perturb id assignment: global ids are
  // handed out in WAL order, so rebuilding from the acked documents
  // sorted by root id reproduces the exact layout — bit-identical
  // answers.
  std::vector<std::pair<doc::NodeId, std::string>> all;
  for (const auto& per_thread : acked) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(all.begin(), all.end());
  std::vector<std::string> in_id_order;
  for (auto& [root, xml] : all) in_id_order.push_back(std::move(xml));
  auto oracle = engine::Database::BuildFromXml(in_id_order, TestModel());
  ASSERT_TRUE(oracle.ok()) << oracle.status();

  auto snapshot = (*corpus)->snapshot();
  engine::ExecOptions exec;
  exec.n = SIZE_MAX;
  shard::ScatterOptions scatter;
  const char* kQueries[] = {R"(elem1[elem3 and "term2"])",
                            R"(elem3["term4"])"};
  for (const char* query : kQueries) {
    auto expected = oracle->Execute(query, exec);
    ASSERT_TRUE(expected.ok()) << expected.status();
    auto got = snapshot->Execute(query, exec, scatter);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(got->size(), expected->size()) << query;
    for (size_t i = 0; i < got->size(); ++i) {
      EXPECT_EQ((*got)[i].root, (*expected)[i].root) << query;
      EXPECT_EQ((*got)[i].cost, (*expected)[i].cost) << query;
    }
  }
}

TEST_F(IngestTuningTest, AutoCheckpointBoundsCrashRecoveryReplay) {
  constexpr size_t kDocs = 64;
  {
    MutableCorpus::Options options;
    options.data_dir = dir_;
    options.num_shards = 1;
    options.model = TestModel();
    // The add that leaves 9 records in the WAL checkpoints inline.
    options.checkpoint_wal_records = 8;
    auto corpus = MutableCorpus::Open(std::move(options));
    ASSERT_TRUE(corpus.ok()) << corpus.status();
    for (size_t i = 0; i < kDocs; ++i) {
      ASSERT_TRUE((*corpus)->AddDocument(MakeDoc(i)).ok());
    }
    // A checkpoint at every 9th record: records 9, 18, ..., 63.
    const std::string dump = (*corpus)->metrics()->DumpText();
    EXPECT_NE(dump.find("ingest_auto_checkpoints 7\n"), std::string::npos)
        << dump;
    (*corpus)->Abandon();  // crash — no clean-close checkpoint
  }

  // Recover from the crash: every acked document must be back, and the
  // WAL replay holds only the one record after the last auto
  // checkpoint — not the whole history.
  MutableCorpus::Options reopen_options;
  reopen_options.data_dir = dir_;
  reopen_options.num_shards = 1;
  reopen_options.model = TestModel();
  MutableCorpus::OpenStats stats;
  auto reopened = MutableCorpus::Open(std::move(reopen_options), nullptr,
                                      &stats);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->document_count(), kDocs);
  EXPECT_EQ(stats.replayed_records, 1u)
      << "replay was not bounded by checkpoints";
}

}  // namespace
}  // namespace approxql::ingest
