// Crash recovery pins the PR's core acceptance invariant: after a crash
// (simulated by Abandon — drop all unflushed buffers, stop mutating)
// and a reopen with WAL replay, every durably-acked document is
// present, no partial document is visible, and answers are
// bit-identical to an oracle Database built from exactly the acked
// document set — for both strategies, at 1, 2 and 4 shards.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cost/cost_model.h"
#include "engine/database.h"
#include "ingest/mutable_corpus.h"
#include "shard/sharded_database.h"
#include "storage/wal/log_format.h"
#include "util/crc32.h"
#include "util/status.h"
#include "util/varint.h"

namespace approxql::ingest {
namespace {

using engine::ExecOptions;
using engine::QueryAnswer;
using engine::Strategy;

const char* const kQueries[] = {
    R"(elem0["term1"])",
    R"(elem1[elem3 and "term2"])",
    R"(elem2[elem4["term0"]])",
};

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
  const std::string c = "elem" + std::to_string((i + 4) % 7);
  const std::string t1 = "term" + std::to_string(i % 7);
  const std::string t2 = "term" + std::to_string((i + 3) % 8);
  return "<" + a + "><" + b + ">" + t1 + "</" + b + "><" + c + ">" + t2 +
         " " + t1 + "</" + c + "></" + a + ">";
}

void ExpectSameAnswers(const std::vector<QueryAnswer>& got,
                       const std::vector<QueryAnswer>& want,
                       const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].root, want[i].root) << label << " answer " << i;
    EXPECT_EQ(got[i].cost, want[i].cost) << label << " answer " << i;
  }
}

std::vector<QueryAnswer> Answers(const shard::ShardedDatabase& snap,
                                 const char* query, Strategy strategy) {
  ExecOptions options;
  options.strategy = strategy;
  options.n = SIZE_MAX;  // all answers: the strongest equality
  auto answers = snap.Execute(query, options, shard::ScatterOptions{});
  EXPECT_TRUE(answers.ok()) << answers.status();
  return answers.ok() ? *answers : std::vector<QueryAnswer>{};
}

/// Recovered corpus must answer exactly like a Database built from the
/// acked documents in ack order.
void ExpectMatchesOracle(const MutableCorpus& corpus,
                         const std::vector<std::string>& acked,
                         const std::string& label) {
  auto oracle = engine::Database::BuildFromXml(acked, TestModel());
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  auto snap = corpus.snapshot();
  for (const char* query : kQueries) {
    for (Strategy strategy : {Strategy::kSchema, Strategy::kDirect}) {
      ExecOptions options;
      options.strategy = strategy;
      options.n = SIZE_MAX;
      auto want = oracle->Execute(query, options);
      ASSERT_TRUE(want.ok()) << want.status();
      ExpectSameAnswers(Answers(*snap, query, strategy), *want,
                        label + " " + query +
                            (strategy == Strategy::kSchema ? " schema"
                                                           : " direct"));
    }
  }
}

class RecoveryTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("approxql_recovery_test_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  MutableCorpus::Options Opts() {
    MutableCorpus::Options options;
    options.data_dir = dir_;
    options.num_shards = GetParam();
    options.model = TestModel();
    return options;
  }

  std::string dir_;
};

TEST_P(RecoveryTest, AckedDocumentsSurviveTheCrash) {
  std::vector<std::string> acked;
  uint64_t epoch_before = 0;
  {
    auto corpus = MutableCorpus::Open(Opts());
    ASSERT_TRUE(corpus.ok()) << corpus.status();
    for (size_t i = 0; i < 18; ++i) {
      ASSERT_TRUE((*corpus)->AddDocument(MakeDoc(i)).ok());
      acked.push_back(MakeDoc(i));
    }
    epoch_before = (*corpus)->epoch();
    (*corpus)->Abandon();  // crash: nothing flushed past the last ack
  }
  MutableCorpus::OpenStats stats;
  auto recovered = MutableCorpus::Open(Opts(), nullptr, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(stats.recovered_documents, acked.size());
  EXPECT_EQ(stats.replayed_records, acked.size());
  EXPECT_EQ((*recovered)->document_count(), acked.size());
  EXPECT_EQ((*recovered)->epoch(), epoch_before);
  ExpectMatchesOracle(**recovered, acked, "recovered");
}

TEST_P(RecoveryTest, RemovalsReplayAndIdsAreStable) {
  std::vector<std::vector<QueryAnswer>> before;
  uint64_t epoch_before = 0;
  {
    auto corpus = MutableCorpus::Open(Opts());
    ASSERT_TRUE(corpus.ok());
    std::vector<doc::NodeId> roots;
    for (size_t i = 0; i < 10; ++i) {
      auto result = (*corpus)->AddDocument(MakeDoc(i));
      ASSERT_TRUE(result.ok());
      roots.push_back(result->doc_root);
    }
    ASSERT_TRUE((*corpus)->RemoveDocument(roots[2]).ok());
    ASSERT_TRUE((*corpus)->RemoveDocument(roots[7]).ok());
    ASSERT_TRUE((*corpus)->RemoveDocument(roots[9]).ok());
    epoch_before = (*corpus)->epoch();
    auto snap = (*corpus)->snapshot();
    for (const char* query : kQueries) {
      before.push_back(Answers(*snap, query, Strategy::kSchema));
    }
    (*corpus)->Abandon();
  }
  auto recovered = MutableCorpus::Open(Opts());
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ((*recovered)->document_count(), 7u);
  EXPECT_EQ((*recovered)->epoch(), epoch_before);  // 10 adds + 3 removes
  // Global ids survive recovery verbatim (holes included), so the
  // pre-crash snapshot's answers are the exact expectation.
  auto snap = (*recovered)->snapshot();
  for (size_t q = 0; q < std::size(kQueries); ++q) {
    ExpectSameAnswers(Answers(*snap, kQueries[q], Strategy::kSchema),
                      before[q], std::string("replayed ") + kQueries[q]);
  }
}

TEST_P(RecoveryTest, CheckpointBoundsReplay) {
  std::vector<std::string> acked;
  {
    auto corpus = MutableCorpus::Open(Opts());
    ASSERT_TRUE(corpus.ok());
    for (size_t i = 0; i < 12; ++i) {
      ASSERT_TRUE((*corpus)->AddDocument(MakeDoc(i)).ok());
      acked.push_back(MakeDoc(i));
    }
    ASSERT_TRUE((*corpus)->Checkpoint().ok());
    for (size_t i = 12; i < 17; ++i) {
      ASSERT_TRUE((*corpus)->AddDocument(MakeDoc(i)).ok());
      acked.push_back(MakeDoc(i));
    }
    (*corpus)->Abandon();
  }
  MutableCorpus::OpenStats stats;
  auto recovered = MutableCorpus::Open(Opts(), nullptr, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(stats.recovered_documents, 17u);
  // Only the post-checkpoint suffix replays from the WALs.
  EXPECT_EQ(stats.replayed_records, 5u);
  ExpectMatchesOracle(**recovered, acked, "post-checkpoint");
}

TEST_P(RecoveryTest, CrashBetweenSnapshotAndWalTruncateReplaysNothing) {
  // A checkpoint renames the new snapshot into place and only then
  // truncates the WAL. Restoring each shard's pre-checkpoint WAL after
  // the checkpoint recreates a crash between those two steps: the
  // snapshot already covers every record the WAL still holds.
  std::vector<std::string> acked;
  const std::string saved = dir_ + "_saved_wals";
  std::filesystem::remove_all(saved);
  std::filesystem::create_directories(saved);
  {
    auto corpus = MutableCorpus::Open(Opts());
    ASSERT_TRUE(corpus.ok()) << corpus.status();
    for (size_t i = 0; i < 14; ++i) {
      ASSERT_TRUE((*corpus)->AddDocument(MakeDoc(i)).ok());
      acked.push_back(MakeDoc(i));
    }
    for (size_t i = 0; i < GetParam(); ++i) {
      const std::string wal = "shard" + std::to_string(i) + ".wal";
      std::filesystem::copy_file(dir_ + "/" + wal, saved + "/" + wal);
    }
    ASSERT_TRUE((*corpus)->Checkpoint().ok());
    (*corpus)->Abandon();
  }
  for (size_t i = 0; i < GetParam(); ++i) {
    const std::string wal = "shard" + std::to_string(i) + ".wal";
    std::filesystem::copy_file(
        saved + "/" + wal, dir_ + "/" + wal,
        std::filesystem::copy_options::overwrite_existing);
  }
  std::filesystem::remove_all(saved);

  MutableCorpus::OpenStats stats;
  auto recovered = MutableCorpus::Open(Opts(), nullptr, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(stats.recovered_documents, acked.size());
  EXPECT_EQ(stats.replayed_records, 0u);
  ExpectMatchesOracle(**recovered, acked, "snapshot beside untruncated WAL");
}

TEST_P(RecoveryTest, TornWalTailDropsOnlyTheUnackedSuffix) {
  // Per query: the pre-crash answers tagged with their document roots.
  std::vector<std::vector<std::pair<QueryAnswer, doc::NodeId>>> tagged;
  doc::NodeId lost_root = 0;
  {
    auto corpus = MutableCorpus::Open(Opts());
    ASSERT_TRUE(corpus.ok());
    doc::NodeId last_on_shard0 = 0;
    for (size_t i = 0; i < 11; ++i) {
      auto result = (*corpus)->AddDocument(MakeDoc(i));
      ASSERT_TRUE(result.ok());
      if (result->shard_index == 0) last_on_shard0 = result->doc_root;
    }
    lost_root = last_on_shard0;
    ASSERT_NE(lost_root, 0u);
    auto snap = (*corpus)->snapshot();
    for (const char* query : kQueries) {
      std::vector<std::pair<QueryAnswer, doc::NodeId>> per_query;
      for (const auto& answer : Answers(*snap, query, Strategy::kSchema)) {
        per_query.emplace_back(answer, snap->DocRootOf(answer.root));
      }
      tagged.push_back(std::move(per_query));
    }
    (*corpus)->Abandon();
  }
  // Tear the tail of shard 0's WAL: its final record (the last acked
  // document on that shard) becomes unreadable, exactly as if the
  // crash hit mid-append before the ack went out.
  const std::string wal_path = dir_ + "/shard0.wal";
  const auto full = std::filesystem::file_size(wal_path);
  std::filesystem::resize_file(wal_path, full - 5);

  MutableCorpus::OpenStats stats;
  auto recovered = MutableCorpus::Open(Opts(), nullptr, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(stats.any_tail_truncated);
  EXPECT_EQ((*recovered)->document_count(), 10u);
  // Surviving documents keep their global ids and costs, so with n=all
  // the recovered answers are exactly the pre-crash answers minus the
  // torn document's.
  auto snap = (*recovered)->snapshot();
  for (size_t q = 0; q < std::size(kQueries); ++q) {
    std::vector<QueryAnswer> want;
    for (const auto& [answer, doc_root] : tagged[q]) {
      if (doc_root != lost_root) want.push_back(answer);
    }
    ExpectSameAnswers(Answers(*snap, kQueries[q], Strategy::kSchema), want,
                      std::string("torn ") + kQueries[q]);
  }
}

TEST_P(RecoveryTest, DoubleRecoveryIsDeterministic) {
  std::vector<std::string> acked;
  {
    auto corpus = MutableCorpus::Open(Opts());
    ASSERT_TRUE(corpus.ok());
    for (size_t i = 0; i < 9; ++i) {
      ASSERT_TRUE((*corpus)->AddDocument(MakeDoc(i)).ok());
      acked.push_back(MakeDoc(i));
    }
    (*corpus)->Abandon();
  }
  for (int round = 0; round < 2; ++round) {
    auto recovered = MutableCorpus::Open(Opts());
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    ExpectMatchesOracle(**recovered, acked,
                        "round " + std::to_string(round));
    (*recovered)->Abandon();
  }
}

class RecoveryFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("approxql_recovery_fault_test_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  MutableCorpus::Options Opts() {
    MutableCorpus::Options options;
    options.data_dir = dir_;
    options.num_shards = 1;
    options.model = TestModel();
    return options;
  }

  std::string dir_;
};

TEST_F(RecoveryFaultTest, FailedRecoveryMustNotCheckpointOrTruncateTheWal) {
  std::vector<std::string> acked;
  {
    auto corpus = MutableCorpus::Open(Opts());
    ASSERT_TRUE(corpus.ok()) << corpus.status();
    for (size_t i = 0; i < 5; ++i) {
      ASSERT_TRUE((*corpus)->AddDocument(MakeDoc(i)).ok());
      acked.push_back(MakeDoc(i));
    }
    (*corpus)->Abandon();
  }
  // Append a WAL-layer-valid record with an unknown type: replay fails
  // inside DurableShard::Recover, after the shard already holds its WAL
  // handle — exactly the state where a destructor checkpoint would
  // stamp a snapshot with last_seq and truncate away the good records.
  const std::string wal_path = dir_ + "/shard0.wal";
  const auto clean_size = std::filesystem::file_size(wal_path);
  {
    std::string body;
    util::PutVarint64(&body, 6);   // next consecutive seq after 5 adds
    util::PutVarint32(&body, 99);  // unknown record type
    std::string record;
    util::PutVarint64(&record, body.size());
    record.append(body);
    storage::PutFixed32(&record, util::Crc32c(body));
    std::ofstream out(wal_path, std::ios::binary | std::ios::app);
    out.write(record.data(), record.size());
  }
  const auto poisoned_size = std::filesystem::file_size(wal_path);

  auto failed = MutableCorpus::Open(Opts());
  ASSERT_FALSE(failed.ok());
  // The failed open must leave durable state untouched: no checkpoint
  // published from the partially replayed tree, every WAL byte kept.
  EXPECT_EQ(std::filesystem::file_size(wal_path), poisoned_size);
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/shard0.snap"));

  // Strip the bad record (as an operator would) and reopen: every
  // acked document is still there.
  std::filesystem::resize_file(wal_path, clean_size);
  auto recovered = MutableCorpus::Open(Opts());
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ExpectMatchesOracle(**recovered, acked, "repaired");
}

TEST_F(RecoveryFaultTest, LostCheckpointIsCorruptionNotAnEmptyCorpus) {
  {
    auto corpus = MutableCorpus::Open(Opts());
    ASSERT_TRUE(corpus.ok()) << corpus.status();
    for (size_t i = 0; i < 6; ++i) {
      ASSERT_TRUE((*corpus)->AddDocument(MakeDoc(i)).ok());
    }
  }  // clean close: the shutdown checkpoint truncates the WAL
  // Lose the checkpoint: every shard0 file except the WAL. The WAL's
  // records start past seq 0, so the documents before them are gone and
  // the open must say so instead of serving an empty corpus.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("shard0", 0) == 0 && name != "shard0.wal") {
      std::filesystem::remove(entry.path());
    }
  }
  auto reopened = MutableCorpus::Open(Opts());
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption()) << reopened.status();
}

TEST_F(RecoveryFaultTest, SnapshotAheadOfItsWalIsCorruption) {
  {
    auto corpus = MutableCorpus::Open(Opts());
    ASSERT_TRUE(corpus.ok()) << corpus.status();
    for (size_t i = 0; i < 4; ++i) {
      ASSERT_TRUE((*corpus)->AddDocument(MakeDoc(i)).ok());
    }
  }  // clean close: the snapshot covers seq 4
  // A fresh WAL would number new mutations from 1, and the next replay
  // would skip them as already covered by the snapshot.
  std::filesystem::remove(dir_ + "/shard0.wal");
  auto reopened = MutableCorpus::Open(Opts());
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption()) << reopened.status();
}

INSTANTIATE_TEST_SUITE_P(
    Shards, RecoveryTest, ::testing::Values(size_t{1}, size_t{2}, size_t{4}),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return std::to_string(info.param) + "shard";
    });

}  // namespace
}  // namespace approxql::ingest
