// MutableCorpus semantics: live AddDocument/RemoveDocument against the
// published copy-on-write generations. The load-bearing invariants:
//   - answers over the mutable corpus are bit-identical to a Database
//     built from the acked documents in ack order (global ids are
//     assigned sequentially at ack time, independent of placement);
//   - snapshot() is isolated — a held generation never changes, no
//     matter how many mutations land after it;
//   - every accepted mutation moves the epoch and the generation's
//     layout fingerprint (result caches must never cross corpus states);
//   - a directory remembers its configuration and refuses to reopen
//     under a different one.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "engine/database.h"
#include "ingest/mutable_corpus.h"
#include "shard/sharded_database.h"
#include "util/status.h"

namespace approxql::ingest {
namespace {

using engine::ExecOptions;
using engine::QueryAnswer;
using engine::Strategy;

const char* const kQueries[] = {
    R"(elem0["term1"])",
    R"(elem1[elem3 and "term2"])",
    R"(elem2[elem4["term0"]])",
    R"(elem3["term4" and "term5"])",
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

/// Deterministic little documents over the elem*/term* vocabulary;
/// varied enough that different queries rank them differently.
std::string MakeDoc(size_t i) {
  const std::string a = "elem" + std::to_string(i % 5);
  const std::string b = "elem" + std::to_string((i + 2) % 6);
  const std::string c = "elem" + std::to_string((i + 4) % 7);
  const std::string t1 = "term" + std::to_string(i % 7);
  const std::string t2 = "term" + std::to_string((i + 3) % 8);
  return "<" + a + "><" + b + ">" + t1 + "</" + b + "><" + c + ">" + t2 +
         "</" + c + "></" + a + ">";
}

std::vector<QueryAnswer> OracleAnswers(const std::vector<std::string>& docs,
                                       const char* query, Strategy strategy,
                                       size_t n) {
  auto db = engine::Database::BuildFromXml(docs, TestModel());
  EXPECT_TRUE(db.ok()) << db.status();
  ExecOptions options;
  options.strategy = strategy;
  options.n = n;
  auto answers = db->Execute(query, options);
  EXPECT_TRUE(answers.ok()) << answers.status();
  return *answers;
}

std::vector<QueryAnswer> CorpusAnswers(const shard::ShardedDatabase& snap,
                                       const char* query, Strategy strategy,
                                       size_t n) {
  ExecOptions options;
  options.strategy = strategy;
  options.n = n;
  auto answers = snap.Execute(query, options, shard::ScatterOptions{});
  EXPECT_TRUE(answers.ok()) << answers.status();
  return *answers;
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

class MutableCorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("approxql_corpus_test_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  MutableCorpus::Options Opts(size_t num_shards) {
    MutableCorpus::Options options;
    options.data_dir = dir_;
    options.num_shards = num_shards;
    options.model = TestModel();
    return options;
  }

  std::string dir_;
};

TEST_F(MutableCorpusTest, AddedDocumentsMatchTheOracleBitForBit) {
  auto corpus = MutableCorpus::Open(Opts(2));
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  std::vector<std::string> acked;
  uint64_t last_epoch = 0;
  doc::NodeId last_root = 0;
  for (size_t i = 0; i < 12; ++i) {
    auto result = (*corpus)->AddDocument(MakeDoc(i));
    ASSERT_TRUE(result.ok()) << result.status();
    acked.push_back(MakeDoc(i));
    // One WAL record per add: the epoch advances by exactly one.
    EXPECT_EQ(result->epoch, last_epoch + 1);
    last_epoch = result->epoch;
    // Global ids are handed out in ack order, placement-independent.
    EXPECT_GT(result->doc_root, last_root);
    last_root = result->doc_root;
    EXPECT_GT(result->length, 0u);
    EXPECT_LT(result->shard_index, 2u);
  }
  EXPECT_EQ((*corpus)->document_count(), 12u);

  auto snap = (*corpus)->snapshot();
  for (const char* query : kQueries) {
    for (Strategy strategy : {Strategy::kSchema, Strategy::kDirect}) {
      ExpectSameAnswers(
          CorpusAnswers(*snap, query, strategy, 5),
          OracleAnswers(acked, query, strategy, 5),
          std::string(query) +
              (strategy == Strategy::kSchema ? " schema" : " direct"));
    }
  }
}

TEST_F(MutableCorpusTest, HeldSnapshotsAreIsolatedFromLaterMutations) {
  auto corpus = MutableCorpus::Open(Opts(2));
  ASSERT_TRUE(corpus.ok());
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE((*corpus)->AddDocument(MakeDoc(i)).ok());
  }
  auto old_snap = (*corpus)->snapshot();
  // Schema top-10 and every direct answer: the direct strategy reads
  // each shard's postings, so n = all sees any posting a later mutation
  // could leak into the held generation.
  std::vector<std::vector<QueryAnswer>> before, before_direct;
  for (const char* query : kQueries) {
    before.push_back(CorpusAnswers(*old_snap, query, Strategy::kSchema, 10));
    before_direct.push_back(
        CorpusAnswers(*old_snap, query, Strategy::kDirect, SIZE_MAX));
  }
  const uint32_t old_fingerprint = old_snap->LayoutFingerprint();

  for (size_t i = 4; i < 12; ++i) {
    ASSERT_TRUE((*corpus)->AddDocument(MakeDoc(i)).ok());
  }
  // Root id 1 is the first document's root (super-root is 0).
  auto removed = (*corpus)->RemoveDocument(1);
  ASSERT_TRUE(removed.ok()) << removed.status();

  // The held generation still answers exactly as it did.
  for (size_t q = 0; q < std::size(kQueries); ++q) {
    ExpectSameAnswers(
        CorpusAnswers(*old_snap, kQueries[q], Strategy::kSchema, 10),
        before[q], std::string("held ") + kQueries[q]);
    ExpectSameAnswers(
        CorpusAnswers(*old_snap, kQueries[q], Strategy::kDirect, SIZE_MAX),
        before_direct[q], std::string("held direct ") + kQueries[q]);
  }
  // The new generation is a different corpus state under a different
  // fingerprint.
  auto new_snap = (*corpus)->snapshot();
  EXPECT_NE(new_snap->LayoutFingerprint(), old_fingerprint);
  EXPECT_NE(new_snap.get(), old_snap.get());
}

TEST_F(MutableCorpusTest, RemoveLeavesAPermanentHole) {
  auto corpus = MutableCorpus::Open(Opts(2));
  ASSERT_TRUE(corpus.ok());
  std::vector<doc::NodeId> roots;
  for (size_t i = 0; i < 6; ++i) {
    auto result = (*corpus)->AddDocument(MakeDoc(i));
    ASSERT_TRUE(result.ok());
    roots.push_back(result->doc_root);
  }
  auto removed = (*corpus)->RemoveDocument(roots[3]);
  ASSERT_TRUE(removed.ok()) << removed.status();
  EXPECT_EQ((*corpus)->document_count(), 5u);

  // The removed document contributes no answers any more.
  auto snap = (*corpus)->snapshot();
  for (const char* query : kQueries) {
    for (const auto& answer :
         CorpusAnswers(*snap, query, Strategy::kSchema, SIZE_MAX)) {
      EXPECT_NE(snap->DocRootOf(answer.root), roots[3]) << query;
    }
  }

  // Its id is burned: double remove and unknown ids are NotFound, and a
  // re-added identical document gets a fresh id past the hole.
  EXPECT_TRUE((*corpus)->RemoveDocument(roots[3]).status().IsNotFound());
  EXPECT_TRUE((*corpus)->RemoveDocument(999999).status().IsNotFound());
  auto readded = (*corpus)->AddDocument(MakeDoc(3));
  ASSERT_TRUE(readded.ok());
  EXPECT_GT(readded->doc_root, roots.back());
}

TEST_F(MutableCorpusTest, EpochAndStatusesTrackDurableSequenceNumbers) {
  auto corpus = MutableCorpus::Open(Opts(4));
  ASSERT_TRUE(corpus.ok());
  for (size_t i = 0; i < 9; ++i) {
    ASSERT_TRUE((*corpus)->AddDocument(MakeDoc(i)).ok());
  }
  ASSERT_TRUE((*corpus)->RemoveDocument(1).ok());
  EXPECT_EQ((*corpus)->epoch(), 10u);  // 9 adds + 1 remove
  auto statuses = (*corpus)->ShardStatuses();
  ASSERT_EQ(statuses.size(), 4u);
  uint64_t seq_sum = 0;
  size_t documents = 0;
  for (const auto& status : statuses) {
    seq_sum += status.last_seq;
    documents += status.documents;
    EXPECT_FALSE(status.poisoned);
  }
  EXPECT_EQ(seq_sum, 10u);
  EXPECT_EQ(documents, 8u);
  EXPECT_EQ((*corpus)->snapshot()->epoch(), 10u);

  // The ingest_* metrics the serving layer dumps are fed from here.
  const std::string dump = (*corpus)->metrics()->DumpText();
  EXPECT_NE(dump.find("ingest_docs_added"), std::string::npos);
  EXPECT_NE(dump.find("ingest_docs_removed"), std::string::npos);
  EXPECT_NE(dump.find("ingest_epoch"), std::string::npos);
}

TEST_F(MutableCorpusTest, CheckpointPreservesAnswersAndTruncatesWals) {
  auto corpus = MutableCorpus::Open(Opts(2));
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  std::vector<std::string> acked;
  for (size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE((*corpus)->AddDocument(MakeDoc(i)).ok());
    acked.push_back(MakeDoc(i));
  }
  const uint64_t wal_bytes_before = (*corpus)->ShardStatuses()[0].wal_bytes;
  ASSERT_TRUE((*corpus)->Checkpoint().ok());
  // The WAL shrank (records folded into the checkpoint), the durable
  // sequence numbering did not move.
  auto statuses = (*corpus)->ShardStatuses();
  EXPECT_LT(statuses[0].wal_bytes, wal_bytes_before);
  EXPECT_EQ((*corpus)->epoch(), 8u);
  auto snap = (*corpus)->snapshot();
  for (const char* query : kQueries) {
    ExpectSameAnswers(CorpusAnswers(*snap, query, Strategy::kSchema, 5),
                      OracleAnswers(acked, query, Strategy::kSchema, 5),
                      std::string("post-checkpoint ") + query);
  }
  // And the corpus keeps accepting mutations afterwards.
  ASSERT_TRUE((*corpus)->AddDocument(MakeDoc(8)).ok());
  EXPECT_EQ((*corpus)->epoch(), 9u);
}

TEST_F(MutableCorpusTest, AbandonStopsMutationsButNotReads) {
  auto corpus = MutableCorpus::Open(Opts(2));
  ASSERT_TRUE(corpus.ok());
  ASSERT_TRUE((*corpus)->AddDocument(MakeDoc(0)).ok());
  auto snap = (*corpus)->snapshot();
  (*corpus)->Abandon();
  EXPECT_FALSE((*corpus)->AddDocument(MakeDoc(1)).ok());
  EXPECT_FALSE((*corpus)->RemoveDocument(1).ok());
  // The published generation is immutable state — still queryable
  // (CorpusAnswers asserts the Execute succeeds).
  CorpusAnswers(*snap, kQueries[0], Strategy::kSchema, 5);
}

TEST_F(MutableCorpusTest, DirectoryPinsItsConfiguration) {
  {
    auto corpus = MutableCorpus::Open(Opts(2));
    ASSERT_TRUE(corpus.ok());
    ASSERT_TRUE((*corpus)->AddDocument(MakeDoc(0)).ok());
  }
  auto wrong_shards = MutableCorpus::Open(Opts(4));
  ASSERT_FALSE(wrong_shards.ok());
  EXPECT_TRUE(wrong_shards.status().IsCorruption()) << wrong_shards.status();

  auto same = MutableCorpus::Open(Opts(2));
  ASSERT_TRUE(same.ok()) << same.status();
  EXPECT_EQ((*same)->document_count(), 1u);
}

}  // namespace
}  // namespace approxql::ingest
