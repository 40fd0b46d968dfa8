// The durability primitive under src/storage/wal: WAL append/replay/
// truncate semantics (strictly consecutive sequence numbers, config
// pinning, torn-tail tolerance).
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "storage/wal/wal.h"

namespace approxql::storage {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("approxql_wal_test_" + std::to_string(::getpid())))
                .string();
    std::filesystem::remove(path_);
    std::filesystem::remove(path_ + ".tmp");
  }
  void TearDown() override {
    std::filesystem::remove(path_);
    std::filesystem::remove(path_ + ".tmp");
  }

  std::string path_;
};

TEST_F(WalTest, AppendSyncReplayRoundTrip) {
  {
    auto opened = WriteAheadLog::Open(path_, "cfg=1");
    ASSERT_TRUE(opened.ok()) << opened.status();
    ASSERT_TRUE(opened->records.empty());
    EXPECT_FALSE(opened->tail_truncated);
    auto& wal = *opened->wal;
    EXPECT_EQ(wal.last_seq(), 0u);
    auto s1 = wal.Append(7, "first");
    ASSERT_TRUE(s1.ok());
    EXPECT_EQ(*s1, 1u);
    auto s2 = wal.Append(9, std::string(1000, 'x'));
    ASSERT_TRUE(s2.ok());
    EXPECT_EQ(*s2, 2u);
    ASSERT_TRUE(wal.Sync().ok());
  }
  auto reopened = WriteAheadLog::Open(path_, "cfg=1");
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_FALSE(reopened->tail_truncated);
  ASSERT_EQ(reopened->records.size(), 2u);
  EXPECT_EQ(reopened->records[0].seq, 1u);
  EXPECT_EQ(reopened->records[0].type, 7u);
  EXPECT_EQ(reopened->records[0].payload, "first");
  EXPECT_EQ(reopened->records[1].seq, 2u);
  EXPECT_EQ(reopened->records[1].type, 9u);
  EXPECT_EQ(reopened->records[1].payload, std::string(1000, 'x'));
  EXPECT_EQ(reopened->wal->last_seq(), 2u);
}

TEST_F(WalTest, ConfigMismatchIsCorruption) {
  {
    auto opened = WriteAheadLog::Open(path_, "shards=2");
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE(opened->wal->Append(1, "x").ok());
    ASSERT_TRUE(opened->wal->Sync().ok());
  }
  auto wrong = WriteAheadLog::Open(path_, "shards=4");
  ASSERT_FALSE(wrong.ok());
  EXPECT_TRUE(wrong.status().IsCorruption()) << wrong.status();
}

TEST_F(WalTest, TruncatePreservesSequenceNumbering) {
  {
    auto opened = WriteAheadLog::Open(path_, "c");
    ASSERT_TRUE(opened.ok());
    auto& wal = *opened->wal;
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(wal.Append(1, "r").ok());
    ASSERT_TRUE(wal.Sync().ok());
    ASSERT_TRUE(wal.Truncate().ok());
    EXPECT_EQ(wal.base_seq(), 5u);
    EXPECT_EQ(wal.last_seq(), 5u);
    // Numbering continues from where the checkpoint left it.
    auto next = wal.Append(1, "after");
    ASSERT_TRUE(next.ok());
    EXPECT_EQ(*next, 6u);
    ASSERT_TRUE(wal.Sync().ok());
  }
  auto reopened = WriteAheadLog::Open(path_, "c");
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(reopened->records.size(), 1u);
  EXPECT_EQ(reopened->records[0].seq, 6u);
  EXPECT_EQ(reopened->wal->base_seq(), 5u);
}

TEST_F(WalTest, UnsyncedSuffixMayVanishAfterAbandon) {
  {
    auto opened = WriteAheadLog::Open(path_, "c");
    ASSERT_TRUE(opened.ok());
    auto& wal = *opened->wal;
    ASSERT_TRUE(wal.Append(1, "durable").ok());
    ASSERT_TRUE(wal.Sync().ok());
    ASSERT_TRUE(wal.Append(1, "buffered-only").ok());
    wal.Abandon();  // no sync: the second record was never acked
  }
  auto reopened = WriteAheadLog::Open(path_, "c");
  ASSERT_TRUE(reopened.ok());
  // The synced prefix is always there; the abandoned suffix may or may
  // not be (stdio buffering), but replay never fails on it.
  ASSERT_GE(reopened->records.size(), 1u);
  EXPECT_EQ(reopened->records[0].payload, "durable");
}

TEST_F(WalTest, TornTailIsDroppedCleanly) {
  {
    auto opened = WriteAheadLog::Open(path_, "c");
    ASSERT_TRUE(opened.ok());
    auto& wal = *opened->wal;
    ASSERT_TRUE(wal.Append(1, "one").ok());
    ASSERT_TRUE(wal.Append(1, "two").ok());
    ASSERT_TRUE(wal.Append(1, std::string(500, 't')).ok());
    ASSERT_TRUE(wal.Sync().ok());
  }
  // Chop bytes off the end: the last record becomes a torn tail.
  const auto full_size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full_size - 17);
  auto reopened = WriteAheadLog::Open(path_, "c");
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_TRUE(reopened->tail_truncated);
  ASSERT_EQ(reopened->records.size(), 2u);
  EXPECT_EQ(reopened->records[1].payload, "two");
  // The torn suffix was physically truncated away: appending works and
  // a further reopen sees a clean log.
  ASSERT_TRUE(reopened->wal->Append(1, "three").ok());
  ASSERT_TRUE(reopened->wal->Sync().ok());
  auto again = WriteAheadLog::Open(path_, "c");
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->tail_truncated);
  ASSERT_EQ(again->records.size(), 3u);
  EXPECT_EQ(again->records[2].seq, 3u);
}

}  // namespace
}  // namespace approxql::storage
