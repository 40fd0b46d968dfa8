// The whole-file writer and reader every on-disk format goes through:
// round trip, typed errors, whole replacement of an existing file, and
// recovery from the temp file a crashed writer leaves behind.
#include "storage/file.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

namespace approxql::storage {
namespace {

class FileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("approxql_file_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "data").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(FileTest, RoundTrip) {
  std::string bytes = "header";
  bytes.push_back('\0');
  bytes += std::string(200000, 'x');  // spans several read buffers
  ASSERT_TRUE(WriteFileDurably(path_, bytes).ok());
  auto read = ReadWholeFile(path_);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, bytes);
  EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));

  ASSERT_TRUE(WriteFileDurably(path_, "").ok());
  read = ReadWholeFile(path_);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_TRUE(read->empty());
}

TEST_F(FileTest, MissingFileIsNotFound) {
  auto read = ReadWholeFile((dir_ / "absent").string());
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsNotFound()) << read.status();
}

TEST_F(FileTest, UnwritableDirectoryIsIoError) {
  const util::Status written =
      WriteFileDurably((dir_ / "no_such_dir" / "data").string(), "bytes");
  ASSERT_FALSE(written.ok());
  EXPECT_EQ(written.code(), util::StatusCode::kIoError) << written;
}

TEST_F(FileTest, ExistingTargetIsReplacedWhole) {
  ASSERT_TRUE(WriteFileDurably(path_, std::string(4096, 'a')).ok());
  ASSERT_TRUE(WriteFileDurably(path_, "short").ok());
  auto read = ReadWholeFile(path_);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, "short");  // no tail of the longer old content
}

TEST_F(FileTest, StaleTempFromCrashedWriterIsOverwritten) {
  ASSERT_TRUE(WriteFileDurably(path_, "old").ok());
  {
    // A writer that died after writing its temp file, before the rename.
    std::ofstream stale(path_ + ".tmp", std::ios::binary);
    stale << std::string(10000, 'z');
  }
  // The published file is untouched by the half-done write...
  auto before = ReadWholeFile(path_);
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ(*before, "old");
  // ...and the next write truncates the stale temp instead of appending.
  ASSERT_TRUE(WriteFileDurably(path_, "new").ok());
  auto after = ReadWholeFile(path_);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(*after, "new");
  EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
}

}  // namespace
}  // namespace approxql::storage
