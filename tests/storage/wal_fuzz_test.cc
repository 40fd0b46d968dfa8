// Randomized robustness of WAL replay — the storage counterpart of
// tests/net/wire_fuzz_test.cc. Whatever a crash
// (or bad disk) leaves in the files — truncated tails at every byte
// boundary, flipped bits anywhere including CRCs and the header,
// records spliced in from another log, duplicated or regressed
// sequence numbers — Open must never crash or hang: it either fails
// with a clean Corruption, or succeeds with a record list that is a
// strict prefix of what was actually written. Nothing past the first
// bad byte is ever replayed (a record after damage could otherwise
// resurrect un-acked state).
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fuzz/targets.h"
#include "storage/wal/wal.h"
#include "util/random.h"

namespace approxql::storage {
namespace {

// Same config string the shared fuzz/ WAL target opens with, so the
// damaged files this test constructs replay meaningfully through
// fuzz::FuzzWalReplay (a mismatched config would fail before parsing).
constexpr std::string_view kWalConfig = "fuzz-config";

// Routes raw WAL file bytes through the shared fuzz entry point — the
// identical contract check libFuzzer drives under -DAPPROXQL_FUZZ=ON.
void ReplayThroughWalFuzzTarget(std::string_view bytes) {
  EXPECT_EQ(fuzz::FuzzWalReplay(
                reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()),
            0);
}

std::string FuzzPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("approxql_walfuzz_" + name + "_" + std::to_string(::getpid())))
      .string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Builds a valid WAL at `path` and returns the payload of every record
/// (record i has seq i+1, type (i % 3) + 1).
std::vector<std::string> BuildValidWal(const std::string& path,
                                       std::string_view config,
                                       size_t num_records, util::Rng& rng) {
  std::filesystem::remove(path);
  auto opened = WriteAheadLog::Open(path, config);
  EXPECT_TRUE(opened.ok()) << opened.status();
  std::vector<std::string> payloads;
  for (size_t i = 0; i < num_records; ++i) {
    std::string payload(static_cast<size_t>(rng.UniformInt(0, 120)), ' ');
    for (char& c : payload) {
      c = static_cast<char>(rng.UniformInt(32, 126));
    }
    EXPECT_TRUE(
        (*opened).wal->Append(static_cast<uint32_t>(i % 3) + 1, payload).ok());
    payloads.push_back(std::move(payload));
  }
  EXPECT_TRUE((*opened).wal->Sync().ok());
  return payloads;
}

/// The fuzz invariant: opening `path` neither crashes nor returns
/// records that are not a prefix of `expected`.
void CheckPrefixOrCleanFailure(const std::string& path,
                               std::string_view config,
                               const std::vector<std::string>& expected) {
  auto opened = WriteAheadLog::Open(path, config);
  if (!opened.ok()) {
    // A clean typed failure (corrupt header / config mismatch) is an
    // acceptable outcome; a crash or hang is not, and gtest would have
    // caught either before we got here.
    EXPECT_TRUE(opened.status().IsCorruption() ||
                opened.status().code() == util::StatusCode::kIoError)
        << opened.status();
    return;
  }
  ASSERT_LE(opened->records.size(), expected.size());
  for (size_t i = 0; i < opened->records.size(); ++i) {
    EXPECT_EQ(opened->records[i].seq, i + 1) << "at record " << i;
    EXPECT_EQ(opened->records[i].payload, expected[i]) << "at record " << i;
  }
}

TEST(WalFuzzTest, TruncatedAtEveryByteBoundary) {
  util::Rng rng(0xda7a1);
  const std::string path = FuzzPath("trunc");
  auto payloads = BuildValidWal(path, kWalConfig, 10, rng);
  const std::string full = ReadFile(path);
  ASSERT_GT(full.size(), 0u);
  for (size_t cut = 0; cut <= full.size(); ++cut) {
    WriteFile(path, full.substr(0, cut));
    CheckPrefixOrCleanFailure(path, kWalConfig, payloads);
    ReplayThroughWalFuzzTarget(std::string_view(full).substr(0, cut));
  }
  std::filesystem::remove(path);
}

TEST(WalFuzzTest, SingleByteFlipsAnywhere) {
  util::Rng rng(0xf11b);
  const std::string path = FuzzPath("flip");
  auto payloads = BuildValidWal(path, kWalConfig, 8, rng);
  const std::string full = ReadFile(path);
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutated = full;
    const size_t pos = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(full.size()) - 1));
    mutated[pos] = static_cast<char>(mutated[pos] ^
                                     (1u << rng.UniformInt(0, 7)));
    WriteFile(path, mutated);
    CheckPrefixOrCleanFailure(path, kWalConfig, payloads);
    ReplayThroughWalFuzzTarget(mutated);
  }
  std::filesystem::remove(path);
}

TEST(WalFuzzTest, MultiByteGarbageSplices) {
  util::Rng rng(0x6a5b);
  const std::string path = FuzzPath("garbage");
  auto payloads = BuildValidWal(path, kWalConfig, 8, rng);
  const std::string full = ReadFile(path);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = full;
    const size_t pos = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(full.size()) - 1));
    const size_t len =
        std::min(static_cast<size_t>(rng.UniformInt(1, 32)),
                 mutated.size() - pos);
    for (size_t i = 0; i < len; ++i) {
      mutated[pos + i] = static_cast<char>(rng.UniformInt(0, 255));
    }
    WriteFile(path, mutated);
    CheckPrefixOrCleanFailure(path, kWalConfig, payloads);
    ReplayThroughWalFuzzTarget(mutated);
  }
  std::filesystem::remove(path);
}

TEST(WalFuzzTest, SplicedRecordsFromAnotherLog) {
  // A tail transplanted from a DIFFERENT log (same config, different
  // history) starts at the wrong sequence number: replay must stop at
  // the seam, never stitch the two histories together.
  util::Rng rng(0x5ea3);
  const std::string path_a = FuzzPath("splice_a");
  const std::string path_b = FuzzPath("splice_b");
  auto payloads_a = BuildValidWal(path_a, kWalConfig, 6, rng);
  BuildValidWal(path_b, kWalConfig, 12, rng);
  const std::string full_a = ReadFile(path_a);
  const std::string full_b = ReadFile(path_b);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t keep_a = static_cast<size_t>(
        rng.UniformInt(1, static_cast<int64_t>(full_a.size())));
    const size_t from_b = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(full_b.size()) - 1));
    WriteFile(path_a, full_a.substr(0, keep_a) + full_b.substr(from_b));
    CheckPrefixOrCleanFailure(path_a, kWalConfig, payloads_a);
  }
  std::filesystem::remove(path_a);
  std::filesystem::remove(path_b);
}

TEST(WalFuzzTest, DuplicatedRecordBytesStopReplay) {
  // Append a byte-exact copy of the final record: its sequence number
  // repeats, which replay must treat as a torn tail (stop before it),
  // not apply twice.
  util::Rng rng(0xd0b1e);
  const std::string path = FuzzPath("dup");
  auto payloads = BuildValidWal(path, kWalConfig, 1, rng);
  const std::string one = ReadFile(path);
  auto more = BuildValidWal(path, kWalConfig, 2, rng);
  const std::string two = ReadFile(path);
  ASSERT_GT(two.size(), one.size());
  // Seed the duplicate run with the 2-record file's own bytes so the
  // copied slice is its genuine record 2.
  const std::string record2 = two.substr(one.size());
  WriteFile(path, two + record2);
  auto opened = WriteAheadLog::Open(path, kWalConfig);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_TRUE(opened->tail_truncated);
  ASSERT_EQ(opened->records.size(), 2u);
  EXPECT_EQ(opened->records[0].payload, more[0]);
  EXPECT_EQ(opened->records[1].payload, more[1]);
  std::filesystem::remove(path);
}

TEST(WalFuzzTest, ReplayThenAppendHealsTheFile) {
  // After replaying any damaged file, the log must accept appends and
  // reopen cleanly — truncation really removed the bad suffix.
  util::Rng rng(0x4ea1);
  const std::string path = FuzzPath("heal");
  auto payloads = BuildValidWal(path, kWalConfig, 6, rng);
  const std::string full = ReadFile(path);
  for (int trial = 0; trial < 60; ++trial) {
    std::string mutated = full;
    const size_t pos = static_cast<size_t>(rng.UniformInt(
        static_cast<int64_t>(full.size()) / 2,
        static_cast<int64_t>(full.size()) - 1));
    mutated[pos] = static_cast<char>(~mutated[pos]);
    WriteFile(path, mutated);
    auto opened = WriteAheadLog::Open(path, kWalConfig);
    if (!opened.ok()) continue;  // header damage: nothing to heal
    const size_t kept = opened->records.size();
    ASSERT_TRUE(opened->wal->Append(5, "healed").ok());
    ASSERT_TRUE(opened->wal->Sync().ok());
    opened->wal.reset();
    auto reopened = WriteAheadLog::Open(path, kWalConfig);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_FALSE(reopened->tail_truncated);
    ASSERT_EQ(reopened->records.size(), kept + 1);
    EXPECT_EQ(reopened->records.back().payload, "healed");
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace approxql::storage
