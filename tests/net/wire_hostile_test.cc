// Hostile count-field tests: every wire decoder with a repeated section
// must reject a claimed element count that overruns the remaining payload
// BEFORE sizing any container. A few varint bytes must never drive a
// multi-gigabyte reserve(). Payloads are hand-built to match the encoder
// layouts in src/net/wire.cc.

#include <cstdint>
#include <string>

#include "gtest/gtest.h"
#include "net/wire.h"
#include "util/varint.h"

namespace approxql::net {
namespace {

// Large enough that a missing cap would request ~terabytes from the
// allocator; small enough to be a valid varint64.
constexpr uint64_t kHugeCount = uint64_t{1} << 40;

void PutString(std::string* out, std::string_view s) {
  util::PutVarint64(out, s.size());
  out->append(s);
}

TEST(WireHostileTest, QueryRequestHugeMinEpochCount) {
  std::string payload;
  PutString(&payload, "a");                // query
  util::PutVarint32(&payload, 1);          // strategy = kSchema
  util::PutVarint64(&payload, 10);         // n
  util::PutVarint64(&payload, 0);          // deadline (zigzag 0)
  util::PutVarint32(&payload, 0);          // bypass_cache
  util::PutVarint64(&payload, kHugeCount); // min_epochs count, no elements
  WireRequest out;
  util::Status st = DecodeQueryRequest(payload, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("overruns"), std::string::npos) << st.message();
}

TEST(WireHostileTest, QueryResponseHugeMissingShardCount) {
  std::string payload;
  util::PutVarint32(&payload, 0);          // status_code
  PutString(&payload, "");                 // status_message
  util::PutVarint32(&payload, 0);          // flags
  util::PutVarint64(&payload, kHugeCount); // missing_shards count
  WireResponse out;
  util::Status st = DecodeQueryResponse(payload, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("overruns"), std::string::npos) << st.message();
}

TEST(WireHostileTest, QueryResponseHugeAnswerCount) {
  std::string payload;
  util::PutVarint32(&payload, 0);          // status_code
  PutString(&payload, "");                 // status_message
  util::PutVarint32(&payload, 0);          // flags
  util::PutVarint64(&payload, 0);          // missing_shards count
  util::PutVarint64(&payload, 7);          // backend_epoch
  util::PutVarint64(&payload, kHugeCount); // answer count, no answers
  WireResponse out;
  util::Status st = DecodeQueryResponse(payload, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("overruns"), std::string::npos) << st.message();
}

// A count that fits the cap but not the payload must still fail cleanly
// on the element reads (truncation), not overrun.
TEST(WireHostileTest, QueryResponseCountJustPastPayload) {
  std::string payload;
  util::PutVarint32(&payload, 0);
  PutString(&payload, "");
  util::PutVarint32(&payload, 0);
  util::PutVarint64(&payload, 0);
  util::PutVarint64(&payload, 7);
  util::PutVarint64(&payload, 2);  // claims 2 answers...
  util::PutVarint64(&payload, 0);  // ...supplies 1 (cost, root, doc)
  util::PutVarint32(&payload, 1);
  util::PutVarint32(&payload, 1);
  WireResponse out;
  EXPECT_FALSE(DecodeQueryResponse(payload, &out).ok());
}

TEST(WireHostileTest, ShardAnswerHugeAnswerCount) {
  std::string payload;
  util::PutVarint32(&payload, 0);          // status_code
  PutString(&payload, "");                 // status_message
  util::PutVarint32(&payload, 0);          // fingerprint
  util::PutVarint32(&payload, 0);          // shard_index
  util::PutVarint64(&payload, 0);          // achieved_bound (zigzag 0)
  util::PutVarint32(&payload, 0);          // flags
  util::PutVarint64(&payload, 0);          // backend_epoch
  util::PutVarint64(&payload, kHugeCount); // answer count, no answers
  WireShardAnswer out;
  util::Status st = DecodeShardAnswer(payload, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("overruns"), std::string::npos) << st.message();
}

TEST(WireHostileTest, ManifestSliceHugeSpanCount) {
  std::string payload;
  util::PutVarint32(&payload, 0);          // status_code
  PutString(&payload, "");                 // status_message
  util::PutVarint32(&payload, 0);          // shard_index
  util::PutVarint64(&payload, 0);          // epoch
  util::PutVarint32(&payload, 0);          // fingerprint
  util::PutVarint64(&payload, kHugeCount); // span count, no spans
  WireManifestSlice out;
  util::Status st = DecodeManifestSlice(payload, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("overruns"), std::string::npos) << st.message();
}

// Length-prefixed strings share one helper; a huge claimed length must be
// rejected against the remaining bytes (here: the query string field).
TEST(WireHostileTest, QueryRequestHugeStringLength) {
  std::string payload;
  util::PutVarint64(&payload, kHugeCount);  // query length, 1 byte follows
  payload.push_back('a');
  WireRequest out;
  EXPECT_FALSE(DecodeQueryRequest(payload, &out).ok());
}

}  // namespace
}  // namespace approxql::net
