#include "net/wire.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/crc32.h"
#include "util/random.h"

namespace approxql::net {
namespace {

FrameHeader MakeHeader(uint64_t request_id, MessageType type) {
  return FrameHeader{kProtocolVersion, request_id,
                     static_cast<uint32_t>(type)};
}

TEST(FrameTest, RoundTripSingleFrame) {
  std::string wire;
  ASSERT_TRUE(
      EncodeFrame(MakeHeader(42, MessageType::kQueryRequest), "hello", &wire)
          .ok());
  FrameDecoder decoder;
  decoder.Append(wire.data(), wire.size());
  FrameHeader header;
  std::string payload;
  util::Status error;
  ASSERT_EQ(decoder.Take(&header, &payload, &error),
            FrameDecoder::Next::kFrame);
  EXPECT_EQ(header.version, kProtocolVersion);
  EXPECT_EQ(header.request_id, 42u);
  EXPECT_EQ(header.type, static_cast<uint32_t>(MessageType::kQueryRequest));
  EXPECT_EQ(payload, "hello");
  EXPECT_EQ(decoder.Take(&header, &payload, &error),
            FrameDecoder::Next::kNeedMore);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameTest, EmptyPayloadFrame) {
  std::string wire;
  ASSERT_TRUE(
      EncodeFrame(MakeHeader(0, MessageType::kMetricsDump), "", &wire).ok());
  FrameDecoder decoder;
  decoder.Append(wire.data(), wire.size());
  FrameHeader header;
  std::string payload;
  util::Status error;
  ASSERT_EQ(decoder.Take(&header, &payload, &error),
            FrameDecoder::Next::kFrame);
  EXPECT_TRUE(payload.empty());
}

TEST(FrameTest, ByteAtATimeDelivery) {
  // The decoder must reassemble a frame no matter how the TCP stream
  // fragments it — the worst case is one byte per read.
  std::string wire;
  std::string big_payload(1000, 'x');
  ASSERT_TRUE(
      EncodeFrame(MakeHeader(7, MessageType::kQueryResponse), big_payload,
                  &wire)
          .ok());
  FrameDecoder decoder;
  FrameHeader header;
  std::string payload;
  util::Status error;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    decoder.Append(&wire[i], 1);
    ASSERT_EQ(decoder.Take(&header, &payload, &error),
              FrameDecoder::Next::kNeedMore)
        << "frame complete after only " << i + 1 << " bytes";
  }
  decoder.Append(&wire[wire.size() - 1], 1);
  ASSERT_EQ(decoder.Take(&header, &payload, &error),
            FrameDecoder::Next::kFrame);
  EXPECT_EQ(payload, big_payload);
}

TEST(FrameTest, MultipleFramesPerRead) {
  std::string wire;
  for (uint64_t id = 1; id <= 5; ++id) {
    ASSERT_TRUE(EncodeFrame(MakeHeader(id, MessageType::kQueryRequest),
                            "payload" + std::to_string(id), &wire)
                    .ok());
  }
  FrameDecoder decoder;
  decoder.Append(wire.data(), wire.size());
  for (uint64_t id = 1; id <= 5; ++id) {
    FrameHeader header;
    std::string payload;
    util::Status error;
    ASSERT_EQ(decoder.Take(&header, &payload, &error),
              FrameDecoder::Next::kFrame);
    EXPECT_EQ(header.request_id, id);
    EXPECT_EQ(payload, "payload" + std::to_string(id));
  }
}

TEST(FrameTest, RandomizedSplitRoundTrip) {
  util::Rng rng(20020802);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::string> payloads;
    std::string wire;
    const size_t frames = 1 + rng.Uniform(4);
    for (size_t f = 0; f < frames; ++f) {
      std::string payload(rng.Uniform(300), '\0');
      for (char& c : payload) c = static_cast<char>(rng.Uniform(256));
      ASSERT_TRUE(EncodeFrame(MakeHeader(f, MessageType::kQueryResponse),
                              payload, &wire)
                      .ok());
      payloads.push_back(std::move(payload));
    }
    FrameDecoder decoder;
    size_t delivered = 0, taken = 0;
    while (taken < frames) {
      if (delivered < wire.size()) {
        size_t chunk = 1 + rng.Uniform(64);
        chunk = std::min(chunk, wire.size() - delivered);
        decoder.Append(wire.data() + delivered, chunk);
        delivered += chunk;
      }
      FrameHeader header;
      std::string payload;
      util::Status error;
      FrameDecoder::Next next = decoder.Take(&header, &payload, &error);
      ASSERT_NE(next, FrameDecoder::Next::kError) << error;
      if (next == FrameDecoder::Next::kFrame) {
        ASSERT_LT(taken, payloads.size());
        EXPECT_EQ(header.request_id, taken);
        EXPECT_EQ(payload, payloads[taken]);
        ++taken;
      }
    }
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

TEST(FrameTest, CorruptedByteFailsCrc) {
  std::string wire;
  ASSERT_TRUE(
      EncodeFrame(MakeHeader(9, MessageType::kQueryRequest), "payload", &wire)
          .ok());
  wire[6] = static_cast<char>(wire[6] ^ 0x40);  // flip a bit inside the body
  FrameDecoder decoder;
  decoder.Append(wire.data(), wire.size());
  FrameHeader header;
  std::string payload;
  util::Status error;
  ASSERT_EQ(decoder.Take(&header, &payload, &error),
            FrameDecoder::Next::kError);
  EXPECT_TRUE(error.IsCorruption());
  // Poisoned: even valid bytes afterwards don't resurrect the stream.
  std::string good;
  ASSERT_TRUE(
      EncodeFrame(MakeHeader(10, MessageType::kQueryRequest), "x", &good)
          .ok());
  decoder.Append(good.data(), good.size());
  EXPECT_EQ(decoder.Take(&header, &payload, &error),
            FrameDecoder::Next::kError);
}

TEST(FrameTest, EncodeRejectsBodyOverFrameLimit) {
  // The sender must enforce the same bound the receiver does — an
  // oversized frame on the wire would poison the peer's decoder.
  std::string wire;
  std::string payload(2000, 'x');
  util::Status status =
      EncodeFrame(MakeHeader(1, MessageType::kQueryResponse), payload, &wire,
                  /*max_frame_bytes=*/1024);
  EXPECT_TRUE(status.IsResourceExhausted()) << status;
  EXPECT_TRUE(wire.empty()) << "failed encode must not emit partial bytes";

  // Just under the limit still encodes and decodes.
  std::string small(900, 'x');
  ASSERT_TRUE(EncodeFrame(MakeHeader(2, MessageType::kQueryResponse), small,
                          &wire, /*max_frame_bytes=*/1024)
                  .ok());
  FrameDecoder decoder(/*max_frame_bytes=*/1024);
  decoder.Append(wire.data(), wire.size());
  FrameHeader header;
  std::string decoded;
  util::Status error;
  ASSERT_EQ(decoder.Take(&header, &decoded, &error),
            FrameDecoder::Next::kFrame);
  EXPECT_EQ(decoded, small);
}

TEST(FrameTest, OversizedLengthRejectedBeforeBuffering) {
  FrameDecoder decoder(/*max_frame_bytes=*/1024);
  // A 4-byte prefix claiming 1 MiB must fail immediately — the decoder
  // must not wait for a megabyte that may never come.
  const uint32_t huge = 1u << 20;
  char prefix[4] = {static_cast<char>(huge & 0xff),
                    static_cast<char>((huge >> 8) & 0xff),
                    static_cast<char>((huge >> 16) & 0xff),
                    static_cast<char>((huge >> 24) & 0xff)};
  decoder.Append(prefix, sizeof(prefix));
  FrameHeader header;
  std::string payload;
  util::Status error;
  ASSERT_EQ(decoder.Take(&header, &payload, &error),
            FrameDecoder::Next::kError);
  EXPECT_TRUE(error.IsCorruption());
}

TEST(FrameTest, UndersizedLengthRejected) {
  FrameDecoder decoder;
  const char prefix[4] = {2, 0, 0, 0};  // body smaller than any header
  decoder.Append(prefix, sizeof(prefix));
  FrameHeader header;
  std::string payload;
  util::Status error;
  EXPECT_EQ(decoder.Take(&header, &payload, &error),
            FrameDecoder::Next::kError);
}

TEST(FrameTest, WrongProtocolVersionRejected) {
  // Hand-build a frame with version 99 and a valid CRC.
  std::string body;
  body.push_back(99);  // version varint
  body.push_back(1);   // request id
  body.push_back(1);   // type
  std::string wire;
  const uint32_t length = static_cast<uint32_t>(body.size() + 4);
  wire.push_back(static_cast<char>(length & 0xff));
  wire.push_back(static_cast<char>((length >> 8) & 0xff));
  wire.push_back(static_cast<char>((length >> 16) & 0xff));
  wire.push_back(static_cast<char>((length >> 24) & 0xff));
  wire += body;
  const uint32_t crc = util::Crc32c(body);
  wire.push_back(static_cast<char>(crc & 0xff));
  wire.push_back(static_cast<char>((crc >> 8) & 0xff));
  wire.push_back(static_cast<char>((crc >> 16) & 0xff));
  wire.push_back(static_cast<char>((crc >> 24) & 0xff));

  FrameDecoder decoder;
  decoder.Append(wire.data(), wire.size());
  FrameHeader header;
  std::string payload;
  util::Status error;
  ASSERT_EQ(decoder.Take(&header, &payload, &error),
            FrameDecoder::Next::kError);
  EXPECT_NE(error.message().find("version"), std::string::npos);
}

TEST(PayloadTest, QueryRequestRoundTrip) {
  WireRequest request;
  request.query = R"(cd[title["piano" and "concerto"]])";
  request.strategy = engine::Strategy::kDirect;
  request.n = std::numeric_limits<uint64_t>::max();  // "all results"
  request.deadline_ms = -1;  // negative deadlines must survive (tests)
  request.bypass_cache = true;

  WireRequest decoded;
  ASSERT_TRUE(DecodeQueryRequest(EncodeQueryRequest(request), &decoded).ok());
  EXPECT_EQ(decoded.query, request.query);
  EXPECT_EQ(decoded.strategy, request.strategy);
  EXPECT_EQ(decoded.n, request.n);
  EXPECT_EQ(decoded.deadline_ms, request.deadline_ms);
  EXPECT_EQ(decoded.bypass_cache, request.bypass_cache);
}

TEST(PayloadTest, QueryResponseRoundTrip) {
  WireResponse response;
  response.status_code = static_cast<uint32_t>(util::StatusCode::kOk);
  response.truncated = true;
  response.cache_hit = false;
  response.answers = {{0, 5, 1}, {17, 123456, 99}, {-3, 7, 7}};

  WireResponse decoded;
  ASSERT_TRUE(
      DecodeQueryResponse(EncodeQueryResponse(response), &decoded).ok());
  EXPECT_EQ(decoded.status_code, response.status_code);
  EXPECT_TRUE(decoded.truncated);
  EXPECT_FALSE(decoded.cache_hit);
  ASSERT_EQ(decoded.answers.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(decoded.answers[i].cost, response.answers[i].cost);
    EXPECT_EQ(decoded.answers[i].root, response.answers[i].root);
    EXPECT_EQ(decoded.answers[i].doc, response.answers[i].doc);
  }

  // The status survives the round trip and maps back to util::Status; a
  // code from beyond the known range (a newer peer) degrades to kInternal.
  const std::pair<uint32_t, util::StatusCode> codes[] = {
      {static_cast<uint32_t>(util::StatusCode::kOk), util::StatusCode::kOk},
      {static_cast<uint32_t>(util::StatusCode::kUnavailable),
       util::StatusCode::kUnavailable},
      {200, util::StatusCode::kInternal},
  };
  for (const auto& [wire_code, expected] : codes) {
    response.status_code = wire_code;
    response.status_message = "why";
    ASSERT_TRUE(
        DecodeQueryResponse(EncodeQueryResponse(response), &decoded).ok());
    util::Status status =
        StatusFromWire(decoded.status_code, decoded.status_message);
    EXPECT_EQ(status.code(), expected) << wire_code;
    EXPECT_EQ(status.message(), status.ok() ? "" : "why") << wire_code;
  }
}

TEST(PayloadTest, TruncatedRequestPayloadFails) {
  WireRequest request;
  request.query = "cd[title]";
  std::string payload = EncodeQueryRequest(request);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    WireRequest decoded;
    EXPECT_FALSE(
        DecodeQueryRequest(payload.substr(0, cut), &decoded).ok())
        << "decoded from only " << cut << " bytes";
  }
}

TEST(PayloadTest, BadStrategyRejected) {
  std::string payload;
  payload.push_back(2);  // query length 2
  payload += "ab";
  payload.push_back(77);  // strategy 77: not a Strategy
  payload.push_back(1);   // n
  payload.push_back(0);   // deadline
  payload.push_back(0);   // bypass
  WireRequest decoded;
  util::Status status = DecodeQueryRequest(payload, &decoded);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("strategy"), std::string::npos);
}

TEST(PayloadTest, AnswerCountOverrunRejected) {
  // A response claiming a billion answers in a 10-byte payload must be
  // rejected by arithmetic, not by allocating a billion entries.
  std::string payload;
  payload.push_back(0);  // status ok
  payload.push_back(0);  // empty message
  payload.push_back(0);  // flags
  // count = 1e9 as varint
  uint64_t count = 1000000000;
  while (count >= 0x80) {
    payload.push_back(static_cast<char>(count | 0x80));
    count >>= 7;
  }
  payload.push_back(static_cast<char>(count));
  payload += "xy";
  WireResponse decoded;
  util::Status status = DecodeQueryResponse(payload, &decoded);
  EXPECT_TRUE(status.IsCorruption());
}

TEST(PayloadTest, RandomizedResponseRoundTrip) {
  util::Rng rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    WireResponse response;
    response.status_code = static_cast<uint32_t>(rng.Uniform(11));
    response.status_message = std::string(rng.Uniform(40), 'm');
    response.truncated = rng.Uniform(2) == 1;
    response.cache_hit = rng.Uniform(2) == 1;
    const size_t answers = rng.Uniform(50);
    for (size_t i = 0; i < answers; ++i) {
      WireAnswer answer;
      answer.cost = rng.UniformInt(-1000000, 1000000);
      answer.root = static_cast<doc::NodeId>(rng.Next() & 0xffffffff);
      answer.doc = static_cast<doc::NodeId>(rng.Next() & 0xffffffff);
      response.answers.push_back(answer);
    }
    WireResponse decoded;
    ASSERT_TRUE(
        DecodeQueryResponse(EncodeQueryResponse(response), &decoded).ok());
    EXPECT_EQ(decoded.status_code, response.status_code);
    EXPECT_EQ(decoded.status_message, response.status_message);
    ASSERT_EQ(decoded.answers.size(), response.answers.size());
    for (size_t i = 0; i < response.answers.size(); ++i) {
      EXPECT_EQ(decoded.answers[i].cost, response.answers[i].cost);
      EXPECT_EQ(decoded.answers[i].root, response.answers[i].root);
      EXPECT_EQ(decoded.answers[i].doc, response.answers[i].doc);
    }
  }
}

}  // namespace
}  // namespace approxql::net
