#include "net/wire.h"

#include <cstring>
#include <limits>
#include <utility>

#include "util/crc32.h"
#include "util/varint.h"

namespace approxql::net {

namespace {

constexpr size_t kLengthBytes = 4;
constexpr size_t kCrcBytes = 4;

void PutFixed32(std::string* dst, uint32_t value) {
  char buf[4];
  buf[0] = static_cast<char>(value & 0xff);
  buf[1] = static_cast<char>((value >> 8) & 0xff);
  buf[2] = static_cast<char>((value >> 16) & 0xff);
  buf[3] = static_cast<char>((value >> 24) & 0xff);
  dst->append(buf, 4);
}

uint32_t GetFixed32(const char* data) {
  return static_cast<uint32_t>(static_cast<unsigned char>(data[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(data[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(data[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(data[3])) << 24;
}

void PutLengthPrefixed(std::string* dst, std::string_view value) {
  util::PutVarint64(dst, value.size());
  dst->append(value);
}

util::Status GetLengthPrefixed(util::VarintReader* reader, std::string* out) {
  uint64_t size = 0;
  RETURN_IF_ERROR(reader->GetVarint64(&size));
  if (size > reader->remaining()) {
    return util::Status::Corruption("length-prefixed field overruns payload");
  }
  std::string_view bytes;
  RETURN_IF_ERROR(reader->GetBytes(static_cast<size_t>(size), &bytes));
  out->assign(bytes);
  return util::Status::OK();
}

}  // namespace

util::Status EncodeFrame(const FrameHeader& header, std::string_view payload,
                         std::string* out, size_t max_frame_bytes) {
  std::string body;
  body.reserve(payload.size() + 16);
  util::PutVarint32(&body, header.version);
  util::PutVarint64(&body, header.request_id);
  util::PutVarint32(&body, header.type);
  body.append(payload);
  const uint64_t length = static_cast<uint64_t>(body.size()) + kCrcBytes;
  if (length > max_frame_bytes ||
      length > std::numeric_limits<uint32_t>::max()) {
    return util::Status::ResourceExhausted(
        "frame body " + std::to_string(length) + " bytes exceeds limit " +
        std::to_string(max_frame_bytes));
  }
  PutFixed32(out, static_cast<uint32_t>(length));
  out->append(body);
  PutFixed32(out, util::Crc32c(body));
  return util::Status::OK();
}

FrameDecoder::Next FrameDecoder::Take(FrameHeader* header,
                                      std::string* payload,
                                      util::Status* error) {
  if (poisoned_) {
    *error = util::Status::Corruption("frame decoder poisoned by prior error");
    return Next::kError;
  }
  if (buffer_.size() < kLengthBytes) return Next::kNeedMore;
  const uint64_t length = GetFixed32(buffer_.data());
  if (length < kCrcBytes + 3 ||  // minimum body: three 1-byte varints
      length > max_frame_bytes_) {
    poisoned_ = true;
    *error = util::Status::Corruption(
        "frame length " + std::to_string(length) + " outside [7, " +
        std::to_string(max_frame_bytes_) + "]");
    return Next::kError;
  }
  if (buffer_.size() < kLengthBytes + length) return Next::kNeedMore;

  const std::string_view body(buffer_.data() + kLengthBytes,
                              static_cast<size_t>(length) - kCrcBytes);
  const uint32_t expected_crc =
      GetFixed32(buffer_.data() + kLengthBytes + body.size());
  if (util::Crc32c(body) != expected_crc) {
    poisoned_ = true;
    *error = util::Status::Corruption("frame CRC mismatch");
    return Next::kError;
  }

  util::VarintReader reader(body);
  util::Status st = reader.GetVarint32(&header->version);
  if (st.ok()) st = reader.GetVarint64(&header->request_id);
  if (st.ok()) st = reader.GetVarint32(&header->type);
  if (!st.ok()) {
    poisoned_ = true;
    *error = util::Status::Corruption("frame header: " + st.message());
    return Next::kError;
  }
  if (header->version != kProtocolVersion) {
    poisoned_ = true;
    *error = util::Status::Corruption(
        "protocol version " + std::to_string(header->version) +
        " (expected " + std::to_string(kProtocolVersion) + ")");
    return Next::kError;
  }
  payload->assign(body.substr(reader.position()));
  buffer_.erase(0, kLengthBytes + static_cast<size_t>(length));
  return Next::kFrame;
}

util::Status StatusFromWire(uint32_t code, std::string message) {
  if (code > static_cast<uint32_t>(util::StatusCode::kUnavailable)) {
    code = static_cast<uint32_t>(util::StatusCode::kInternal);
  }
  if (code == static_cast<uint32_t>(util::StatusCode::kOk)) {
    return util::Status::OK();
  }
  return util::Status(static_cast<util::StatusCode>(code), std::move(message));
}

namespace {

util::Status DecodeStrategy(uint32_t raw, engine::Strategy* out) {
  switch (raw) {
    case static_cast<uint32_t>(engine::Strategy::kDirect):
    case static_cast<uint32_t>(engine::Strategy::kSchema):
    case static_cast<uint32_t>(engine::Strategy::kFullScan):
      *out = static_cast<engine::Strategy>(raw);
      return util::Status::OK();
    default:
      return util::Status::InvalidArgument("unknown strategy " +
                                           std::to_string(raw));
  }
}

}  // namespace

std::string EncodeQueryRequest(const WireRequest& request) {
  std::string out;
  PutLengthPrefixed(&out, request.query);
  util::PutVarint32(&out, static_cast<uint32_t>(request.strategy));
  util::PutVarint64(&out, request.n);
  util::PutVarint64(&out, util::ZigZagEncode(request.deadline_ms));
  util::PutVarint32(&out, request.bypass_cache ? 1 : 0);
  util::PutVarint64(&out, request.min_epochs.size());
  for (uint64_t epoch : request.min_epochs) {
    util::PutVarint64(&out, epoch);
  }
  return out;
}

util::Status DecodeQueryRequest(std::string_view payload, WireRequest* out) {
  util::VarintReader reader(payload);
  RETURN_IF_ERROR(GetLengthPrefixed(&reader, &out->query));
  uint32_t strategy = 0;
  RETURN_IF_ERROR(reader.GetVarint32(&strategy));
  RETURN_IF_ERROR(DecodeStrategy(strategy, &out->strategy));
  RETURN_IF_ERROR(reader.GetVarint64(&out->n));
  uint64_t deadline = 0;
  RETURN_IF_ERROR(reader.GetVarint64(&deadline));
  out->deadline_ms = util::ZigZagDecode(deadline);
  uint32_t bypass = 0;
  RETURN_IF_ERROR(reader.GetVarint32(&bypass));
  out->bypass_cache = bypass != 0;
  uint64_t floors = 0;
  RETURN_IF_ERROR(reader.GetVarint64(&floors));
  // Each floor is at least 1 byte.
  if (floors > reader.remaining()) {
    return util::Status::Corruption("min-epoch count overruns payload");
  }
  out->min_epochs.clear();
  out->min_epochs.reserve(static_cast<size_t>(floors));
  for (uint64_t i = 0; i < floors; ++i) {
    uint64_t epoch = 0;
    RETURN_IF_ERROR(reader.GetVarint64(&epoch));
    out->min_epochs.push_back(epoch);
  }
  if (!reader.empty()) {
    return util::Status::Corruption("trailing bytes after query request");
  }
  return util::Status::OK();
}

std::string EncodeQueryResponse(const WireResponse& response) {
  std::string out;
  util::PutVarint32(&out, response.status_code);
  PutLengthPrefixed(&out, response.status_message);
  util::PutVarint32(&out, (response.truncated ? 1 : 0) |
                              (response.cache_hit ? 2 : 0) |
                              (response.degraded ? 4 : 0));
  util::PutVarint64(&out, response.missing_shards.size());
  for (uint32_t shard : response.missing_shards) {
    util::PutVarint32(&out, shard);
  }
  util::PutVarint64(&out, response.backend_epoch);
  util::PutVarint64(&out, response.answers.size());
  for (const WireAnswer& answer : response.answers) {
    util::PutVarint64(&out, util::ZigZagEncode(answer.cost));
    util::PutVarint32(&out, answer.root);
    util::PutVarint32(&out, answer.doc);
  }
  return out;
}

util::Status DecodeQueryResponse(std::string_view payload, WireResponse* out) {
  util::VarintReader reader(payload);
  RETURN_IF_ERROR(reader.GetVarint32(&out->status_code));
  RETURN_IF_ERROR(GetLengthPrefixed(&reader, &out->status_message));
  uint32_t flags = 0;
  RETURN_IF_ERROR(reader.GetVarint32(&flags));
  out->truncated = (flags & 1) != 0;
  out->cache_hit = (flags & 2) != 0;
  out->degraded = (flags & 4) != 0;
  uint64_t missing = 0;
  RETURN_IF_ERROR(reader.GetVarint64(&missing));
  // Each missing-shard id is at least 1 byte.
  if (missing > reader.remaining()) {
    return util::Status::Corruption("missing-shard count overruns payload");
  }
  out->missing_shards.clear();
  out->missing_shards.reserve(static_cast<size_t>(missing));
  for (uint64_t i = 0; i < missing; ++i) {
    uint32_t shard = 0;
    RETURN_IF_ERROR(reader.GetVarint32(&shard));
    out->missing_shards.push_back(shard);
  }
  RETURN_IF_ERROR(reader.GetVarint64(&out->backend_epoch));
  uint64_t count = 0;
  RETURN_IF_ERROR(reader.GetVarint64(&count));
  // Each answer is at least 3 bytes; a count beyond that bound cannot
  // be satisfied by the remaining payload.
  if (count > reader.remaining() / 3) {
    return util::Status::Corruption("answer count overruns payload");
  }
  out->answers.clear();
  out->answers.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    WireAnswer answer;
    uint64_t cost = 0;
    RETURN_IF_ERROR(reader.GetVarint64(&cost));
    answer.cost = util::ZigZagDecode(cost);
    RETURN_IF_ERROR(reader.GetVarint32(&answer.root));
    RETURN_IF_ERROR(reader.GetVarint32(&answer.doc));
    out->answers.push_back(answer);
  }
  if (!reader.empty()) {
    return util::Status::Corruption("trailing bytes after query response");
  }
  return util::Status::OK();
}

std::string EncodeShardQuery(const WireShardQuery& query) {
  std::string out;
  PutLengthPrefixed(&out, query.query);
  util::PutVarint32(&out, static_cast<uint32_t>(query.strategy));
  util::PutVarint64(&out, query.n);
  util::PutVarint64(&out, util::ZigZagEncode(query.cost_bound));
  util::PutVarint64(&out, util::ZigZagEncode(query.deadline_ms));
  return out;
}

util::Status DecodeShardQuery(std::string_view payload, WireShardQuery* out) {
  util::VarintReader reader(payload);
  RETURN_IF_ERROR(GetLengthPrefixed(&reader, &out->query));
  uint32_t strategy = 0;
  RETURN_IF_ERROR(reader.GetVarint32(&strategy));
  RETURN_IF_ERROR(DecodeStrategy(strategy, &out->strategy));
  RETURN_IF_ERROR(reader.GetVarint64(&out->n));
  uint64_t bound = 0;
  RETURN_IF_ERROR(reader.GetVarint64(&bound));
  out->cost_bound = util::ZigZagDecode(bound);
  uint64_t deadline = 0;
  RETURN_IF_ERROR(reader.GetVarint64(&deadline));
  out->deadline_ms = util::ZigZagDecode(deadline);
  if (!reader.empty()) {
    return util::Status::Corruption("trailing bytes after shard query");
  }
  return util::Status::OK();
}

std::string EncodeShardAnswer(const WireShardAnswer& answer) {
  std::string out;
  util::PutVarint32(&out, answer.status_code);
  PutLengthPrefixed(&out, answer.status_message);
  util::PutVarint32(&out, answer.fingerprint);
  util::PutVarint32(&out, answer.shard_index);
  util::PutVarint64(&out, util::ZigZagEncode(answer.achieved_bound));
  util::PutVarint32(&out, answer.truncated ? 1 : 0);
  util::PutVarint64(&out, answer.backend_epoch);
  util::PutVarint64(&out, answer.answers.size());
  for (const WireAnswer& hit : answer.answers) {
    util::PutVarint64(&out, util::ZigZagEncode(hit.cost));
    util::PutVarint32(&out, hit.root);
  }
  return out;
}

util::Status DecodeShardAnswer(std::string_view payload,
                               WireShardAnswer* out) {
  util::VarintReader reader(payload);
  RETURN_IF_ERROR(reader.GetVarint32(&out->status_code));
  RETURN_IF_ERROR(GetLengthPrefixed(&reader, &out->status_message));
  RETURN_IF_ERROR(reader.GetVarint32(&out->fingerprint));
  RETURN_IF_ERROR(reader.GetVarint32(&out->shard_index));
  uint64_t bound = 0;
  RETURN_IF_ERROR(reader.GetVarint64(&bound));
  out->achieved_bound = util::ZigZagDecode(bound);
  uint32_t flags = 0;
  RETURN_IF_ERROR(reader.GetVarint32(&flags));
  out->truncated = (flags & 1) != 0;
  RETURN_IF_ERROR(reader.GetVarint64(&out->backend_epoch));
  uint64_t count = 0;
  RETURN_IF_ERROR(reader.GetVarint64(&count));
  // Each answer is at least 2 bytes (cost varint + root varint).
  if (count > reader.remaining() / 2) {
    return util::Status::Corruption("answer count overruns payload");
  }
  out->answers.clear();
  out->answers.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    WireAnswer hit;
    uint64_t cost = 0;
    RETURN_IF_ERROR(reader.GetVarint64(&cost));
    hit.cost = util::ZigZagDecode(cost);
    RETURN_IF_ERROR(reader.GetVarint32(&hit.root));
    out->answers.push_back(hit);
  }
  if (!reader.empty()) {
    return util::Status::Corruption("trailing bytes after shard answer");
  }
  return util::Status::OK();
}

std::string EncodePong(const WirePong& pong) {
  std::string out;
  util::PutVarint32(&out, pong.fingerprint);
  util::PutVarint32(&out, pong.shard_index);
  util::PutVarint64(&out, pong.epoch);
  return out;
}

util::Status DecodePong(std::string_view payload, WirePong* out) {
  util::VarintReader reader(payload);
  RETURN_IF_ERROR(reader.GetVarint32(&out->fingerprint));
  RETURN_IF_ERROR(reader.GetVarint32(&out->shard_index));
  RETURN_IF_ERROR(reader.GetVarint64(&out->epoch));
  if (!reader.empty()) {
    return util::Status::Corruption("trailing bytes after pong");
  }
  return util::Status::OK();
}

std::string EncodeIngest(const WireIngest& ingest) {
  std::string out;
  util::PutVarint32(&out, static_cast<uint32_t>(ingest.op));
  PutLengthPrefixed(&out, ingest.xml);
  util::PutVarint32(&out, ingest.doc_root);
  util::PutVarint32(&out, ingest.assigned_global);
  return out;
}

util::Status DecodeIngest(std::string_view payload, WireIngest* out) {
  util::VarintReader reader(payload);
  uint32_t op = 0;
  RETURN_IF_ERROR(reader.GetVarint32(&op));
  if (op != static_cast<uint32_t>(WireIngest::Op::kAdd) &&
      op != static_cast<uint32_t>(WireIngest::Op::kRemove)) {
    return util::Status::Corruption("unknown ingest op " + std::to_string(op));
  }
  out->op = static_cast<WireIngest::Op>(op);
  RETURN_IF_ERROR(GetLengthPrefixed(&reader, &out->xml));
  RETURN_IF_ERROR(reader.GetVarint32(&out->doc_root));
  RETURN_IF_ERROR(reader.GetVarint32(&out->assigned_global));
  if (!reader.empty()) {
    return util::Status::Corruption("trailing bytes after ingest");
  }
  return util::Status::OK();
}

std::string EncodeIngestAck(const WireIngestAck& ack) {
  std::string out;
  util::PutVarint32(&out, ack.status_code);
  PutLengthPrefixed(&out, ack.status_message);
  util::PutVarint64(&out, ack.seq);
  util::PutVarint64(&out, ack.epoch);
  util::PutVarint32(&out, ack.doc_root);
  util::PutVarint32(&out, ack.shard_index);
  util::PutVarint32(&out, ack.length);
  return out;
}

util::Status DecodeIngestAck(std::string_view payload, WireIngestAck* out) {
  util::VarintReader reader(payload);
  RETURN_IF_ERROR(reader.GetVarint32(&out->status_code));
  RETURN_IF_ERROR(GetLengthPrefixed(&reader, &out->status_message));
  RETURN_IF_ERROR(reader.GetVarint64(&out->seq));
  RETURN_IF_ERROR(reader.GetVarint64(&out->epoch));
  RETURN_IF_ERROR(reader.GetVarint32(&out->doc_root));
  RETURN_IF_ERROR(reader.GetVarint32(&out->shard_index));
  RETURN_IF_ERROR(reader.GetVarint32(&out->length));
  if (!reader.empty()) {
    return util::Status::Corruption("trailing bytes after ingest ack");
  }
  return util::Status::OK();
}

std::string EncodeManifestFetch(const WireManifestFetch& fetch) {
  std::string out;
  util::PutVarint32(&out, fetch.subscribe ? 1 : 0);
  return out;
}

util::Status DecodeManifestFetch(std::string_view payload,
                                 WireManifestFetch* out) {
  util::VarintReader reader(payload);
  uint32_t subscribe = 0;
  RETURN_IF_ERROR(reader.GetVarint32(&subscribe));
  out->subscribe = subscribe != 0;
  if (!reader.empty()) {
    return util::Status::Corruption("trailing bytes after manifest fetch");
  }
  return util::Status::OK();
}

std::string EncodeManifestSlice(const WireManifestSlice& slice) {
  std::string out;
  util::PutVarint32(&out, slice.status_code);
  PutLengthPrefixed(&out, slice.status_message);
  util::PutVarint32(&out, slice.shard_index);
  util::PutVarint64(&out, slice.epoch);
  util::PutVarint32(&out, slice.fingerprint);
  util::PutVarint64(&out, slice.spans.size());
  for (const shard::DocSpan& span : slice.spans) {
    util::PutVarint32(&out, span.local_start);
    util::PutVarint32(&out, span.global_start);
    util::PutVarint32(&out, span.length);
  }
  return out;
}

util::Status DecodeManifestSlice(std::string_view payload,
                                 WireManifestSlice* out) {
  util::VarintReader reader(payload);
  RETURN_IF_ERROR(reader.GetVarint32(&out->status_code));
  RETURN_IF_ERROR(GetLengthPrefixed(&reader, &out->status_message));
  RETURN_IF_ERROR(reader.GetVarint32(&out->shard_index));
  RETURN_IF_ERROR(reader.GetVarint64(&out->epoch));
  RETURN_IF_ERROR(reader.GetVarint32(&out->fingerprint));
  uint64_t count = 0;
  RETURN_IF_ERROR(reader.GetVarint64(&count));
  // Each span is at least 3 bytes (three varints).
  if (count > reader.remaining() / 3) {
    return util::Status::Corruption("span count overruns payload");
  }
  out->spans.clear();
  out->spans.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    shard::DocSpan span;
    RETURN_IF_ERROR(reader.GetVarint32(&span.local_start));
    RETURN_IF_ERROR(reader.GetVarint32(&span.global_start));
    RETURN_IF_ERROR(reader.GetVarint32(&span.length));
    out->spans.push_back(span);
  }
  if (!reader.empty()) {
    return util::Status::Corruption("trailing bytes after manifest slice");
  }
  return util::Status::OK();
}

std::string EncodeManifestDelta(const WireManifestDelta& delta) {
  std::string out;
  util::PutVarint32(&out, delta.shard_index);
  util::PutVarint64(&out, delta.prev_epoch);
  util::PutVarint64(&out, delta.epoch);
  util::PutVarint32(&out, static_cast<uint32_t>(delta.op));
  util::PutVarint32(&out, delta.span.local_start);
  util::PutVarint32(&out, delta.span.global_start);
  util::PutVarint32(&out, delta.span.length);
  return out;
}

util::Status DecodeManifestDelta(std::string_view payload,
                                 WireManifestDelta* out) {
  util::VarintReader reader(payload);
  RETURN_IF_ERROR(reader.GetVarint32(&out->shard_index));
  RETURN_IF_ERROR(reader.GetVarint64(&out->prev_epoch));
  RETURN_IF_ERROR(reader.GetVarint64(&out->epoch));
  uint32_t op = 0;
  RETURN_IF_ERROR(reader.GetVarint32(&op));
  if (op != static_cast<uint32_t>(WireManifestDelta::Op::kAdd) &&
      op != static_cast<uint32_t>(WireManifestDelta::Op::kRemove)) {
    return util::Status::Corruption("unknown manifest delta op " +
                                    std::to_string(op));
  }
  out->op = static_cast<WireManifestDelta::Op>(op);
  RETURN_IF_ERROR(reader.GetVarint32(&out->span.local_start));
  RETURN_IF_ERROR(reader.GetVarint32(&out->span.global_start));
  RETURN_IF_ERROR(reader.GetVarint32(&out->span.length));
  if (!reader.empty()) {
    return util::Status::Corruption("trailing bytes after manifest delta");
  }
  return util::Status::OK();
}

}  // namespace approxql::net
