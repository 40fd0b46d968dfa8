#include "dist/remote_shard.h"

#include <type_traits>
#include <utility>

namespace approxql::dist {

const char* ToString(ShardHealth health) {
  switch (health) {
    case ShardHealth::kUp:
      return "UP";
    case ShardHealth::kSuspect:
      return "SUSPECT";
    case ShardHealth::kDown:
      return "DOWN";
  }
  return "?";
}

namespace {

net::AsyncClientOptions TransportOptions(const RemoteShardOptions& options) {
  net::AsyncClientOptions transport;
  transport.host = options.host;
  transport.port = options.port;
  transport.connect_timeout_ms = options.connect_timeout_ms;
  transport.max_frame_bytes = options.max_frame_bytes;
  transport.reconnect_backoff_ms = options.reconnect_backoff_ms;
  transport.reconnect_backoff_cap_ms = options.reconnect_backoff_cap_ms;
  if (options.on_delta) {
    transport.on_push = [on_delta = options.on_delta](
                            const net::FrameHeader& header,
                            std::string_view payload) {
      if (header.type !=
          static_cast<uint32_t>(net::MessageType::kManifestDelta)) {
        return;  // unknown push type; ignore
      }
      net::WireManifestDelta delta;
      if (net::DecodeManifestDelta(payload, &delta).ok()) {
        // A malformed delta is simply dropped: the receiver's epoch
        // chain gaps and the next delta forces a full slice fetch.
        on_delta(delta);
      }
    };
  }
  return transport;
}

}  // namespace

RemoteShardBackend::RemoteShardBackend(uint32_t shard_index,
                                       RemoteShardOptions options)
    : shard_index_(shard_index),
      options_(std::move(options)),
      client_(TransportOptions(options_)) {}

RemoteShardBackend::~RemoteShardBackend() { Shutdown(); }

util::Status RemoteShardBackend::Start() { return client_.Start(); }

void RemoteShardBackend::Shutdown() { client_.Shutdown(); }

ShardHealth RemoteShardBackend::health() const {
  util::MutexLock lock(&mu_);
  return health_;
}

void RemoteShardBackend::RecordOutcome(bool success) {
  util::MutexLock lock(&mu_);
  if (success) {
    consecutive_failures_ = 0;
    health_ = ShardHealth::kUp;
    return;
  }
  ++consecutive_failures_;
  health_ = consecutive_failures_ >= options_.failures_to_down
                ? ShardHealth::kDown
                : ShardHealth::kSuspect;
}

template <typename Payload>
util::Result<Payload> RemoteShardBackend::CheckReply(
    util::Result<std::pair<net::FrameHeader, std::string>>& reply,
    net::MessageType want,
    util::Status (*decode)(std::string_view, Payload*)) {
  if (!reply.ok()) {
    RecordOutcome(false);
    return reply.status();
  }
  if (reply->first.type != static_cast<uint32_t>(want)) {
    // A well-framed but wrong-typed reply (e.g. a plain server's
    // kUnimplemented kQueryResponse): the process on that port is not a
    // shard server. Permanent, like a fingerprint mismatch.
    RecordOutcome(false);
    return util::Status::Internal(
        endpoint() + " is not serving this shard call (reply type " +
        std::to_string(reply->first.type) + ", expected " +
        std::to_string(static_cast<uint32_t>(want)) + ")");
  }
  Payload payload;
  util::Status decoded = decode(reply->second, &payload);
  if (!decoded.ok()) {
    RecordOutcome(false);
    return decoded;
  }
  if constexpr (std::is_same_v<Payload, net::WireManifestSlice>) {
    if (payload.status_code != static_cast<uint32_t>(util::StatusCode::kOk)) {
      // The server is alive but declined (e.g. not mutable); alive for
      // health purposes, but the fetch itself failed.
      RecordOutcome(true);
      return net::StatusFromWire(payload.status_code,
                                 std::move(payload.status_message));
    }
    // The slice's fingerprint is the epoch-salted layout stamp
    // (diagnostics), deliberately not checked — only the cluster
    // position must match.
    if (payload.shard_index != shard_index_) {
      RecordOutcome(false);
      return util::Status::Internal(
          "shard " + std::to_string(shard_index_) + " at " + endpoint() +
          ": manifest slice for shard " + std::to_string(payload.shard_index) +
          " — endpoint serves a different cluster position");
    }
  } else if constexpr (requires { payload.fingerprint; }) {
    if (payload.fingerprint != options_.expected_fingerprint ||
        payload.shard_index != shard_index_) {
      RecordOutcome(false);
      return util::Status::Internal(
          "shard " + std::to_string(shard_index_) + " at " + endpoint() +
          ": layout fingerprint/index mismatch (theirs " +
          std::to_string(payload.fingerprint) + "/" +
          std::to_string(payload.shard_index) + ", ours " +
          std::to_string(options_.expected_fingerprint) + "/" +
          std::to_string(shard_index_) +
          ") — remote partitioned a different corpus");
    }
  }
  // Any other well-formed reply proves the server alive; a rejected
  // mutation inside an ingest ack (bad XML, unknown doc) is not a
  // health signal.
  RecordOutcome(true);
  return payload;
}

void RemoteShardBackend::CallShardQuery(const net::WireShardQuery& query,
                                        int deadline_ms, AnswerCallback done) {
  client_.Call(
      net::MessageType::kShardQuery, net::EncodeShardQuery(query), deadline_ms,
      [this, done = std::move(done)](
          util::Result<std::pair<net::FrameHeader, std::string>> reply) {
        done(CheckReply<net::WireShardAnswer>(
            reply, net::MessageType::kShardAnswer, &net::DecodeShardAnswer));
      });
}

void RemoteShardBackend::CallPing(int deadline_ms, PongCallback done) {
  client_.Call(
      net::MessageType::kPing, std::string(), deadline_ms,
      [this, done = std::move(done)](
          util::Result<std::pair<net::FrameHeader, std::string>> reply) {
        done(CheckReply<net::WirePong>(reply, net::MessageType::kPong,
                                       &net::DecodePong));
      });
}

void RemoteShardBackend::CallIngest(const net::WireIngest& ingest,
                                    int deadline_ms, IngestCallback done) {
  client_.Call(
      net::MessageType::kIngest, net::EncodeIngest(ingest), deadline_ms,
      [this, done = std::move(done)](
          util::Result<std::pair<net::FrameHeader, std::string>> reply) {
        done(CheckReply<net::WireIngestAck>(
            reply, net::MessageType::kIngestAck, &net::DecodeIngestAck));
      });
}

void RemoteShardBackend::CallManifestFetch(int deadline_ms,
                                           SliceCallback done) {
  net::WireManifestFetch fetch;
  fetch.subscribe = true;
  client_.Call(
      net::MessageType::kManifestFetch, net::EncodeManifestFetch(fetch),
      deadline_ms,
      [this, done = std::move(done)](
          util::Result<std::pair<net::FrameHeader, std::string>> reply) {
        done(CheckReply<net::WireManifestSlice>(
            reply, net::MessageType::kManifestSlice,
            &net::DecodeManifestSlice));
      });
}

}  // namespace approxql::dist
