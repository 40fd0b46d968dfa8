// The binary wire protocol between net::Server and net::Client. Every
// message is one frame:
//
//   +----------------+---------------------------------------+--------+
//   | length (u32 LE)| body                                  | crc    |
//   +----------------+---------------------------------------+--------+
//                    | version | request_id | type | payload | u32 LE |
//                    | varint  | varint     |varint| bytes   |        |
//
// `length` counts everything after itself (body + 4-byte CRC), so a
// reader needs exactly 4 bytes to learn how much more to buffer. The
// CRC is CRC-32C over the body (header varints + payload), the same
// util::Crc32c the storage pages use; a mismatch means the connection
// stream is corrupt and must be closed. Payloads are varint/length-
// prefixed structures built on util::varint — no alignment, no padding,
// byte-order independent.
//
// Responses carry the request_id of the request they answer, so
// pipelined requests on one connection may complete out of order and
// still be matched up by the client.
#ifndef APPROXQL_NET_WIRE_H_
#define APPROXQL_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cost/cost_model.h"
#include "doc/data_tree.h"
#include "engine/database.h"
#include "shard/layout_manifest.h"
#include "util/status.h"

namespace approxql::net {

/// Bumped on any incompatible frame or payload change. A server
/// rejects (closes) connections speaking a different version.
/// v2: WireResponse carries degraded/missing_shards; shard-scoped
/// execution frames (kShardQuery/kShardAnswer) and health probes
/// (kPing/kPong) added.
/// v3: live-ingest frames (kIngest/kIngestAck); WireResponse carries
/// the backend epoch of mutable-corpus servers.
/// v4: cluster manifest synchronization — kManifestFetch/kManifestSlice
/// and the kManifestDelta push frame; WireShardAnswer and WirePong carry
/// the serving snapshot's epoch; WireIngest can carry a router-assigned
/// global id; WireRequest carries per-shard min-epoch floors
/// (read-your-writes over a routed cluster).
/// v5: WireRequest drops its ignored `parallelism` field.
inline constexpr uint32_t kProtocolVersion = 5;

/// Hard ceiling a decoder enforces before buffering a frame; a declared
/// length beyond this is treated as stream corruption, not a large
/// message (protects the server from one rogue 4-byte prefix pinning
/// gigabytes).
inline constexpr size_t kDefaultMaxFrameBytes = 16u << 20;

enum class MessageType : uint32_t {
  kQueryRequest = 1,
  kQueryResponse = 2,
  /// Empty-payload request for the server's metrics dump.
  kMetricsDump = 3,
  /// Response to kMetricsDump: payload is the dump text, raw bytes.
  kMetricsText = 4,
  /// Shard-scoped execution (router -> shard server): evaluate on the
  /// server's single shard; answer roots are shard-local preorders.
  kShardQuery = 5,
  kShardAnswer = 6,
  /// Lightweight health probe, answered inline by the event loop (no
  /// worker dispatch — a loaded pool must not mark a live shard dead).
  kPing = 7,
  /// Response to kPing: payload is the serving shard's layout
  /// fingerprint + shard index, so a probe doubles as a topology check.
  kPong = 8,
  /// Live ingest against a server fronting a mutable corpus: add or
  /// remove one document. The kIngestAck reply is sent only after the
  /// mutation is durable (WAL synced) — an acked document survives any
  /// crash. Visibility is normally immediate (the ack follows the
  /// snapshot swap); if the server's snapshot publication failed after
  /// the durable apply, the ack still stands and the mutation becomes
  /// visible at the next successful publish — compare a response's
  /// backend_epoch with WireIngestAck::epoch to confirm.
  kIngest = 9,
  kIngestAck = 10,
  /// Manifest synchronization (router <-> mutable shard server): fetch
  /// the server's current manifest slice (the DocSpan table + epoch of
  /// the snapshot it is answering from). With `subscribe` set the
  /// server also registers the connection for kManifestDelta pushes.
  kManifestFetch = 11,
  kManifestSlice = 12,
  /// Server push (request_id 0, never a reply): one mutation's effect
  /// on the server's manifest slice, sent to every subscribed
  /// connection after each generation publish. A receiver that detects
  /// a gap in the epoch sequence falls back to kManifestFetch.
  kManifestDelta = 13,
};

struct FrameHeader {
  uint32_t version = kProtocolVersion;
  uint64_t request_id = 0;
  /// Raw on the wire so a receiver can answer an unknown type with an
  /// error instead of failing to decode the frame.
  uint32_t type = 0;
};

/// Appends one complete frame (length prefix, header, payload, CRC).
/// Enforces the same bound the receiving FrameDecoder does: if the body
/// plus CRC would exceed `max_frame_bytes` (or overflow the uint32
/// length prefix), nothing is appended and ResourceExhausted is
/// returned — the sender must degrade (error response, truncation)
/// rather than emit a frame the peer will treat as stream corruption.
util::Status EncodeFrame(const FrameHeader& header, std::string_view payload,
                         std::string* out,
                         size_t max_frame_bytes = kDefaultMaxFrameBytes);

/// Incremental frame extraction over a TCP byte stream: Append whatever
/// arrived, then Take until kNeedMore. Tolerates frames split across
/// arbitrarily many reads and multiple frames per read. After kError
/// (oversized/corrupt stream) the decoder is poisoned — the connection
/// must be closed.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void Append(const char* data, size_t size) { buffer_.append(data, size); }

  enum class Next {
    kFrame,     // *header / *payload filled with one complete frame
    kNeedMore,  // no complete frame buffered yet
    kError,     // stream corrupt; *error explains, connection is dead
  };
  Next Take(FrameHeader* header, std::string* payload, util::Status* error);

  /// Bytes buffered but not yet consumed (torn-frame detection: nonzero
  /// at EOF means the peer died mid-frame).
  size_t buffered() const { return buffer_.size(); }

  void Reset() {
    buffer_.clear();
    poisoned_ = false;
  }

 private:
  std::string buffer_;
  size_t max_frame_bytes_;
  bool poisoned_ = false;
};

/// kQueryRequest payload: everything QueryService needs to run one
/// query. Mirrors service::QueryRequest minus the in-process-only knobs
/// (cost-model pointers, stats out-parameters).
struct WireRequest {
  std::string query;
  engine::Strategy strategy = engine::Strategy::kSchema;
  /// Best-n bound; UINT64_MAX = all results (matches SIZE_MAX in-process).
  uint64_t n = 10;
  /// Per-request deadline; 0 = server default, negative = already
  /// expired (deterministic DEADLINE_EXCEEDED, used by tests).
  int64_t deadline_ms = 0;
  bool bypass_cache = false;
  /// Read-your-writes floors for routed execution: min_epochs[i] is the
  /// minimum ingest epoch cluster shard i's answer must have been
  /// computed under (a client sets it from WireIngestAck::epoch /
  /// shard_index of its own acked writes). Shards beyond the vector (or
  /// an empty vector) have no floor. Non-routed servers ignore it.
  std::vector<uint64_t> min_epochs;
};

struct WireAnswer {
  cost::Cost cost = 0;
  doc::NodeId root = 0;
  /// Root of the document subtree containing `root` (the answer's
  /// child-of-super-root ancestor), so clients can group hits per
  /// document without holding the tree.
  doc::NodeId doc = 0;
};

/// kQueryResponse payload.
struct WireResponse {
  /// util::StatusCode on the wire as its integer value.
  uint32_t status_code = 0;
  std::string status_message;
  bool truncated = false;
  bool cache_hit = false;
  /// One or more shards were unreachable when a distributed backend
  /// answered: `answers` covers only the shards that responded (listed
  /// nowhere), `missing_shards` names the holes. Degraded answers are
  /// never cached anywhere — a repeat of the query re-asks the cluster.
  bool degraded = false;
  std::vector<uint32_t> missing_shards;
  /// Mutable-corpus servers: ingest epoch of the snapshot this response
  /// was evaluated against (0 elsewhere). An ingesting client compares
  /// it with WireIngestAck::epoch to tell whether its write is visible.
  uint64_t backend_epoch = 0;
  std::vector<WireAnswer> answers;
};

/// kShardQuery payload: one shard-scoped evaluation. The router fans
/// one client query out as N of these; `cost_bound` is its snapshot of
/// the shared inclusive skeleton-cost bound (cost::kInfinite = none),
/// letting a shard prune exactly like in-process scatter-gather.
struct WireShardQuery {
  std::string query;
  engine::Strategy strategy = engine::Strategy::kSchema;
  /// Best-n bound; UINT64_MAX = all results.
  uint64_t n = 10;
  cost::Cost cost_bound = cost::kInfinite;
  /// Per-attempt deadline the shard enforces server-side; 0 = none.
  int64_t deadline_ms = 0;
};

/// kShardAnswer payload. Roots (and docs) are shard-local preorder
/// ids; the router translates them through its DocSpan table after
/// checking `fingerprint` against its own layout.
struct WireShardAnswer {
  uint32_t status_code = 0;
  std::string status_message;
  /// The serving shard's layout fingerprint and index: a mismatch with
  /// the router's layout means the processes were built from different
  /// corpora/partitions and local ids cannot be translated.
  uint32_t fingerprint = 0;
  uint32_t shard_index = 0;
  /// Local n-th answer cost when a full n answers came back (a valid
  /// global inclusive bound: the global n-th answer costs no more);
  /// cost::kInfinite otherwise. Routers CAS-min their shared bound.
  cost::Cost achieved_bound = cost::kInfinite;
  /// Server-side deadline fired: `answers` is a correct but short
  /// prefix — useless for a global merge, so routers treat it as a
  /// failed attempt.
  bool truncated = false;
  /// Mutable shard servers: ingest epoch of the snapshot this answer
  /// was evaluated on (0 from static servers). The router translates
  /// the local ids through a manifest slice of exactly this epoch —
  /// never through a mismatched one (removals renumber local ids).
  uint64_t backend_epoch = 0;
  std::vector<WireAnswer> answers;
};

/// kPong payload.
struct WirePong {
  uint32_t fingerprint = 0;
  uint32_t shard_index = 0;
  /// Mutable shard servers: current snapshot epoch (0 elsewhere), so a
  /// health probe doubles as an epoch-staleness check.
  uint64_t epoch = 0;
};

/// kIngest payload.
struct WireIngest {
  enum class Op : uint32_t { kAdd = 1, kRemove = 2 };
  Op op = Op::kAdd;
  /// kAdd: the document, complete XML.
  std::string xml;
  /// kRemove: the document's global root id (WireIngestAck::doc_root of
  /// the add, or WireAnswer::doc of a query hit).
  doc::NodeId doc_root = 0;
  /// kAdd, cluster mode: the global preorder id the document's root
  /// must get, assigned by the router that owns the cluster-wide id
  /// space. 0 = the server assigns its own next id (single-server
  /// ingest, the v3 behavior).
  doc::NodeId assigned_global = 0;
};

/// kIngestAck payload. Non-OK status_code means the mutation did NOT
/// happen (malformed XML, unknown document, poisoned shard, or a plain
/// immutable server), so resending it is always safe; the remaining
/// fields are meaningful only on OK. An OK ack means the mutation is
/// durable even when it is not yet visible (see `epoch`).
struct WireIngestAck {
  uint32_t status_code = 0;
  std::string status_message;
  /// Durable WAL sequence number on the owning shard.
  uint64_t seq = 0;
  /// Corpus epoch after the mutation; any query response whose
  /// backend_epoch is >= this value sees the mutation.
  uint64_t epoch = 0;
  doc::NodeId doc_root = 0;
  uint32_t shard_index = 0;
  uint32_t length = 0;  // nodes in the document subtree (kAdd)
};

/// kManifestFetch payload.
struct WireManifestFetch {
  /// Also register this connection for kManifestDelta pushes (the reply
  /// slice is then the subscription's starting state).
  bool subscribe = false;
};

/// kManifestSlice payload: one shard server's complete manifest slice —
/// the DocSpan table and epoch of the snapshot it currently answers
/// from. Spans are sorted by increasing local AND global start (the
/// ShardedDatabase invariant).
struct WireManifestSlice {
  uint32_t status_code = 0;
  std::string status_message;
  uint32_t shard_index = 0;
  /// Snapshot epoch the spans describe. Answers stamped with this epoch
  /// translate through these spans; any other epoch must not.
  uint64_t epoch = 0;
  /// Epoch-salted layout fingerprint of the same snapshot (diagnostics).
  uint32_t fingerprint = 0;
  std::vector<shard::DocSpan> spans;
};

/// kManifestDelta payload (server push, request_id 0): the slice
/// transition `prev_epoch -> epoch` caused by one published mutation.
/// A receiver applies it only when its slice sits exactly at
/// `prev_epoch`; any gap means missed deltas and forces a full fetch.
struct WireManifestDelta {
  enum class Op : uint32_t { kAdd = 1, kRemove = 2 };
  uint32_t shard_index = 0;
  uint64_t prev_epoch = 0;
  uint64_t epoch = 0;
  Op op = Op::kAdd;
  /// kAdd: the new document's span (appended past the current spans).
  /// kRemove: the removed document's span as it was in `prev_epoch`;
  /// spans after it shift their local_start down by `span.length` (the
  /// shard rebuilds its tree compactly on removal).
  shard::DocSpan span;
};

/// Maps a reply's wire status (status_code + status_message of a
/// WireResponse, WireShardAnswer, WireIngestAck or WireManifestSlice)
/// back to a util::Status. A code beyond the known range (a newer peer)
/// degrades to kInternal instead of an out-of-range enum.
util::Status StatusFromWire(uint32_t code, std::string message);

std::string EncodeManifestFetch(const WireManifestFetch& fetch);
util::Status DecodeManifestFetch(std::string_view payload,
                                 WireManifestFetch* out);

std::string EncodeManifestSlice(const WireManifestSlice& slice);
util::Status DecodeManifestSlice(std::string_view payload,
                                 WireManifestSlice* out);

std::string EncodeManifestDelta(const WireManifestDelta& delta);
util::Status DecodeManifestDelta(std::string_view payload,
                                 WireManifestDelta* out);

std::string EncodeQueryRequest(const WireRequest& request);
util::Status DecodeQueryRequest(std::string_view payload, WireRequest* out);

std::string EncodeQueryResponse(const WireResponse& response);
util::Status DecodeQueryResponse(std::string_view payload, WireResponse* out);

std::string EncodeShardQuery(const WireShardQuery& query);
util::Status DecodeShardQuery(std::string_view payload, WireShardQuery* out);

std::string EncodeShardAnswer(const WireShardAnswer& answer);
util::Status DecodeShardAnswer(std::string_view payload, WireShardAnswer* out);

std::string EncodePong(const WirePong& pong);
util::Status DecodePong(std::string_view payload, WirePong* out);

std::string EncodeIngest(const WireIngest& ingest);
util::Status DecodeIngest(std::string_view payload, WireIngest* out);

std::string EncodeIngestAck(const WireIngestAck& ack);
util::Status DecodeIngestAck(std::string_view payload, WireIngestAck* out);

}  // namespace approxql::net

#endif  // APPROXQL_NET_WIRE_H_
