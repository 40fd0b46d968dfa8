// Partial-failure-aware scatter-gather over remote shard servers: the
// distributed counterpart of shard::ShardedDatabase::Execute. Shard
// servers answer in shard-local preorder ids; the router translates
// them to global ids through a cluster::ManifestView of per-shard
// DocSpan slices, each tagged with the ingest epoch it describes, so
// no trees ship over the wire.
//
// One query fans out as one kShardQuery per shard, all concurrently
// (each shard endpoint has its own multiplexed AsyncClient, so queries
// also pipeline across concurrent callers). The scatter is one state
// machine on the calling thread: the transports' IO callbacks only
// append each shard reply or slice-fetch completion to the scatter's
// mailbox, and Execute alone classifies, retries, settles and merges.
// The shared inclusive skeleton-cost bound of in-process scatter-gather
// is propagated opportunistically: each shard that returns a full n
// answers reports its local n-th cost (a valid global inclusive bound),
// Execute mins these into the execution's bound, and every retry
// snapshots the tightened value. Bit-identity with in-process execution
// holds because any inclusive bound >= the final global n-th cost
// prunes only answers that cannot reach the merged top n (see the
// equivalence notes in shard/sharded_database.h).
//
// Failure handling:
//   - transient errors (connection loss, attempt deadline, shard
//     draining/overloaded, truncated shard answer) are retried with
//     jittered exponential backoff up to max_retries per shard;
//   - permanent errors (fingerprint mismatch, bad query) are not;
//   - a shard that stays missing makes the response DEGRADED: the
//     merged answers cover only the shards that responded, and
//     missing_shards names the holes — the caller layer must never
//     cache such a result. strict=true turns any hole into a fail-fast
//     kUnavailable instead;
//   - every shard missing is kUnavailable regardless of mode;
//   - a bad query (parse/invalid-argument from a shard) fails the query
//     itself — it would fail identically on every shard.
//
// A background health checker pings every shard each health_period_ms;
// outcomes drive the per-shard UP/SUSPECT/DOWN machine (see
// remote_shard.h). While it runs, DOWN shards are skipped by queries
// and ingest placement (counted missing immediately, no timeout
// burned) until a ping revives them. With the checker off
// (health_period_ms = 0) nothing pings, so a DOWN shard gets each
// query's first attempt as its probe, and only its retries are
// skipped.
//
// ONE MODE, TWO WAYS TO SEED THE VIEW. Every kShardAnswer carries the
// epoch of the snapshot that produced it, and its local ids are
// translated, as the answer arrives, through the slice of EXACTLY that
// epoch: a missing slice is fetched asynchronously and the answer
// retranslated when the fetch lands, while other shards are still
// answering; if the slice still cannot be had (or the answer predates a
// caller's read-your-writes min-epoch floor) the shard is re-queried at
// once, at most a few rounds per shard; a root outside every span of
// its slice fails that shard rather than guessing. The constructors
// differ only in what the view starts with:
//   - a static LayoutManifest installs one slice per shard at epoch 0,
//     the epoch every immutable shard server stamps. Nothing advances
//     it: those servers push no deltas and decline kManifestFetch, and
//     the per-answer stamp is the layout fingerprint;
//   - a cluster::ClusterConfig (mutable shard servers ingesting
//     concurrently) starts the view empty. Start fetches every slice,
//     kManifestDelta pushes keep it current, and kManifestFetch is the
//     gap fallback. The stamp is cluster::ClusterFingerprint (cost model
//     + shard count): it validates configuration, the epoch validates
//     layout.
// Ingest assigns cluster-wide global root ids (WireIngest::
// assigned_global) from the view's id-space high-water mark, serialized
// so acked documents get sequential ids.
#ifndef APPROXQL_DIST_SHARD_ROUTER_H_
#define APPROXQL_DIST_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_config.h"
#include "cluster/manifest_view.h"
#include "dist/remote_shard.h"
#include "engine/database.h"
#include "service/backend.h"
#include "service/metrics.h"
#include "shard/layout_manifest.h"
#include "shard/sharded_database.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace approxql::dist {

struct RouterOptions {
  struct Endpoint {
    std::string host = "127.0.0.1";
    uint16_t port = 0;
  };
  /// One endpoint per shard, in shard-index order; size must equal the
  /// layout's num_shards().
  std::vector<Endpoint> shards;

  int connect_timeout_ms = 2000;
  size_t max_frame_bytes = net::kDefaultMaxFrameBytes;
  /// Deadline for each shard attempt; a query-level deadline caps it
  /// further. <= 0 means attempts are bounded only by the query.
  int attempt_deadline_ms = 2000;
  /// Retries per shard beyond the first attempt, transient errors only.
  int max_retries = 2;
  int retry_backoff_ms = 10;
  int retry_backoff_cap_ms = 200;
  /// Any unreachable shard fails the query (kUnavailable) instead of
  /// degrading the answer.
  bool strict = false;
  /// Health-probe period; 0 disables the checker thread (health is then
  /// driven by query outcomes alone, and a DOWN shard still gets each
  /// query's first attempt).
  int health_period_ms = 500;
  int ping_deadline_ms = 250;
  int failures_to_down = 3;
};

struct RoutedResult {
  /// Merged global top-n; roots are global preorder ids.
  std::vector<engine::QueryAnswer> answers;
  /// One or more shards never answered: `answers` covers only the
  /// responding shards. NEVER cache a degraded result.
  bool degraded = false;
  std::vector<uint32_t> missing_shards;  // sorted
  /// Final value of the shared cost bound (kInfinite if never set).
  cost::Cost final_bound = cost::kInfinite;
  /// Retry attempts this execution spent.
  uint32_t retries = 0;
  /// The minimum ingest epoch across the shard answers merged here (the
  /// read-your-writes watermark); always 0 over immutable shard servers.
  uint64_t backend_epoch = 0;
};

/// As a service::Backend its pin fingerprint tags the layout's as
/// distributed, so possibly degraded answers never alias in-process
/// ones; a live router is not cacheable at all.
class ShardRouter : public service::Backend {
 public:
  /// The router needs only the partition's *layout* (DocSpan
  /// translation tables, fingerprint, cost model) — never the data. A
  /// router host passes a LayoutManifest saved next to the corpus; its
  /// spans become the view's epoch-0 slices, so nothing must outlive
  /// the router.
  ShardRouter(const shard::LayoutManifest& manifest, RouterOptions options);
  /// Convenience for co-located deployments that already hold the full
  /// partition: copies its layout().
  ShardRouter(const shard::ShardedDatabase& layout, RouterOptions options);
  /// Live cluster: the shards are mutable servers with no static
  /// layout. The router needs only the cluster's configuration (shared
  /// cost model + shard count); the moving document layout is fetched
  /// into the view and kept current over the wire.
  ShardRouter(const cluster::ClusterConfig& config, RouterOptions options);
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Starts the per-shard transports and the health checker. Does not
  /// require any shard to be up yet.
  util::Status Start();
  void Shutdown();

  /// Scatter-gathers one query. `deadline_ms` <= 0 means no overall
  /// deadline (attempts still bound themselves). n == SIZE_MAX asks for
  /// all results (no bound sharing, exactly like in-process). Blocks
  /// the calling thread; safe from many threads concurrently.
  /// `min_epochs`: per-shard read-your-writes floors — shard i's answer
  /// must have been computed at epoch >= min_epochs[i] (shards beyond
  /// the vector have no floor); an answer below its floor is re-queried,
  /// never returned, and a shard that never reaches it is missing.
  util::Result<RoutedResult> Execute(
      const std::string& query_text, engine::Strategy strategy, size_t n,
      int64_t deadline_ms, const std::vector<uint64_t>& min_epochs = {}) const;

  // service::Backend. Execute runs the scatter above; a per-request
  // cost model is kInvalidArgument (shards use their own model).
  service::BackendPin Pin() const override;
  service::QueryResponse Execute(const service::BackendPin& pin,
                                 const query::Query& query,
                                 const service::QueryRequest& request,
                                 const engine::ExecOptions& exec,
                                 std::optional<Clock::time_point> deadline)
      const override;
  bool cacheable() const override { return !live(); }

  /// Routes one ingest mutation and blocks for the ack. An add gets the
  /// next cluster-global root id and goes to the shard (not known DOWN)
  /// whose slice in the view holds the fewest documents, ties to the
  /// lowest index. A remove goes to the shard the view places the
  /// document on, falling back to trying each shard in index order
  /// until one answers anything but NOT_FOUND. No retries: a transport
  /// failure leaves the mutation in doubt (it may be durable on the
  /// shard), so the caller must reconcile via a query rather than
  /// blindly resend. Immutable
  /// shard servers decline both the manifest fetch an add's id
  /// assignment needs and the mutation itself, so over them Ingest
  /// fails kUnimplemented.
  util::Result<net::WireIngestAck> Ingest(const net::WireIngest& ingest,
                                          int64_t deadline_ms);

  /// Fingerprint, cost model and shard count; its span tables are
  /// empty, because every span lives in view().
  const shard::LayoutManifest& manifest() const { return manifest_; }
  const cost::CostModel& cost_model() const override {
    return manifest_.cost_model();
  }
  uint32_t layout_fingerprint() const { return manifest_.fingerprint(); }
  size_t num_shards() const { return backends_.size(); }
  ShardHealth shard_health(size_t i) const { return backends_[i]->health(); }
  const RouterOptions& options() const { return options_; }

  /// True for a ClusterConfig router: answers move with ingest, so
  /// callers must never cache routed results.
  bool live() const { return live_; }
  /// The composite manifest view every answer translates through; a
  /// static router's holds the epoch-0 slices it was built with.
  const cluster::ManifestView* view() const { return view_.get(); }
  /// Document root containing `global`, in the view's current slices.
  doc::NodeId DocRootOf(doc::NodeId global) const override;

  /// dist_* counters/gauges plus per-shard health, transport and
  /// document-count (from the view) lines.
  std::string DumpMetrics() const override;

 private:
  ShardRouter(shard::LayoutManifest manifest, RouterOptions options,
              bool live);

  void HealthLoop();
  void UpdateHealthGauges();

  // Manifest synchronization.

  /// A kManifestDelta push from shard `i`'s transport (IO thread).
  /// Applies it to the view; a gap triggers an async full refetch.
  void OnDelta(size_t i, const net::WireManifestDelta& delta);
  /// Fetches shard `i`'s slice, subscribing to its deltas, installs it
  /// in the view, and then runs `done` (on the IO thread) with the
  /// outcome. The one fetch path: the two below and Execute use it.
  void FetchSlice(size_t i, int deadline_ms,
                  std::function<void(const util::Status&)> done) const;
  /// Fire-and-forget slice refetch, deduplicated per shard (delta gaps
  /// and stale pongs may fire faster than fetches complete). Also
  /// re-establishes the delta subscription after a reconnect.
  void RefetchSliceAsync(size_t i);
  /// Blocking slice fetch + install (ResyncGlobals).
  util::Status FetchSliceBlocking(size_t i, int deadline_ms) const;
  /// Re-fetches every shard's slice and rebases next_global_ on the
  /// view's id-space high-water mark (ingest bootstrap / collision
  /// recovery).
  util::Status ResyncGlobals(int deadline_ms) REQUIRES(assign_mu_);
  util::Result<net::WireIngestAck> CallIngestBlocking(
      size_t i, const net::WireIngest& ingest, int deadline_ms);

  const shard::LayoutManifest manifest_;
  const RouterOptions options_;
  const bool live_;
  const std::unique_ptr<cluster::ManifestView> view_;
  std::vector<std::unique_ptr<RemoteShardBackend>> backends_;
  /// Per-shard refetch-in-flight latch (sized num_shards).
  const std::unique_ptr<std::atomic<bool>[]> refetch_inflight_;

  /// Serializes global-id assignment with the ack that confirms it (the
  /// next id depends on the previous ack's length).
  util::Mutex assign_mu_;
  /// Next cluster-global root id to assign; 0 = must resync from the
  /// view before assigning (bootstrap, or the last assign ended in
  /// doubt).
  doc::NodeId next_global_ GUARDED_BY(assign_mu_) = 0;

  std::thread health_thread_;
  util::Mutex health_mu_;
  util::CondVar health_cv_;
  bool health_stop_ GUARDED_BY(health_mu_) = false;
  bool started_ = false;

  service::MetricsRegistry metrics_;
  service::Counter* queries_;
  service::Counter* degraded_;
  service::Counter* strict_failures_;
  service::Counter* shard_calls_;
  service::Counter* shard_retries_;
  service::Counter* shard_failures_;
  service::Counter* shards_missing_;
  service::Counter* bound_updates_;
  service::Counter* health_pings_;
  service::Counter* health_ping_failures_;
  service::Counter* ingest_calls_;
  service::Counter* ingest_failures_;
  service::Counter* manifest_fetches_;
  service::Counter* manifest_fetch_failures_;
  service::Counter* manifest_deltas_;
  service::Counter* manifest_delta_gaps_;
  service::Counter* epoch_requeries_;
  service::Gauge* shards_up_;
  service::Gauge* shards_down_;
  service::LatencyHistogram* scatter_us_;
};

}  // namespace approxql::dist

#endif  // APPROXQL_DIST_SHARD_ROUTER_H_
