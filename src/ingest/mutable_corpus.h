// A mutable sharded corpus: N DurableShards behind a serialized ingest
// path, published to readers as immutable ShardedDatabase generations.
//
// Readers call snapshot() and run queries against the returned
// generation for as long as they like; every accepted mutation builds a
// new generation copy-on-write (only the mutated shards' engine state
// is rebuilt — unmutated shards are shared by pointer) and swaps it in.
// Snapshot isolation is structural: a generation's shard is an
// engine::Database built from a finalized copy of the durable shard's
// tree, label indexes included, and nothing later mutates it.
//
// Write path: one serial writer. Every mutation takes the ingest lock,
// picks its shard, lets that DurableShard apply it, append it to the
// WAL and fsync, then publishes the mutated shard as a new generation
// and, past the auto-checkpoint threshold, checkpoints that shard, all
// on the caller's thread. Concurrent callers queue on the lock; each
// acknowledged mutation has its own fsync and its own generation. The
// corpus starts no thread of its own beyond Open's parallel recovery.
//
// Placement: a new document goes to the shard with the fewest documents
// (ties to the lowest index). The rule is recomputable from recovered
// state alone, and answers are placement-independent (the partition-
// equivalence contract), so recovery does not need to remember any
// arrival ordering beyond the global ids themselves. AddDocumentAt
// bypasses id assignment for cluster serving: the router allocates
// cluster-wide root ids and each shard server's corpus accepts them
// verbatim (gaps are fine — other servers own the intervening ranges).
//
// Epoch: the sum of the shards' durable WAL sequence numbers. Every
// acknowledged mutation moves it; it salts the generation's layout
// fingerprint, so result caches keyed by fingerprint never cross
// corpus states. Checkpoints never move the epoch (WAL truncation
// preserves the sequence numbering), so a manifest slice taken at
// epoch E stays valid across any number of checkpoints.
#ifndef APPROXQL_INGEST_MUTABLE_CORPUS_H_
#define APPROXQL_INGEST_MUTABLE_CORPUS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cost/cost_model.h"
#include "doc/data_tree.h"
#include "ingest/durable_shard.h"
#include "service/metrics.h"
#include "shard/sharded_database.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace approxql::storage {

/// Where a live-ingest corpus keeps its postings: only in memory, since
/// they are derived from the data tree that the snapshot + WAL make
/// durable. Not a knob; it stays only because the repository benchmark
/// (perfbench/live_ingest.cc) assigns MutableCorpus::Options::store_kind,
/// and goes when that benchmark drops the assignment.
enum class StoreKind {
  kMem,
};

}  // namespace approxql::storage

namespace approxql::ingest {

/// As a service::Backend, each request pins the current generation
/// (whose epoch-salted fingerprint keys the cache, so cached answers
/// never survive a mutation) and runs that generation's scatter.
class MutableCorpus : public service::Backend {
 public:
  struct Options {
    std::string data_dir;
    size_t num_shards = 1;
    /// Not a knob: kMem is the only value (see storage::StoreKind).
    storage::StoreKind store_kind = storage::StoreKind::kMem;
    cost::CostModel model;

    /// Auto-checkpoint threshold (0 disables it) — runtime tuning,
    /// deliberately NOT part of corpus.meta, so a directory can be
    /// reopened with a different value. When a shard's WAL holds more
    /// records than this after a publish, the mutation that crossed it
    /// checkpoints that shard before returning, bounding crash-recovery
    /// replay at the cost of that one ack's latency.
    uint64_t checkpoint_wal_records = 0;
  };

  struct OpenStats {
    size_t recovered_documents = 0;
    size_t replayed_records = 0;
    bool any_tail_truncated = false;
  };

  /// Opens (or creates) the corpus under `data_dir`, recovering every
  /// shard (in parallel) and publishing the first generation. A corpus
  /// directory remembers its configuration (corpus.meta) and refuses to
  /// open under a different one. `metrics` may be shared with a serving
  /// QueryService; pass nullptr for a private registry.
  static util::Result<std::unique_ptr<MutableCorpus>> Open(
      Options options,
      std::shared_ptr<service::MetricsRegistry> metrics = nullptr,
      OpenStats* stats_out = nullptr);

  MutableCorpus(const MutableCorpus&) = delete;
  MutableCorpus& operator=(const MutableCorpus&) = delete;

  struct IngestResult {
    uint64_t seq = 0;       // durable sequence number on the owning shard
    uint64_t prev_epoch = 0;  // corpus epoch before the mutation
    uint64_t epoch = 0;     // corpus epoch after the mutation
    doc::NodeId doc_root = 0;  // the document's global root id
    /// The document's local root id on its internal shard (for a
    /// remove, where it stood before the removal).
    doc::NodeId local_start = 0;
    uint32_t shard_index = 0;
    uint32_t length = 0;    // nodes in the document subtree
  };

  /// Ingests one XML document. Returns only after the mutation is
  /// durable (WAL synced); normally the new generation is also visible
  /// to snapshot() by then. If publishing the generation fails after
  /// the durable apply, the mutation is still acknowledged (a non-OK
  /// status always means "did not happen", so callers may safely
  /// resend on error) and the snapshot lags until the next successful
  /// publish — compare snapshot()->epoch() with the returned epoch to
  /// tell. Safe to call concurrently with queries; concurrent ingest
  /// calls run one at a time (see file comment).
  util::Result<IngestResult> AddDocument(std::string_view xml);

  /// Ingests one document under a caller-assigned global root id
  /// (cluster routers allocate cluster-wide ids; this corpus is one
  /// cluster shard and must not invent its own). `doc_root` must be
  /// beyond every id this corpus has allocated — ids never regress —
  /// but gaps are fine and become permanent holes. InvalidArgument if
  /// the id is 0 (the super-root) or already allocated.
  util::Result<IngestResult> AddDocumentAt(std::string_view xml,
                                           doc::NodeId doc_root);

  /// Removes the document whose global root id is `doc_root` (as
  /// returned by AddDocument, or ShardedDatabase::DocRootOf on an
  /// answer). The id stays a permanent hole in the global id space.
  util::Result<IngestResult> RemoveDocument(doc::NodeId doc_root);

  /// The current generation. Never null; holding the pointer keeps the
  /// generation (and everything its queries touch) alive.
  std::shared_ptr<const shard::ShardedDatabase> snapshot() const;

  /// Current corpus epoch (Σ per-shard durable sequence numbers).
  uint64_t epoch() const;

  /// Documents across all shards.
  size_t document_count() const;

  /// Checkpoints every shard: each tree snapshot replaced, each WAL
  /// truncated. Queries keep running throughout.
  util::Status Checkpoint();

  /// Crash simulation: every shard drops its unflushed buffers and the
  /// corpus stops accepting mutations. What fsync made durable stays.
  void Abandon();

  struct ShardStatus {
    size_t documents = 0;
    uint64_t last_seq = 0;
    uint64_t wal_bytes = 0;
    uint64_t wal_records = 0;
    bool poisoned = false;
  };
  std::vector<ShardStatus> ShardStatuses() const;

  const Options& options() const { return options_; }
  const std::shared_ptr<service::MetricsRegistry>& metrics() const {
    return metrics_;
  }

  // service::Backend.
  service::BackendPin Pin() const override;
  service::QueryResponse Execute(const service::BackendPin& pin,
                                 const query::Query& query,
                                 const service::QueryRequest& request,
                                 const engine::ExecOptions& exec,
                                 std::optional<Clock::time_point> deadline)
      const override;
  const cost::CostModel& cost_model() const override {
    return options_.model;
  }
  /// Any generation that produced an answer keeps its documents' global
  /// roots stable forever, so the current one resolves them.
  doc::NodeId DocRootOf(doc::NodeId node) const override {
    return snapshot()->DocRootOf(node);
  }
  /// metrics() (ingest_* plus every generation's per-shard eval
  /// metrics) and per-shard status lines.
  std::string DumpMetrics() const override;

 private:
  explicit MutableCorpus(Options options,
                         std::shared_ptr<service::MetricsRegistry> metrics);

  std::string ConfigString() const;

  /// The serial add path behind AddDocument and AddDocumentAt.
  /// `assigned_root` 0 lets the corpus assign the id.
  util::Result<IngestResult> Add(std::string_view xml,
                                 doc::NodeId assigned_root);

  /// Shared tail of every durable mutation: publishes the mutated shard,
  /// checkpoints it when it is over the threshold and records the
  /// ingest latency. Never fails: the mutation is durable, so it is
  /// acked even when the publish or the checkpoint fails (see
  /// AddDocument).
  IngestResult PublishMutation(bool is_add, size_t shard_index,
                               const shard::DocSpan& span, uint64_t seq,
                               uint64_t epoch_before,
                               const util::WallTimer& timer)
      REQUIRES(ingest_mu_);

  /// Builds and publishes a generation. Rebuilds `mutated_shard`'s
  /// engine state and shares the others from the previous generation
  /// (subject to republish_all_); SIZE_MAX (first open) builds all.
  util::Status PublishGeneration(size_t mutated_shard) REQUIRES(ingest_mu_);

  /// Builds one reader-side Shard from the durable shard's current
  /// tree (SnapshotTree + Database::FromDataTree).
  util::Result<std::shared_ptr<shard::ShardedDatabase::Shard>> BuildShardView(
      size_t shard_index) REQUIRES(ingest_mu_);

  uint64_t DurableEpoch() const REQUIRES(ingest_mu_);

  bool ShardOverThreshold(const DurableShard& shard) const;

  const Options options_;
  std::shared_ptr<service::MetricsRegistry> metrics_;

  /// Serializes mutations and guards all durable state.
  mutable util::Mutex ingest_mu_;
  std::vector<std::unique_ptr<DurableShard>> shards_ GUARDED_BY(ingest_mu_);
  doc::NodeId next_global_ GUARDED_BY(ingest_mu_) = 1;  // super-root is 0
  bool abandoned_ GUARDED_BY(ingest_mu_) = false;
  /// Set when a generation publish failed after a durable apply (the
  /// mutation was acked anyway — see AddDocument). The read snapshot is
  /// then stale for the failed shard, so the next publish rebuilds every
  /// shard instead of copy-on-write sharing from the stale generation.
  bool republish_all_ GUARDED_BY(ingest_mu_) = false;

  /// Publication point: ingest writes under both mutexes, readers take
  /// only this one.
  mutable util::Mutex snap_mu_;
  std::shared_ptr<const shard::ShardedDatabase> current_ GUARDED_BY(snap_mu_);

  service::Counter* docs_added_ = nullptr;
  service::Counter* docs_removed_ = nullptr;
  service::Counter* ingest_rejected_ = nullptr;
  service::Counter* generations_published_ = nullptr;
  service::Counter* auto_checkpoints_ = nullptr;
  service::Gauge* epoch_gauge_ = nullptr;
  service::Gauge* documents_gauge_ = nullptr;
  service::LatencyHistogram* ingest_latency_us_ = nullptr;
};

}  // namespace approxql::ingest

#endif  // APPROXQL_INGEST_MUTABLE_CORPUS_H_
