// The router side of the cluster metadata subsystem: a composite,
// epoch-versioned view of every shard server's manifest slice.
//
// Each shard server answers queries from immutable snapshot generations
// and stamps every answer with the generation's ingest epoch (the
// shard's durable WAL sequence number — see DESIGN.md §14). An answer's
// shard-local preorder ids are only meaningful against the DocSpan
// table of *exactly* that epoch: a removal rebuilds the shard's tree
// and renumbers every document after the hole, so translating local ids
// through any other epoch's spans would silently map answers onto the
// wrong documents. The view therefore keys slices by (shard, epoch),
// keeps a bounded history of recent epochs per shard (so answers raced
// by a concurrent publish still translate without a refetch), and
// refuses — by returning a typed error, never a guess — to translate
// through a mismatched slice.
//
// Slices advance two ways: full kManifestSlice installs (bootstrap,
// gap recovery) and incremental kManifestDelta pushes. A delta applies
// only when the view sits exactly at its prev_epoch; anything else
// reports a gap and the caller falls back to a full fetch. Stale
// installs and duplicate/reordered deltas are ignored — the current
// slice never moves backward.
#ifndef APPROXQL_CLUSTER_MANIFEST_VIEW_H_
#define APPROXQL_CLUSTER_MANIFEST_VIEW_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "doc/data_tree.h"
#include "net/wire.h"
#include "shard/layout_manifest.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace approxql::cluster {

/// One shard server's manifest slice at one epoch.
struct ShardSlice {
  uint64_t epoch = 0;
  std::vector<shard::DocSpan> spans;
};

class ManifestView {
 public:
  /// `history_depth` bounds how many superseded epochs per shard stay
  /// translatable (answers computed just before a publish land with the
  /// previous epoch; under sustained ingest several publishes can race
  /// one scatter round-trip).
  explicit ManifestView(size_t num_shards, size_t history_depth = 32);

  ManifestView(const ManifestView&) = delete;
  ManifestView& operator=(const ManifestView&) = delete;

  size_t num_shards() const { return num_shards_; }

  /// Installs a full slice (a kManifestSlice reply). Never regresses:
  /// a slice older than the current one — a fetch that raced a publish
  /// — is filed into history only, so late replies cannot roll the
  /// view back.
  void InstallSlice(uint32_t shard, uint64_t epoch,
                    std::vector<shard::DocSpan> spans);

  /// Applies one push delta. Returns false on a gap (the view is not
  /// exactly at delta.prev_epoch and the delta is not a stale
  /// duplicate) — the caller must re-fetch the full slice. Stale
  /// duplicates (epoch <= current) return true and change nothing.
  bool ApplyDelta(const net::WireManifestDelta& delta);

  /// Current epoch of a shard's slice; 0 before the first install.
  uint64_t epoch(uint32_t shard) const;

  /// True once the shard has any installed slice (an empty corpus at
  /// epoch 0 counts — "fetched and empty" is not "unknown").
  bool known(uint32_t shard) const;

  /// Translates a shard-local id to the global id space through the
  /// slice of exactly `epoch`. Unavailable (retryable: fetch the slice
  /// and retranslate) when no slice of that epoch is held (current or
  /// history); InvalidArgument when the local id lies outside every
  /// span of that slice.
  util::Result<doc::NodeId> ToGlobal(uint32_t shard, uint64_t epoch,
                                     doc::NodeId local) const;

  /// Locates the document whose root is `global_root` in the current
  /// slices (remove routing). False if no shard holds it.
  bool FindDocument(doc::NodeId global_root, uint32_t* shard_out,
                    shard::DocSpan* span_out) const;

  /// Root of the document containing `global` in the current slices
  /// (the wire `doc` field); 0 for the super-root or an id no current
  /// span covers (a hole, or raced past a remove).
  doc::NodeId DocRootOf(doc::NodeId global) const;

  /// First global id past every document in the current slices (>= 1;
  /// id 0 is the super-root). The router's id-assignment bootstrap.
  doc::NodeId NextGlobal() const;

  /// Documents across all current slices.
  size_t document_count() const;

  /// Snapshot of one shard's current slice.
  ShardSlice CurrentSlice(uint32_t shard) const;

 private:
  struct PerShard {
    bool known = false;
    ShardSlice current;
    /// Superseded epochs, newest first; bounded by history_depth_.
    std::deque<ShardSlice> history;
  };

  /// Pushes `slice` into `shard`'s history (dropping the oldest past
  /// the depth bound) unless that epoch is already held.
  void FileHistory(PerShard* shard, ShardSlice slice) REQUIRES(mu_);

  const size_t num_shards_;
  const size_t history_depth_;
  mutable util::Mutex mu_;
  std::vector<PerShard> shards_ GUARDED_BY(mu_);
};

}  // namespace approxql::cluster

#endif  // APPROXQL_CLUSTER_MANIFEST_VIEW_H_
