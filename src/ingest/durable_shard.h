// One shard's durable mutable state: a write-ahead log fronting the
// shard's posting store, plus checkpointed snapshots of the data tree.
//
// Write path (AddDocument/RemoveDocument): apply the mutation to the
// in-memory builder and the posting store first, then append a WAL
// record carrying the post-apply facts (node placement, value-log size)
// and fsync it. Only a synced record is acknowledged, so after a crash
// the recovered state always contains every acknowledged document and
// never a partially applied one: un-logged store mutations are masked
// by idempotent replay (postings are truncated back to the record's
// node range before re-appending) and by the snapshot node limit on the
// read side.
//
// Checkpoint protocol (LevelDB-style CURRENT generations):
//   1. rebuild kv + value log FRESH as generation G+1 from the current
//      tree (deterministic sorted persist — doubles as vlog compaction),
//      fsync them;
//   2. write shard<i>-<G+1>.snap (config, applied seq, vlog size,
//      serialized tree, doc spans), fsync;
//   3. atomically publish shard<i>.CURRENT -> G+1 (tmp + rename): the
//      single commit point;
//   4. truncate the WAL (preserving the sequence numbering) and delete
//      generation G's files.
// A crash anywhere leaves either G or G+1 fully intact.
//
// Recovery: read CURRENT -> load that generation's snapshot -> truncate
// the value log back to the checkpointed size -> replay WAL records with
// seq > applied_seq, verifying that replay reproduces the recorded
// value-log layout byte-for-byte. A torn WAL tail (or any gap in the
// record sequence) ends replay cleanly at the last valid record. If the
// generation's kv file is unreadable (torn pages past the checkpoint),
// the store is rebuilt from the snapshot tree instead — the snapshot +
// WAL together carry everything.
#ifndef APPROXQL_INGEST_DURABLE_SHARD_H_
#define APPROXQL_INGEST_DURABLE_SHARD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cost/cost_model.h"
#include "doc/data_tree.h"
#include "shard/layout_manifest.h"
#include "storage/bptree.h"
#include "storage/kv_factory.h"
#include "storage/spilling_store.h"
#include "storage/synchronized_store.h"
#include "storage/vlog/value_log.h"
#include "storage/wal/wal.h"
#include "xml/xml_dom.h"

namespace approxql::ingest {

/// WAL record types (storage::WalRecord::type).
inline constexpr uint32_t kWalAddDocument = 1;
inline constexpr uint32_t kWalRemoveDocument = 2;

class DurableShard {
 public:
  struct Options {
    std::string data_dir;
    size_t shard_index = 0;
    storage::StoreKind store_kind = storage::StoreKind::kMem;
    cost::CostModel model;
    size_t inline_threshold = storage::kDefaultInlineThreshold;
  };

  struct OpenStats {
    size_t recovered_documents = 0;
    size_t replayed_records = 0;
    bool wal_tail_truncated = false;
    bool store_rebuilt = false;  // kv fallback path taken
  };

  /// Opens (or creates) the shard under `data_dir`, running recovery.
  /// Fails on a config mismatch with what the files were written under.
  static util::Result<std::unique_ptr<DurableShard>> Open(
      Options options, OpenStats* stats_out = nullptr);

  ~DurableShard();
  DurableShard(const DurableShard&) = delete;
  DurableShard& operator=(const DurableShard&) = delete;

  struct AddResult {
    uint64_t seq = 0;
    shard::DocSpan span;
  };

  /// Appends one document (assigned `global_start` by the corpus),
  /// durably: applied, logged, synced before returning. InvalidArgument
  /// (malformed XML) leaves the shard untouched; any later failure
  /// poisons the shard (see poisoned()).
  util::Result<AddResult> AddDocument(std::string_view xml,
                                      doc::NodeId global_start);

  /// Group-commit half of AddDocument: applies and appends the WAL
  /// record but does NOT sync — the mutation is not durable (and must
  /// not be acknowledged) until a following SyncWal() succeeds. The
  /// corpus batches several of these into one fsync.
  util::Result<AddResult> AddDocumentBuffered(std::string_view xml,
                                              doc::NodeId global_start);

  /// Fsync barrier covering every buffered append (see
  /// storage::WriteAheadLog::Sync). Failure poisons the shard.
  util::Status SyncWal();

  /// Removes the document whose global root is `global_start`. The
  /// shard's tree is rebuilt without it (remaining documents keep their
  /// global ids — holes are permanent) and every posting is rewritten.
  /// Callers MUST preload any live snapshot of this shard first: the
  /// rewrite renumbers local node ids in place.
  util::Result<uint64_t> RemoveDocument(doc::NodeId global_start);

  /// A finalized copy of the current tree (the corpus turns this into
  /// the next engine::Database generation).
  util::Result<doc::DataTree> SnapshotTree() const;

  /// Rebuilds the store as a fresh generation and truncates the WAL.
  util::Status Checkpoint();

  /// Crash simulation: drops every buffer without flushing and renders
  /// the shard unusable. What fsync made durable stays; nothing else.
  void Abandon();

  /// Set when a post-parse apply step failed: the persistent state may
  /// be mid-mutation, so further ingest is rejected (queries continue
  /// on their snapshots; recovery from the WAL heals the store).
  bool poisoned() const { return poisoned_; }

  /// Durable sequence number of the last acknowledged mutation — this
  /// shard's epoch contribution.
  uint64_t last_seq() const { return wal_->last_seq(); }

  const std::vector<shard::DocSpan>& spans() const { return spans_; }
  size_t node_count() const { return builder_.node_count(); }
  const std::shared_ptr<storage::SynchronizedKvStore>& store() const {
    return store_;
  }
  uint64_t wal_size_bytes() const { return wal_->size_bytes(); }
  /// Records appended since the last checkpoint (what replay would cost
  /// after a crash right now) — the auto-checkpoint trigger's unit.
  uint64_t wal_records() const { return wal_->last_seq() - wal_->base_seq(); }
  uint64_t vlog_size() const;
  storage::SpillingStore::Stats spill_stats() const;
  uint64_t generation() const { return gen_; }

 private:
  /// The concrete store stack of one generation. `store` is the
  /// swappable unit; the raw pointers alias into it (disk mode only).
  struct InnerStore {
    std::unique_ptr<storage::KvStore> store;
    storage::DiskKvStore* kv = nullptr;
    storage::ValueLog* vlog = nullptr;
    storage::SpillingStore* spilling = nullptr;
  };

  struct SnapshotFile {
    std::string config;
    uint64_t applied_seq = 0;
    uint64_t vlog_size = 0;
    doc::DataTree tree;
    std::vector<shard::DocSpan> spans;
  };

  explicit DurableShard(Options options);

  std::string FilePath(std::string_view suffix) const;
  std::string GenPath(uint64_t gen, std::string_view ext) const;
  std::string ConfigString() const;

  util::Result<InnerStore> OpenInner(uint64_t gen, bool start_fresh);
  util::Status PersistAllPostings(storage::KvStore* store) const;

  /// Apply steps shared by the live path and WAL replay. Both mutate
  /// builder_/spans_ and the store; neither touches the WAL.
  util::Status ApplyParsedAdd(const xml::XmlElement& root,
                              doc::NodeId global_start, shard::DocSpan* out);
  util::Status ApplyRemove(doc::NodeId global_start);

  util::Status WriteSnapshotFile(uint64_t gen, uint64_t applied_seq,
                                 uint64_t vlog_size_value) const;
  static util::Result<SnapshotFile> ReadSnapshotFile(
      const std::string& path, const cost::CostModel& model);
  util::Status WriteCurrent(uint64_t gen) const;
  util::Result<uint64_t> ReadCurrent() const;  // NotFound if absent

  /// One recovery attempt; `force_rebuild` discards the generation's kv
  /// and value log and rebuilds them from the snapshot tree.
  util::Status Recover(bool have_snapshot, const SnapshotFile& snap,
                       const std::vector<storage::WalRecord>& records,
                       bool force_rebuild, OpenStats* stats_out);

  /// Corruption if any stored posting references a node id beyond the
  /// recovered tree — entries a bounded page cache may have flushed from
  /// an un-logged (never-acked) apply, for labels replay never touched.
  util::Status VerifyNoStalePostings() const;

  void DeleteStaleGenerations() const;

  const Options options_;
  const std::string stem_;  // "shard<i>"

  doc::DataTreeBuilder builder_;
  std::vector<shard::DocSpan> spans_;
  std::unique_ptr<storage::WriteAheadLog> wal_;
  std::shared_ptr<storage::SynchronizedKvStore> store_;
  // Aliases into the SynchronizedKvStore's current inner store; null in
  // mem mode. Only touched from the (corpus-serialized) ingest path.
  storage::DiskKvStore* kv_ = nullptr;
  storage::ValueLog* vlog_ = nullptr;
  storage::SpillingStore* spilling_ = nullptr;
  uint64_t gen_ = 0;
  /// True only once Open finished successfully. The destructor must not
  /// checkpoint a partially recovered shard: the snapshot would be
  /// stamped with the WAL's last_seq and the WAL truncated, silently
  /// dropping acked records that were never applied.
  bool recovered_ = false;
  bool poisoned_ = false;
  bool abandoned_ = false;
};

}  // namespace approxql::ingest

#endif  // APPROXQL_INGEST_DURABLE_SHARD_H_
