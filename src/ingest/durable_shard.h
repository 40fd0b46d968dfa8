// One shard's durable mutable state: the shard's data tree under
// construction (a DataTreeBuilder plus the documents' spans), a
// write-ahead log, and a checkpointed snapshot of the tree. Postings are
// not kept here: they are derived from the tree, and the corpus builds
// each published generation's engine::Database (label indexes
// included) from SnapshotTree().
//
// Write path (AddDocument/RemoveDocument): apply the mutation to the
// in-memory builder first, then append a WAL record carrying the
// post-apply facts (node placement) and fsync it. Only a synced record
// is acknowledged, so after a crash the recovered state contains every
// acknowledged document and never a partially applied one: an apply
// that was never logged lived only in memory.
//
// Checkpoint protocol:
//   1. replace shard<i>.snap (config, applied seq = the WAL's last seq,
//      serialized tree, doc spans) through storage::WriteFileDurably;
//      its rename is the single commit point;
//   2. truncate the WAL (preserving the sequence numbering).
// A crash before the rename leaves the old snapshot and the whole WAL; a
// crash between the two steps leaves the new snapshot beside a WAL whose
// every record it already covers, so replay skips them all.
//
// Recovery: load shard<i>.snap if present -> replay WAL records with
// seq > applied_seq, checking that every replayed add lands at its
// logged placement and length. A torn WAL tail (or any gap in the record
// sequence) ends replay cleanly at the last valid record. The snapshot +
// WAL together carry everything, so the snapshot's applied_seq (0 when
// there is none) must lie between the WAL's base_seq and its last seq:
// a WAL truncated past the snapshot, or a snapshot ahead of its WAL, is
// refused with Corruption rather than opened with documents missing.
//
// Directories written by older versions (snapshot version 1, configs
// naming a store kind, numbered shard<i>-<G>.snap checkpoints named by a
// separate pointer file) are refused with Corruption; there is no
// migration.
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
    cost::CostModel model;
  };

  struct OpenStats {
    size_t recovered_documents = 0;
    size_t replayed_records = 0;
    bool wal_tail_truncated = false;
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

  /// Removes the document whose global root is `global_start`. The
  /// shard's tree is rebuilt without it (remaining documents keep their
  /// global ids — holes are permanent; local ids are renumbered).
  /// Published generations hold their own trees and are unaffected.
  util::Result<uint64_t> RemoveDocument(doc::NodeId global_start);

  /// A finalized copy of the current tree (the corpus turns this into
  /// the next engine::Database generation).
  util::Result<doc::DataTree> SnapshotTree() const;

  /// Replaces the snapshot with the current tree and truncates the WAL.
  util::Status Checkpoint();

  /// Crash simulation: drops every buffer without flushing and renders
  /// the shard unusable. What fsync made durable stays; nothing else.
  void Abandon();

  /// Set when a post-parse apply step failed: the persistent state may
  /// be mid-mutation, so further ingest is rejected (queries continue
  /// on their snapshots; recovery from the WAL heals the shard).
  bool poisoned() const { return poisoned_; }

  /// Durable sequence number of the last acknowledged mutation — this
  /// shard's epoch contribution.
  uint64_t last_seq() const { return wal_->last_seq(); }

  const std::vector<shard::DocSpan>& spans() const { return spans_; }
  size_t node_count() const { return builder_.node_count(); }
  uint64_t wal_size_bytes() const { return wal_->size_bytes(); }
  /// Records appended since the last checkpoint (what replay would cost
  /// after a crash right now) — the auto-checkpoint trigger's unit.
  uint64_t wal_records() const { return wal_->last_seq() - wal_->base_seq(); }

 private:
  struct SnapshotFile {
    std::string config;
    uint64_t applied_seq = 0;
    doc::DataTree tree;
    std::vector<shard::DocSpan> spans;
  };

  explicit DurableShard(Options options);

  std::string FilePath(std::string_view suffix) const;
  std::string ConfigString() const;

  /// Apply steps shared by the live path and WAL replay. Both mutate
  /// builder_/spans_ only; neither touches the WAL.
  shard::DocSpan ApplyParsedAdd(const xml::XmlElement& root,
                                doc::NodeId global_start);
  util::Status ApplyRemove(doc::NodeId global_start);
  /// Appends a WAL record for an applied mutation and fsyncs it; returns
  /// its sequence number. Any failure poisons the shard.
  util::Result<uint64_t> LogDurably(uint32_t type, std::string_view body);

  util::Status WriteSnapshotFile(uint64_t applied_seq) const;
  static util::Result<SnapshotFile> ReadSnapshotFile(
      const std::string& path, const cost::CostModel& model);

  /// Replays the WAL records past `applied_seq` onto the loaded
  /// snapshot state.
  util::Status Recover(uint64_t applied_seq,
                       const std::vector<storage::WalRecord>& records,
                       OpenStats* stats_out);

  const Options options_;
  const std::string stem_;  // "shard<i>"

  doc::DataTreeBuilder builder_;
  std::vector<shard::DocSpan> spans_;
  std::unique_ptr<storage::WriteAheadLog> wal_;
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
