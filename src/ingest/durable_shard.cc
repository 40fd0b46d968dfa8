#include "ingest/durable_shard.h"

#include <algorithm>
#include <utility>

#include "storage/file.h"
#include "util/logging.h"
#include "util/varint.h"

namespace approxql::ingest {

using util::Result;
using util::Status;

namespace {

constexpr uint32_t kSnapMagic = 0x4e535141;  // "AQSN"
constexpr uint32_t kSnapVersion = 2;

}  // namespace

DurableShard::DurableShard(Options options)
    : options_(std::move(options)),
      stem_("shard" + std::to_string(options_.shard_index)) {}

DurableShard::~DurableShard() {
  if (!recovered_ || abandoned_ || poisoned_ || wal_ == nullptr) return;
  // Clean shutdown = checkpoint: the next open loads the snapshot and
  // replays nothing.
  Status status = Checkpoint();
  if (!status.ok()) {
    APPROXQL_LOG(Error) << stem_
                        << ": shutdown checkpoint failed: " << status.message();
  }
}

std::string DurableShard::FilePath(std::string_view suffix) const {
  return options_.data_dir + "/" + stem_ + std::string(suffix);
}

std::string DurableShard::ConfigString() const {
  return "shard=" + std::to_string(options_.shard_index) +
         ";model=" + options_.model.ToConfigString();
}

shard::DocSpan DurableShard::ApplyParsedAdd(const xml::XmlElement& root,
                                            doc::NodeId global_start) {
  shard::DocSpan span;
  span.local_start = static_cast<doc::NodeId>(builder_.node_count());
  span.global_start = global_start;
  builder_.AddDocument(root);
  span.length =
      static_cast<uint32_t>(builder_.node_count() - span.local_start);
  spans_.push_back(span);
  return span;
}

Status DurableShard::ApplyRemove(doc::NodeId global_start) {
  auto it = std::find_if(spans_.begin(), spans_.end(),
                         [global_start](const shard::DocSpan& span) {
                           return span.global_start == global_start;
                         });
  if (it == spans_.end()) {
    return Status::NotFound("no document with global root " +
                            std::to_string(global_start));
  }
  ASSIGN_OR_RETURN(doc::DataTree old_tree, builder_.Snapshot(options_.model));

  doc::DataTreeBuilder rebuilt;
  std::vector<shard::DocSpan> new_spans;
  new_spans.reserve(spans_.size() - 1);
  for (const shard::DocSpan& span : spans_) {
    if (span.global_start == global_start) continue;
    shard::DocSpan moved = span;
    moved.local_start = static_cast<doc::NodeId>(rebuilt.node_count());
    rebuilt.AppendSubtree(old_tree, span.local_start);
    new_spans.push_back(moved);
  }

  builder_ = std::move(rebuilt);
  spans_ = std::move(new_spans);
  return Status::OK();
}

Result<uint64_t> DurableShard::LogDurably(uint32_t type,
                                          std::string_view body) {
  Result<uint64_t> seq = wal_->Append(type, body);
  Status synced = seq.ok() ? wal_->Sync() : seq.status();
  if (!synced.ok()) {
    // The mutation is applied in memory but not durable.
    poisoned_ = true;
    return synced;
  }
  return seq;
}

Result<DurableShard::AddResult> DurableShard::AddDocument(
    std::string_view xml, doc::NodeId global_start) {
  if (poisoned_) {
    return Status::Unavailable(stem_ + " is poisoned; ingest rejected");
  }
  // DOM pre-parse: a malformed document is rejected before any state is
  // touched (the streaming parser would leave a partial subtree).
  auto parsed = xml::ParseXmlDocument(xml);
  if (!parsed.ok()) {
    return Status::InvalidArgument("ingest rejected: " +
                                   parsed.status().message());
  }

  AddResult result;
  result.span = ApplyParsedAdd(*parsed->root, global_start);
  std::string body;
  util::PutVarint32(&body, global_start);
  util::PutVarint32(&body, result.span.local_start);
  util::PutVarint32(&body, result.span.length);
  util::PutVarint64(&body, xml.size());
  body.append(xml);
  ASSIGN_OR_RETURN(result.seq, LogDurably(kWalAddDocument, body));
  return result;
}

Result<uint64_t> DurableShard::RemoveDocument(doc::NodeId global_start) {
  if (poisoned_) {
    return Status::Unavailable(stem_ + " is poisoned; ingest rejected");
  }
  Status applied = ApplyRemove(global_start);
  if (!applied.ok()) {
    if (applied.IsNotFound()) return applied;  // nothing was touched
    poisoned_ = true;
    return applied;
  }
  std::string body;
  util::PutVarint32(&body, global_start);
  return LogDurably(kWalRemoveDocument, body);
}

Result<doc::DataTree> DurableShard::SnapshotTree() const {
  return builder_.Snapshot(options_.model);
}

Status DurableShard::WriteSnapshotFile(uint64_t applied_seq) const {
  ASSIGN_OR_RETURN(doc::DataTree tree, builder_.Snapshot(options_.model));
  std::string out;
  util::PutVarint32(&out, kSnapMagic);
  util::PutVarint32(&out, kSnapVersion);
  const std::string config = ConfigString();
  util::PutVarint64(&out, config.size());
  out.append(config);
  util::PutVarint64(&out, applied_seq);
  std::string tree_bytes;
  tree.Serialize(&tree_bytes);
  util::PutVarint64(&out, tree_bytes.size());
  out.append(tree_bytes);
  util::PutVarint64(&out, spans_.size());
  for (const shard::DocSpan& span : spans_) {
    util::PutVarint32(&out, span.local_start);
    util::PutVarint32(&out, span.global_start);
    util::PutVarint32(&out, span.length);
  }
  storage::AppendCrcTrailer(&out);
  return storage::WriteFileDurably(FilePath(".snap"), out);
}

Result<DurableShard::SnapshotFile> DurableShard::ReadSnapshotFile(
    const std::string& path, const cost::CostModel& model) {
  ASSIGN_OR_RETURN(std::string data, storage::ReadWholeFile(path));
  ASSIGN_OR_RETURN(std::string_view body, storage::CheckCrcTrailer(data, path));
  util::VarintReader reader(body);
  uint32_t magic = 0;
  uint32_t version = 0;
  RETURN_IF_ERROR(reader.GetVarint32(&magic));
  RETURN_IF_ERROR(reader.GetVarint32(&version));
  if (magic != kSnapMagic) return Status::Corruption(path + ": bad magic");
  if (version != kSnapVersion) {
    return Status::Corruption(path + ": unsupported version");
  }
  SnapshotFile snap;
  uint64_t config_len = 0;
  RETURN_IF_ERROR(reader.GetVarint64(&config_len));
  std::string_view config;
  RETURN_IF_ERROR(reader.GetBytes(config_len, &config));
  snap.config = std::string(config);
  RETURN_IF_ERROR(reader.GetVarint64(&snap.applied_seq));
  uint64_t tree_len = 0;
  RETURN_IF_ERROR(reader.GetVarint64(&tree_len));
  std::string_view tree_bytes;
  RETURN_IF_ERROR(reader.GetBytes(tree_len, &tree_bytes));
  ASSIGN_OR_RETURN(snap.tree, doc::DataTree::Deserialize(tree_bytes, model));
  uint64_t span_count = 0;
  RETURN_IF_ERROR(reader.GetVarint64(&span_count));
  if (span_count > reader.remaining()) {
    return Status::Corruption(path + ": span count overruns file");
  }
  snap.spans.reserve(span_count);
  for (uint64_t i = 0; i < span_count; ++i) {
    shard::DocSpan span;
    RETURN_IF_ERROR(reader.GetVarint32(&span.local_start));
    RETURN_IF_ERROR(reader.GetVarint32(&span.global_start));
    RETURN_IF_ERROR(reader.GetVarint32(&span.length));
    snap.spans.push_back(span);
  }
  if (!reader.empty()) {
    return Status::Corruption(path + ": trailing bytes");
  }
  return snap;
}

Status DurableShard::Recover(uint64_t applied_seq,
                             const std::vector<storage::WalRecord>& records,
                             OpenStats* stats_out) {
  size_t replayed = 0;
  for (const storage::WalRecord& record : records) {
    if (record.seq <= applied_seq) continue;  // covered by the checkpoint
    util::VarintReader reader(record.payload);
    if (record.type == kWalAddDocument) {
      uint32_t global_start = 0;
      uint32_t local_start = 0;
      uint32_t length = 0;
      uint64_t xml_len = 0;
      std::string_view xml;
      RETURN_IF_ERROR(reader.GetVarint32(&global_start));
      RETURN_IF_ERROR(reader.GetVarint32(&local_start));
      RETURN_IF_ERROR(reader.GetVarint32(&length));
      RETURN_IF_ERROR(reader.GetVarint64(&xml_len));
      RETURN_IF_ERROR(reader.GetBytes(xml_len, &xml));
      if (local_start != builder_.node_count()) {
        return Status::Corruption(stem_ + ": replay placement mismatch at seq " +
                                  std::to_string(record.seq));
      }
      ASSIGN_OR_RETURN(xml::XmlDocument parsed, xml::ParseXmlDocument(xml));
      if (ApplyParsedAdd(*parsed.root, global_start).length != length) {
        return Status::Corruption(stem_ + ": replay length mismatch at seq " +
                                  std::to_string(record.seq));
      }
    } else if (record.type == kWalRemoveDocument) {
      uint32_t global_start = 0;
      RETURN_IF_ERROR(reader.GetVarint32(&global_start));
      RETURN_IF_ERROR(ApplyRemove(global_start));
    } else {
      return Status::Corruption(stem_ + ": unknown WAL record type " +
                                std::to_string(record.type));
    }
    ++replayed;
  }

  if (stats_out != nullptr) {
    stats_out->recovered_documents = spans_.size();
    stats_out->replayed_records = replayed;
  }
  return Status::OK();
}

Result<std::unique_ptr<DurableShard>> DurableShard::Open(Options options,
                                                         OpenStats* stats_out) {
  std::unique_ptr<DurableShard> shard(new DurableShard(std::move(options)));

  uint64_t applied_seq = 0;
  auto snap = ReadSnapshotFile(shard->FilePath(".snap"), shard->options_.model);
  if (snap.ok()) {
    if (snap->config != shard->ConfigString()) {
      return Status::Corruption(
          shard->stem_ + ": snapshot config mismatch (stored \"" +
          snap->config + "\", expected \"" + shard->ConfigString() + "\")");
    }
    shard->builder_ = doc::DataTreeBuilder::FromTree(snap->tree);
    shard->spans_ = std::move(snap->spans);
    applied_seq = snap->applied_seq;
  } else if (!snap.status().IsNotFound()) {
    return snap.status();
  }

  ASSIGN_OR_RETURN(
      storage::WriteAheadLog::OpenResult wal_open,
      storage::WriteAheadLog::Open(shard->FilePath(".wal"),
                                   shard->ConfigString()));
  shard->wal_ = std::move(wal_open.wal);
  if (stats_out != nullptr) {
    stats_out->wal_tail_truncated = wal_open.tail_truncated;
  }
  // A checkpoint writes the snapshot before it truncates the WAL, so a
  // WAL truncated past the snapshot means a lost snapshot, and a
  // snapshot ahead of its WAL means lost acked records: either way the
  // files no longer carry every acknowledged mutation.
  if (applied_seq < shard->wal_->base_seq() ||
      applied_seq > shard->wal_->last_seq()) {
    return Status::Corruption(
        shard->stem_ + ": snapshot covers seq " + std::to_string(applied_seq) +
        " but the WAL holds seqs " + std::to_string(shard->wal_->base_seq()) +
        ".." + std::to_string(shard->wal_->last_seq()));
  }

  RETURN_IF_ERROR(shard->Recover(applied_seq, wal_open.records, stats_out));
  shard->recovered_ = true;
  return shard;
}

Status DurableShard::Checkpoint() {
  if (poisoned_) {
    return Status::Unavailable(stem_ + " is poisoned; checkpoint rejected");
  }
  // The snapshot's rename is the commit point; the truncate after it
  // only drops records the snapshot already covers.
  RETURN_IF_ERROR(WriteSnapshotFile(wal_->last_seq()));
  return wal_->Truncate();
}

void DurableShard::Abandon() {
  abandoned_ = true;
  if (wal_ != nullptr) wal_->Abandon();
}

}  // namespace approxql::ingest
