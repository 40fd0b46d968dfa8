#include "ingest/mutable_corpus.h"

#include <algorithm>
#include <filesystem>
#include <thread>
#include <utility>

#include "engine/database.h"
#include "storage/file.h"
#include "util/logging.h"
#include "util/varint.h"

namespace approxql::ingest {

using util::Result;
using util::Status;

namespace {

constexpr uint32_t kMetaMagic = 0x54454d41;  // "AMET"

Status WriteMetaFile(const std::string& path, std::string_view config) {
  std::string out;
  util::PutVarint32(&out, kMetaMagic);
  util::PutVarint64(&out, config.size());
  out.append(config);
  storage::AppendCrcTrailer(&out);
  return storage::WriteFileDurably(path, out);
}

Result<std::string> ReadMetaFile(const std::string& path) {
  ASSIGN_OR_RETURN(std::string data, storage::ReadWholeFile(path));
  ASSIGN_OR_RETURN(std::string_view body, storage::CheckCrcTrailer(data, path));
  util::VarintReader reader(body);
  uint32_t magic = 0;
  uint64_t config_len = 0;
  std::string_view config;
  RETURN_IF_ERROR(reader.GetVarint32(&magic));
  RETURN_IF_ERROR(reader.GetVarint64(&config_len));
  RETURN_IF_ERROR(reader.GetBytes(config_len, &config));
  if (magic != kMetaMagic || !reader.empty()) {
    return Status::Corruption(path + ": malformed");
  }
  return std::string(config);
}

}  // namespace

MutableCorpus::MutableCorpus(Options options,
                             std::shared_ptr<service::MetricsRegistry> metrics)
    : options_(std::move(options)), metrics_(std::move(metrics)) {
  docs_added_ = metrics_->RegisterCounter("ingest_docs_added");
  docs_removed_ = metrics_->RegisterCounter("ingest_docs_removed");
  ingest_rejected_ = metrics_->RegisterCounter("ingest_rejected");
  generations_published_ =
      metrics_->RegisterCounter("ingest_generations_published");
  auto_checkpoints_ = metrics_->RegisterCounter("ingest_auto_checkpoints");
  epoch_gauge_ = metrics_->RegisterGauge("ingest_epoch");
  documents_gauge_ = metrics_->RegisterGauge("ingest_documents");
  ingest_latency_us_ = metrics_->RegisterHistogram("ingest_latency_us");
}

std::string MutableCorpus::ConfigString() const {
  return "shards=" + std::to_string(options_.num_shards) +
         ";model=" + options_.model.ToConfigString();
}

Result<std::unique_ptr<MutableCorpus>> MutableCorpus::Open(
    Options options, std::shared_ptr<service::MetricsRegistry> metrics,
    OpenStats* stats_out) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  std::error_code ec;
  std::filesystem::create_directories(options.data_dir, ec);
  if (ec) {
    return Status::IoError("cannot create " + options.data_dir + ": " +
                           ec.message());
  }
  if (metrics == nullptr) {
    metrics = std::make_shared<service::MetricsRegistry>();
  }
  std::unique_ptr<MutableCorpus> corpus(
      new MutableCorpus(std::move(options), std::move(metrics)));

  const std::string meta_path = corpus->options_.data_dir + "/corpus.meta";
  auto stored = ReadMetaFile(meta_path);
  if (stored.ok()) {
    if (*stored != corpus->ConfigString()) {
      return Status::Corruption("corpus.meta mismatch: directory was created "
                                "with \"" +
                                *stored + "\", reopened with \"" +
                                corpus->ConfigString() + "\"");
    }
  } else if (stored.status().IsNotFound()) {
    RETURN_IF_ERROR(WriteMetaFile(meta_path, corpus->ConfigString()));
  } else {
    return stored.status();
  }

  // Recover all shards in parallel — WAL replay re-parses every logged
  // document, so recovery of a large corpus is CPU-bound.
  const size_t n = corpus->options_.num_shards;
  std::vector<Status> statuses(n, Status::OK());
  std::vector<std::unique_ptr<DurableShard>> opened(n);
  std::vector<DurableShard::OpenStats> shard_stats(n);
  {
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      threads.emplace_back([&, i] {
        DurableShard::Options shard_options;
        shard_options.data_dir = corpus->options_.data_dir;
        shard_options.shard_index = i;
        shard_options.model = corpus->options_.model;
        auto result =
            DurableShard::Open(std::move(shard_options), &shard_stats[i]);
        if (result.ok()) {
          opened[i] = std::move(result).value();
        } else {
          statuses[i] = result.status();
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (size_t i = 0; i < n; ++i) RETURN_IF_ERROR(statuses[i]);

  {
    util::MutexLock lock(&corpus->ingest_mu_);
    corpus->shards_ = std::move(opened);
    for (const auto& shard : corpus->shards_) {
      for (const shard::DocSpan& span : shard->spans()) {
        corpus->next_global_ = std::max(
            corpus->next_global_, span.global_start + span.length);
      }
    }
    if (stats_out != nullptr) {
      *stats_out = OpenStats();
      for (const DurableShard::OpenStats& s : shard_stats) {
        stats_out->recovered_documents += s.recovered_documents;
        stats_out->replayed_records += s.replayed_records;
        stats_out->any_tail_truncated |= s.wal_tail_truncated;
      }
    }
    RETURN_IF_ERROR(corpus->PublishGeneration(SIZE_MAX));
  }
  return corpus;
}

Result<std::shared_ptr<shard::ShardedDatabase::Shard>>
MutableCorpus::BuildShardView(size_t shard_index) {
  ASSIGN_OR_RETURN(doc::DataTree tree, shards_[shard_index]->SnapshotTree());
  ASSIGN_OR_RETURN(engine::Database db, engine::Database::FromDataTree(
                                            std::move(tree), options_.model));
  return std::make_shared<shard::ShardedDatabase::Shard>(std::move(db));
}

Status MutableCorpus::PublishGeneration(size_t mutated_shard) {
  // A previously failed publish left the current generation stale for
  // its shard; sharing unmutated shards from it would bake the staleness
  // into every later generation.
  const bool all = mutated_shard == SIZE_MAX || republish_all_;
  std::shared_ptr<const shard::ShardedDatabase> previous;
  {
    util::MutexLock lock(&snap_mu_);
    previous = current_;
  }
  std::vector<std::shared_ptr<shard::ShardedDatabase::Shard>> shards;
  std::vector<std::vector<shard::DocSpan>> spans;
  shards.reserve(shards_.size());
  spans.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    // A poisoned shard's builder may hold applies that were never made
    // durable; keep serving its last good view rather than publishing
    // phantom documents. A shared view keeps the spans it was built
    // with; a rebuilt one takes the durable shard's current spans.
    const bool rebuild =
        (all || i == mutated_shard) && !shards_[i]->poisoned();
    if (previous != nullptr && !rebuild) {
      shards.push_back(previous->shards_[i]);
      spans.push_back(previous->shard_spans(i));
    } else {
      ASSIGN_OR_RETURN(std::shared_ptr<shard::ShardedDatabase::Shard> shard,
                       BuildShardView(i));
      shards.push_back(std::move(shard));
      spans.push_back(shards_[i]->spans());
    }
  }
  const uint64_t epoch = DurableEpoch();
  ASSIGN_OR_RETURN(shard::ShardedDatabase assembled,
                   shard::ShardedDatabase::AssembleFromShards(
                       std::move(shards), std::move(spans), options_.model,
                       metrics_, epoch));
  auto generation = std::make_shared<const shard::ShardedDatabase>(
      std::move(assembled));

  {
    util::MutexLock lock(&snap_mu_);
    current_ = std::move(generation);
  }
  republish_all_ = false;
  generations_published_->Increment();
  epoch_gauge_->Set(static_cast<int64_t>(epoch));
  size_t documents = 0;
  for (const auto& shard : shards_) documents += shard->spans().size();
  documents_gauge_->Set(static_cast<int64_t>(documents));
  return Status::OK();
}

uint64_t MutableCorpus::DurableEpoch() const {
  uint64_t epoch = 0;
  for (const auto& shard : shards_) epoch += shard->last_seq();
  return epoch;
}

Result<MutableCorpus::IngestResult> MutableCorpus::AddDocument(
    std::string_view xml) {
  return Add(xml, /*assigned_root=*/0);
}

Result<MutableCorpus::IngestResult> MutableCorpus::AddDocumentAt(
    std::string_view xml, doc::NodeId doc_root) {
  if (doc_root == 0) {
    return Status::InvalidArgument("doc root 0 is the super-root");
  }
  return Add(xml, doc_root);
}

Result<MutableCorpus::IngestResult> MutableCorpus::Add(
    std::string_view xml, doc::NodeId assigned_root) {
  util::WallTimer timer;
  util::MutexLock lock(&ingest_mu_);
  if (abandoned_) {
    return Status::Unavailable("corpus abandoned; ingest rejected");
  }
  // Fewest documents, ties to the lowest index: recomputable from
  // recovered state, so placement survives crashes without a log of its
  // own.
  size_t target = 0;
  for (size_t i = 1; i < shards_.size(); ++i) {
    if (shards_[i]->spans().size() < shards_[target]->spans().size()) {
      target = i;
    }
  }
  doc::NodeId global_start = next_global_;
  if (assigned_root != 0) {
    if (assigned_root < next_global_) {
      ingest_rejected_->Increment();
      return Status::InvalidArgument(
          "assigned doc root " + std::to_string(assigned_root) +
          " is not beyond this corpus's allocated ids (next unassigned: " +
          std::to_string(next_global_) + ")");
    }
    global_start = assigned_root;
  }
  const uint64_t epoch_before = DurableEpoch();
  const size_t docs_before = shards_[target]->spans().size();
  auto added = shards_[target]->AddDocument(xml, global_start);
  if (shards_[target]->spans().size() > docs_before) {
    // Applied, even when the WAL append or fsync then failed: the record
    // may still reach the disk and replay, so its ids are never reused.
    const shard::DocSpan& span = shards_[target]->spans().back();
    next_global_ = span.global_start + span.length;
  }
  if (!added.ok()) {
    ingest_rejected_->Increment();
    return added.status();
  }
  docs_added_->Increment();
  return PublishMutation(/*is_add=*/true, target, added->span, added->seq,
                         epoch_before, timer);
}

Result<MutableCorpus::IngestResult> MutableCorpus::RemoveDocument(
    doc::NodeId doc_root) {
  util::WallTimer timer;
  util::MutexLock lock(&ingest_mu_);
  if (abandoned_) {
    return Status::Unavailable("corpus abandoned; ingest rejected");
  }
  size_t target = shards_.size();
  shard::DocSpan removed_span;
  for (size_t i = 0; i < shards_.size() && target == shards_.size(); ++i) {
    for (const shard::DocSpan& span : shards_[i]->spans()) {
      if (span.global_start == doc_root) {
        target = i;
        removed_span = span;  // pre-removal placement, for the result
        break;
      }
    }
  }
  if (target == shards_.size()) {
    return Status::NotFound("no document with global root " +
                            std::to_string(doc_root));
  }
  const uint64_t epoch_before = DurableEpoch();
  auto removed = shards_[target]->RemoveDocument(doc_root);
  if (!removed.ok()) {
    ingest_rejected_->Increment();
    return removed.status();
  }
  docs_removed_->Increment();
  return PublishMutation(/*is_add=*/false, target, removed_span, *removed,
                         epoch_before, timer);
}

MutableCorpus::IngestResult MutableCorpus::PublishMutation(
    bool is_add, size_t shard_index, const shard::DocSpan& span, uint64_t seq,
    uint64_t epoch_before, const util::WallTimer& timer) {
  Status published = PublishGeneration(shard_index);
  if (!published.ok()) {
    // The mutation is already durable (WAL appended + fsynced). A non-OK
    // ack would break the WireIngestAck contract — the client would
    // resend and duplicate the document — so ack anyway; the snapshot
    // stays stale until the next publish succeeds (and rebuilds every
    // shard).
    republish_all_ = true;
    APPROXQL_LOG(Error) << "generation publish failed after durable "
                        << (is_add ? "add: " : "remove: ")
                        << published.message();
  }
  DurableShard& shard = *shards_[shard_index];
  if (ShardOverThreshold(shard)) {
    // Inline, under the ingest lock like every other write: bounds the
    // WAL a crash replays. The mutation is durable either way, so a
    // failed checkpoint is logged and the mutation still acked.
    Status checkpointed = shard.Checkpoint();
    if (checkpointed.ok()) {
      auto_checkpoints_->Increment();
    } else {
      APPROXQL_LOG(Warning)
          << "auto-checkpoint failed: " << checkpointed.message();
    }
  }
  ingest_latency_us_->Record(static_cast<uint64_t>(timer.ElapsedMicros()));

  IngestResult result;
  result.seq = seq;
  result.prev_epoch = epoch_before;
  // The durable epoch, not the gauge: on a failed publish the gauge
  // still holds the pre-mutation value.
  result.epoch = DurableEpoch();
  result.doc_root = span.global_start;
  result.local_start = span.local_start;
  result.shard_index = static_cast<uint32_t>(shard_index);
  result.length = span.length;
  return result;
}

std::shared_ptr<const shard::ShardedDatabase> MutableCorpus::snapshot() const {
  util::MutexLock lock(&snap_mu_);
  return current_;
}

uint64_t MutableCorpus::epoch() const { return snapshot()->epoch(); }

size_t MutableCorpus::document_count() const {
  util::MutexLock lock(&ingest_mu_);
  size_t documents = 0;
  for (const auto& shard : shards_) documents += shard->spans().size();
  return documents;
}

Status MutableCorpus::Checkpoint() {
  util::MutexLock lock(&ingest_mu_);
  if (abandoned_) {
    return Status::Unavailable("corpus abandoned; checkpoint rejected");
  }
  for (const auto& shard : shards_) {
    RETURN_IF_ERROR(shard->Checkpoint());
  }
  return Status::OK();
}

void MutableCorpus::Abandon() {
  util::MutexLock lock(&ingest_mu_);
  abandoned_ = true;
  for (const auto& shard : shards_) shard->Abandon();
}

std::vector<MutableCorpus::ShardStatus> MutableCorpus::ShardStatuses() const {
  util::MutexLock lock(&ingest_mu_);
  std::vector<ShardStatus> statuses;
  statuses.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardStatus status;
    status.documents = shard->spans().size();
    status.last_seq = shard->last_seq();
    status.wal_bytes = shard->wal_size_bytes();
    status.wal_records = shard->wal_records();
    status.poisoned = shard->poisoned();
    statuses.push_back(status);
  }
  return statuses;
}

service::BackendPin MutableCorpus::Pin() const {
  std::shared_ptr<const shard::ShardedDatabase> generation = snapshot();
  return {generation->LayoutFingerprint(), generation->epoch(),
          std::move(generation)};
}

service::QueryResponse MutableCorpus::Execute(
    const service::BackendPin& pin, const query::Query& query,
    const service::QueryRequest& request, const engine::ExecOptions& exec,
    std::optional<Clock::time_point> deadline) const {
  return pin.snapshot->Execute(pin, query, request, exec, deadline);
}

std::string MutableCorpus::DumpMetrics() const {
  std::string out = metrics_->DumpText();
  std::vector<ShardStatus> statuses = ShardStatuses();
  for (size_t i = 0; i < statuses.size(); ++i) {
    const std::string stem = "ingest_shard" + std::to_string(i);
    out += stem + "_documents " + std::to_string(statuses[i].documents) + "\n";
    out += stem + "_last_seq " + std::to_string(statuses[i].last_seq) + "\n";
    out += stem + "_wal_bytes " + std::to_string(statuses[i].wal_bytes) + "\n";
  }
  return out;
}

bool MutableCorpus::ShardOverThreshold(const DurableShard& shard) const {
  return !shard.poisoned() && options_.checkpoint_wal_records > 0 &&
         shard.wal_records() > options_.checkpoint_wal_records;
}

}  // namespace approxql::ingest
