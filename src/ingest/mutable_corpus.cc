#include "ingest/mutable_corpus.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>
#include <utility>

#include "engine/database.h"
#include "storage/file.h"
#include "storage/wal/log_format.h"
#include "util/crc32.h"
#include "util/logging.h"
#include "util/timer.h"
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
  storage::PutFixed32(&out, util::Crc32c(out));
  return storage::WriteFileDurably(path, out);
}

Result<std::string> ReadMetaFile(const std::string& path) {
  ASSIGN_OR_RETURN(std::string data, storage::ReadWholeFile(path));
  if (data.size() < 4) return Status::Corruption(path + ": truncated");
  const std::string_view body(data.data(), data.size() - 4);
  if (storage::GetFixed32(data.data() + body.size()) != util::Crc32c(body)) {
    return Status::Corruption(path + ": CRC mismatch");
  }
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
  group_commit_batch_ =
      metrics_->RegisterHistogram("ingest_group_commit_batch");
}

MutableCorpus::~MutableCorpus() {
  if (ckpt_thread_.joinable()) {
    {
      util::MutexLock lock(&ckpt_mu_);
      ckpt_stop_ = true;
    }
    ckpt_cv_.NotifyAll();
    ckpt_thread_.join();
  }
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
  if (corpus->options_.checkpoint_wal_bytes > 0 ||
      corpus->options_.checkpoint_wal_records > 0) {
    corpus->ckpt_thread_ =
        std::thread([raw = corpus.get()] { raw->CheckpointLoop(); });
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
  if (mutated_shard == SIZE_MAX) return PublishShards(nullptr);
  std::vector<bool> mutated(shards_.size(), false);
  mutated[mutated_shard] = true;
  return PublishShards(&mutated);
}

Status MutableCorpus::PublishShards(const std::vector<bool>* mutated) {
  // A previously failed publish left the current generation stale for
  // its shard; sharing unmutated shards from it would bake the staleness
  // into every later generation.
  const bool all = mutated == nullptr || republish_all_;
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
    const bool rebuild = (all || (*mutated)[i]) && !shards_[i]->poisoned();
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

void MutableCorpus::NotifyPublish(uint64_t epoch,
                                  std::vector<Mutation> mutations) {
  if (listener_ == nullptr || mutations.empty()) return;
  PublishEvent event;
  event.epoch = epoch;
  event.mutations = std::move(mutations);
  listener_(event);
}

void MutableCorpus::SetPublishListener(PublishListener listener) {
  util::MutexLock lock(&ingest_mu_);
  listener_ = std::move(listener);
}

Result<MutableCorpus::IngestResult> MutableCorpus::AddDocument(
    std::string_view xml) {
  return EnqueueAdd(xml, /*assigned_root=*/0);
}

Result<MutableCorpus::IngestResult> MutableCorpus::AddDocumentAt(
    std::string_view xml, doc::NodeId doc_root) {
  if (doc_root == 0) {
    return Status::InvalidArgument("doc root 0 is the super-root");
  }
  return EnqueueAdd(xml, doc_root);
}

Result<MutableCorpus::IngestResult> MutableCorpus::EnqueueAdd(
    std::string_view xml, doc::NodeId assigned_root) {
  util::WallTimer timer;
  PendingAdd pending;
  pending.xml = xml;
  pending.assigned_root = assigned_root;
  {
    util::MutexLock lock(&queue_mu_);
    add_queue_.push_back(&pending);
    while (!pending.done && add_queue_.front() != &pending) {
      queue_cv_.Wait(&queue_mu_);
    }
    if (pending.done) {
      // A leader ahead of us committed our add as part of its batch.
      ingest_latency_us_->Record(
          static_cast<uint64_t>(timer.ElapsedMicros()));
      return std::move(pending.result);
    }
  }
  // We reached the front undone: lead a batch of everything queued.
  LeadCommit();
  ingest_latency_us_->Record(static_cast<uint64_t>(timer.ElapsedMicros()));
  return std::move(pending.result);
}

void MutableCorpus::LeadCommit() {
  util::MutexLock ingest(&ingest_mu_);
  if (options_.group_commit_window_us > 0) {
    // Bounded wait for more writers to queue up behind the leader. Even
    // at 0, followers that arrive while a previous leader fsyncs are
    // batched — the window only adds latency to buy bigger batches.
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.group_commit_window_us));
  }
  std::vector<PendingAdd*> batch;
  {
    util::MutexLock lock(&queue_mu_);
    batch.assign(add_queue_.begin(), add_queue_.end());
  }
  CommitBatch(batch);
  {
    util::MutexLock lock(&queue_mu_);
    // The batch is exactly the queue's prefix: writers only append, and
    // nobody else removes.
    add_queue_.erase(add_queue_.begin(), add_queue_.begin() + batch.size());
    for (PendingAdd* member : batch) member->done = true;
    queue_cv_.NotifyAll();
  }
}

void MutableCorpus::CommitBatch(const std::vector<PendingAdd*>& batch) {
  group_commit_batch_->Record(static_cast<uint64_t>(batch.size()));
  if (abandoned_) {
    for (PendingAdd* member : batch) {
      member->result = Status::Unavailable("corpus abandoned; ingest rejected");
    }
    return;
  }

  struct Applied {
    PendingAdd* member = nullptr;
    size_t shard = 0;
    DurableShard::AddResult add;
    uint64_t epoch_after = 0;
  };
  std::vector<Applied> applied;
  applied.reserve(batch.size());
  std::vector<Mutation> mutations;
  mutations.reserve(batch.size());
  std::vector<bool> touched(shards_.size(), false);
  uint64_t epoch = DurableEpoch();

  for (PendingAdd* member : batch) {
    // Fewest documents, ties to the lowest index: recomputable from
    // recovered state, so placement survives crashes without a log of
    // its own.
    size_t target = 0;
    for (size_t i = 1; i < shards_.size(); ++i) {
      if (shards_[i]->spans().size() < shards_[target]->spans().size()) {
        target = i;
      }
    }
    doc::NodeId global_start = next_global_;
    if (member->assigned_root != 0) {
      if (member->assigned_root < next_global_) {
        ingest_rejected_->Increment();
        member->result = Status::InvalidArgument(
            "assigned doc root " + std::to_string(member->assigned_root) +
            " is not beyond this corpus's allocated ids (next unassigned: " +
            std::to_string(next_global_) + ")");
        continue;
      }
      global_start = member->assigned_root;
    }
    auto added = shards_[target]->AddDocumentBuffered(member->xml,
                                                      global_start);
    if (!added.ok()) {
      ingest_rejected_->Increment();
      member->result = added.status();
      continue;
    }
    next_global_ = global_start + added->span.length;
    touched[target] = true;
    Mutation mutation;
    mutation.is_add = true;
    mutation.shard_index = static_cast<uint32_t>(target);
    mutation.span = added->span;
    mutation.prev_epoch = epoch;
    epoch += 1;  // the WAL append advanced the shard's sequence by one
    mutation.epoch = epoch;
    mutations.push_back(mutation);
    applied.push_back({member, target, *added, epoch});
  }

  // The group-commit point: one fsync per touched shard covers every
  // buffered append above.
  std::vector<Status> synced(shards_.size(), Status::OK());
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (touched[i]) synced[i] = shards_[i]->SyncWal();
  }
  for (const Applied& entry : applied) {
    if (!synced[entry.shard].ok()) {
      // Not durable: the shard is now poisoned and its buffered appends
      // must not be acknowledged (or published — see PublishShards).
      ingest_rejected_->Increment();
      entry.member->result = synced[entry.shard];
      continue;
    }
    IngestResult result;
    result.seq = entry.add.seq;
    result.epoch = entry.epoch_after;
    result.doc_root = entry.add.span.global_start;
    result.shard_index = static_cast<uint32_t>(entry.shard);
    result.length = entry.add.span.length;
    entry.member->result = std::move(result);
    docs_added_->Increment();
  }
  // Mutations on a sync-failed shard never became durable; drop them
  // from the publish event (subscribers see the epoch gap and fetch).
  mutations.erase(std::remove_if(mutations.begin(), mutations.end(),
                                 [&](const Mutation& m) {
                                   return !synced[m.shard_index].ok();
                                 }),
                  mutations.end());
  if (mutations.empty()) return;  // nothing durable; snapshot unchanged

  Status published = PublishShards(&touched);
  if (!published.ok()) {
    // The documents are already durable (WAL appended + fsynced). A
    // non-OK ack would break the WireIngestAck contract — the client
    // would resend and duplicate the document — so ack anyway; the
    // snapshot stays stale until the next publish succeeds (and
    // rebuilds every shard).
    republish_all_ = true;
    APPROXQL_LOG(Error) << "generation publish failed after durable add: "
                        << published.message();
  } else {
    NotifyPublish(DurableEpoch(), std::move(mutations));
  }
  MaybeKickCheckpointer();
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
        removed_span = span;  // pre-removal placement, for the event
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
  Status published = PublishGeneration(target);
  if (!published.ok()) {
    // As in AddDocument: the remove is durable, so it must be acked.
    republish_all_ = true;
    APPROXQL_LOG(Error) << "generation publish failed after durable remove: "
                        << published.message();
  }
  docs_removed_->Increment();
  ingest_latency_us_->Record(static_cast<uint64_t>(timer.ElapsedMicros()));

  IngestResult result;
  result.seq = *removed;
  // The durable epoch, not the gauge: on a failed publish the gauge
  // still holds the pre-mutation value.
  result.epoch = DurableEpoch();
  result.doc_root = doc_root;
  result.shard_index = static_cast<uint32_t>(target);
  result.length = removed_span.length;
  if (published.ok()) {
    Mutation mutation;
    mutation.is_add = false;
    mutation.shard_index = static_cast<uint32_t>(target);
    mutation.span = removed_span;
    mutation.prev_epoch = epoch_before;
    mutation.epoch = result.epoch;
    NotifyPublish(result.epoch, {mutation});
  }
  MaybeKickCheckpointer();
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
    status.generation = shard->generation();
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
  if (shard.poisoned()) return false;
  if (options_.checkpoint_wal_bytes > 0 &&
      shard.wal_size_bytes() > options_.checkpoint_wal_bytes) {
    return true;
  }
  return options_.checkpoint_wal_records > 0 &&
         shard.wal_records() > options_.checkpoint_wal_records;
}

void MutableCorpus::MaybeKickCheckpointer() {
  if (!ckpt_thread_.joinable()) return;  // no thresholds configured
  bool over = false;
  for (const auto& shard : shards_) {
    if (ShardOverThreshold(*shard)) {
      over = true;
      break;
    }
  }
  if (!over) return;
  {
    util::MutexLock lock(&ckpt_mu_);
    ckpt_kick_ = true;
  }
  ckpt_cv_.NotifyOne();
}

void MutableCorpus::CheckpointLoop() {
  for (;;) {
    {
      util::MutexLock lock(&ckpt_mu_);
      while (!ckpt_stop_ && !ckpt_kick_) ckpt_cv_.Wait(&ckpt_mu_);
      if (ckpt_stop_) return;
      ckpt_kick_ = false;
    }
    // Re-check thresholds under the ingest lock: the kick raced ongoing
    // ingest, and a shard may have been checkpointed meanwhile.
    util::MutexLock ingest(&ingest_mu_);
    if (abandoned_) continue;
    for (const auto& shard : shards_) {
      if (!ShardOverThreshold(*shard)) continue;
      Status checkpointed = shard->Checkpoint();
      if (checkpointed.ok()) {
        auto_checkpoints_->Increment();
      } else {
        APPROXQL_LOG(Warning)
            << "auto-checkpoint failed: " << checkpointed.message();
      }
    }
  }
}

}  // namespace approxql::ingest
