// live_ingest: writes beside reads. An ingest::MutableCorpus with 2
// shards (in-memory posting store, WAL fsync on every ack, a record-count
// auto-checkpoint that fires several times per run) is preloaded through
// AddDocument. Then one writer stream alternates "add a new document"
// and "remove the oldest document", which keeps the corpus size (and so
// the per-ack rebuild cost) constant, while one reader stream runs
// schema-strategy best-10 queries through a QueryService over the
// corpus. No wire or router code runs.
#include <algorithm>
#include <atomic>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "doc/data_tree.h"
#include "ingest/mutable_corpus.h"
#include "query/expanded.h"
#include "service/query_service.h"
#include "shard/sharded_database.h"
#include "storage/wal/wal.h"
#include "util/logging.h"
#include "workload.h"

namespace perfbench {
namespace {

using approxql::engine::Database;
using approxql::engine::QueryAnswer;
using approxql::gen::GeneratedQuery;
using approxql::ingest::MutableCorpus;
using approxql::service::QueryRequest;
using approxql::service::QueryResponse;
using approxql::service::QueryService;
using approxql::service::ServiceOptions;
using approxql::shard::ShardedDatabase;
namespace doc = approxql::doc;

constexpr size_t kShards = 2;
constexpr size_t kElementsPerDocument = 50;
constexpr size_t kPreloadElements = 7500;  // ~150 documents
constexpr size_t kPoolElements = 40000;      // documents the writer adds
constexpr size_t kQueriesPerCell = 20;
constexpr uint64_t kCheckpointRecords = 16;
constexpr size_t kSetups = 3;
// Per-layer calls right after every read would slow the next read's
// worker wake-up (the worker idles longer) and distort the traced
// stream; a traced run decomposes every 7th read instead (7 is coprime
// with the pass length, so the sample rotates through all queries).
constexpr size_t kTraceStride = 7;

size_t CachedPostings(const ShardedDatabase& snapshot) {
  size_t total = 0;
  for (size_t s = 0; s < snapshot.num_shards(); ++s) {
    total += snapshot.shard_postings(s).CachedCount();
  }
  return total;
}

uint64_t WalBytes(const MutableCorpus& corpus) {
  uint64_t total = 0;
  for (const auto& status : corpus.ShardStatuses()) total += status.wal_bytes;
  return total;
}

/// The writer stream: alternates adding the next pool document and
/// removing the oldest live document, one outstanding mutation at a
/// time, until stopped.
class Writer {
 public:
  struct Live {
    doc::NodeId root;
    uint32_t length;
    size_t doc;  // index into the document pool
  };

  Writer(MutableCorpus& corpus, const std::vector<std::string>& pool,
         std::deque<Live>& live, size_t& next_doc)
      : corpus_(corpus), pool_(pool), live_(live), next_doc_(next_doc) {}

  /// Runs until `stop` is set; `log` (traced runs) gets the add/remove
  /// spans and WAL growth samples.
  void Run(const std::atomic<bool>& stop, SpanLog* log) {
    const double start = NowUs();
    while (!stop.load(std::memory_order_relaxed)) {
      const bool add = (ops_ % 2) == 0;
      ++ops_;
      ++attempted_;
      uint64_t wal_before = log != nullptr ? WalBytes(corpus_) : 0;
      const double op_start = NowUs();
      if (add) {
        const size_t doc = next_doc_++ % pool_.size();
        auto result = corpus_.AddDocument(pool_[doc]);
        const double us = NowUs() - op_start;
        if (!result.ok()) {
          ++failed_;
          continue;
        }
        live_.push_back({result->doc_root, result->length, doc});
        ack_us_.push_back(us);
        if (log != nullptr) {
          log->Count("add_us", us);
          const uint64_t wal_after = WalBytes(corpus_);
          // A checkpoint truncated the log in between: no sample.
          if (wal_after > wal_before) {
            log->Count("wal_ratio", static_cast<double>(wal_after - wal_before) /
                                        static_cast<double>(pool_[doc].size()));
          }
        }
      } else {
        const Live oldest = live_.front();
        auto result = corpus_.RemoveDocument(oldest.root);
        const double us = NowUs() - op_start;
        if (!result.ok()) {
          ++failed_;
          continue;
        }
        live_.pop_front();
        ack_us_.push_back(us);
        if (log != nullptr) log->Count("remove_us", us);
      }
    }
    elapsed_s_ = (NowUs() - start) / 1e6;
  }

  const std::vector<double>& ack_us() const { return ack_us_; }
  double docs_per_s() const {
    return elapsed_s_ > 0 ? static_cast<double>(ack_us_.size()) / elapsed_s_
                          : 0;
  }
  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }

 private:
  MutableCorpus& corpus_;
  const std::vector<std::string>& pool_;
  std::deque<Live>& live_;
  size_t& next_doc_;
  size_t ops_ = 0;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::vector<double> ack_us_;
  double elapsed_s_ = 0;
};

}  // namespace

int RunLiveIngest(const Args& args, Report* report, LayerMetrics* layers) {
  // One document pool: the first ~kPreloadElements worth is preloaded,
  // the rest feeds the writer (recycled if a run outlasts it). The seed
  // permutes each part, never moves documents between them, so every
  // seed preloads and ingests the same documents.
  std::vector<std::string> pool =
      MakeDocuments(kPreloadElements + kPoolElements, kElementsPerDocument);
  size_t preload = 0;
  for (size_t elements = 0; elements < kPreloadElements; ++preload) {
    elements += CountElements(pool[preload]);
  }
  {
    std::vector<std::string> head(pool.begin(), pool.begin() + preload);
    std::vector<std::string> tail(pool.begin() + preload, pool.end());
    Shuffle(&head, Mix(args.seed, 1));
    Shuffle(&tail, Mix(args.seed, 2));
    pool = std::move(head);
    pool.insert(pool.end(), tail.begin(), tail.end());
  }
  const approxql::cost::CostModel model;

  // Queries are drawn from the preloaded collection; the writer only
  // rotates documents of the same generator, so they keep matching.
  std::vector<GeneratedQuery> queries;
  {
    auto seed_db = Database::BuildFromXml(
        std::vector<std::string>(pool.begin(), pool.begin() + preload), model);
    APPROXQL_CHECK(seed_db.ok()) << seed_db.status();
    queries = MakeQueries(*seed_db, {0, 5}, kQueriesPerCell);
  }

  std::unique_ptr<QueryService> service;
  std::unique_ptr<MutableCorpus> corpus;
  std::deque<Writer::Live> live;
  size_t next_doc = 0;
  size_t warmup_attempted = 0;
  size_t warmup_failed = 0;

  auto read = [&](size_t i, SpanLog* log) -> Outcome {
    const GeneratedQuery& query = queries[i];
    std::shared_ptr<const ShardedDatabase> before;
    size_t cached_before = 0;
    if (log != nullptr) {
      before = corpus->snapshot();
      cached_before = CachedPostings(*before);
    }
    QueryRequest request;
    request.query_text = query.text;
    request.exec = SchemaOptions(query);
    request.bypass_cache = true;
    const double start = NowUs();
    QueryResponse response = service->Submit(std::move(request)).get();
    Outcome outcome;
    outcome.latency_us = NowUs() - start;
    outcome.ok = response.status.ok() && !response.truncated &&
                 !response.degraded && response.backend_snapshot != nullptr;
    if (!outcome.ok || log == nullptr) return outcome;

    const double shadow_start = NowUs();
    const uint32_t r = static_cast<uint32_t>(log->Counter("requests").size());
    log->Count("requests", 1);
    log->Add("stream", r, outcome.latency_us);
    log->Add("service.queue", r, static_cast<double>(response.queue_micros));
    log->Add("service.overhead", r,
             std::max(0.0, outcome.latency_us -
                               static_cast<double>(response.exec_micros +
                                                   response.queue_micros)));
    log->Add("service.exec", r, static_cast<double>(response.exec_micros));
    const ShardedDatabase& snapshot = *response.backend_snapshot;
    if (before.get() == &snapshot) {
      log->Count("decoded",
                 static_cast<double>(CachedPostings(snapshot) - cached_before));
    }
    auto parsed = log->Time("query.parse", r,
                            [&] { return approxql::query::Parse(query.text); });
    APPROXQL_CHECK(parsed.ok()) << parsed.status();
    auto expanded = log->Time("query.expand", r, [&] {
      return approxql::query::ExpandedQuery::Build(*parsed, query.cost_model);
    });
    APPROXQL_CHECK(expanded.ok()) << expanded.status();
    approxql::shard::ScatterStats stats;
    auto answers = log->Time("shard.scatter", r, [&] {
      return snapshot.Execute(*parsed, SchemaOptions(query),
                              approxql::shard::ScatterOptions{}, &stats);
    });
    APPROXQL_CHECK(answers.ok()) << answers.status();
    // Same snapshot, same query: the service must have answered exactly
    // what the scatter-gather call returns.
    if (std::string diff = DiffAnswers(response.answers, *answers);
        !diff.empty()) {
      report->Mismatch("live_ingest read " + std::to_string(i) + ": " + diff);
    }
    std::vector<double> evals;
    for (const auto& shard : stats.shards) {
      evals.push_back(static_cast<double>(shard.eval_us));
    }
    double eval_sum = 0;
    for (double e : evals) eval_sum += e;
    const double eval_max = *std::max_element(evals.begin(), evals.end());
    log->Add("engine.schema", r, eval_sum);
    log->Count("max_shard_eval", eval_max);
    log->Count("imbalance", eval_max / std::max(1.0, Mean(evals)));
    log->Count("rounds", static_cast<double>(stats.schema.rounds));
    log->Count("final_k", static_cast<double>(stats.schema.final_k));
    log->Count("second_level",
               static_cast<double>(stats.schema.second_level_executed));
    log->Count("instances", static_cast<double>(stats.schema.instances_scanned));
    log->Count("entries", static_cast<double>(stats.schema.entries_created));
    log->Count("k_capped", stats.schema.k_capped ? 1 : 0);
    log->Count("answers", static_cast<double>(answers->size()));
    outcome.excluded_us = NowUs() - shadow_start;
    return outcome;
  };

  const double setup_s = MedianSetup(kSetups, [&](size_t rep) {
    service.reset();
    corpus.reset();
    live.clear();
    const std::string dir = args.work_dir + "/corpus" + std::to_string(rep);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const double start = NowUs();
    MutableCorpus::Options options;
    options.data_dir = dir;
    options.num_shards = kShards;
    options.store_kind = approxql::storage::StoreKind::kMem;
    options.model = model;
    options.checkpoint_wal_records = kCheckpointRecords;
    auto opened = MutableCorpus::Open(std::move(options));
    APPROXQL_CHECK(opened.ok()) << opened.status();
    corpus = std::move(opened).value();
    for (size_t d = 0; d < preload; ++d) {
      auto result = corpus->AddDocument(pool[d]);
      APPROXQL_CHECK(result.ok()) << result.status();
      live.push_back({result->doc_root, result->length, d});
    }
    next_doc = preload;
    service = std::make_unique<QueryService>(
        *corpus, ServiceOptions{.num_threads = 1,
                                .queue_capacity = 16,
                                .cache_capacity = 0});
    for (size_t i = 0; i < queries.size(); ++i) {
      ++warmup_attempted;
      if (!read(i, nullptr).ok) ++warmup_failed;
    }
    return (NowUs() - start) / 1e6;
  });
  report->Attempt(warmup_attempted, warmup_failed);
  report->Detail("preloaded_documents", static_cast<double>(preload));
  report->Detail("queries", static_cast<double>(queries.size()));
  report->Samples("setup_s", kSetups);

  // One timed window: the reader's passes, with the writer running
  // beside it for exactly as long.
  auto window = [&](double seconds, SpanLog* log) {
    std::atomic<bool> stop{false};
    Writer writer(*corpus, pool, live, next_doc);
    std::thread writer_thread([&] { writer.Run(stop, log); });
    size_t attempt = 0;
    StreamStats reader = RunPasses(queries.size(), seconds, [&](size_t i) {
      const bool sampled = log != nullptr && attempt++ % kTraceStride == 0;
      return read(i, sampled ? log : nullptr);
    });
    stop.store(true);
    writer_thread.join();
    report->Attempt(reader.attempted + writer.attempted(),
                    reader.failed + writer.failed());
    return std::make_pair(std::move(reader), std::move(writer));
  };

  LayerMetrics& m = *layers;
  if (!args.trace) {
    auto [stream, writer] = window(args.seconds, nullptr);
    ReportStream(stream, setup_s, report);
    report->Detail("ingest_p50_us", Percentile(writer.ack_us(), 0.5));
    report->Detail("ingest_docs_per_s", writer.docs_per_s());
    report->Samples("ingest_p50_us", writer.ack_us().size());
  } else {
    const StreamStats untraced = window(args.seconds / 4, nullptr).first;
    SpanLog log;
    const std::string dump_before = corpus->metrics()->DumpText();
    auto [traced, writer] = window(args.seconds / 4, &log);
    const std::string dump_after = corpus->metrics()->DumpText();

    const double queue = log.MeanPerRequest("service.queue");
    const double overhead = log.MeanPerRequest("service.overhead");
    const double parse = log.MeanPerRequest("query.parse");
    const double expand = log.MeanPerRequest("query.expand");
    const double scatter = log.MeanPerRequest("shard.scatter");
    const double eval = log.MeanPerRequest("engine.schema");
    // Each shard expands the query again inside its evaluation.
    const double schema_self =
        std::max(0.0, eval - static_cast<double>(kShards) * expand);
    const double shard_self = std::max(0.0, scatter - eval);
    m["service.queue_us"] = queue;
    m["service.overhead_us"] = overhead;
    m["service.exec_self_us"] = std::max(
        0.0, log.MeanPerRequest("service.exec") - parse - scatter);
    m["query.parse_us"] = parse;
    m["query.expand_us"] = static_cast<double>(kShards) * expand;
    m["engine.schema_eval_us"] = schema_self;
    m["engine.schema.rounds"] = log.CounterMean("rounds");
    m["engine.schema.final_k"] = log.CounterMean("final_k");
    m["engine.schema.second_level"] = log.CounterMean("second_level");
    m["engine.schema.instances_scanned"] = log.CounterMean("instances");
    m["engine.schema.entries_created"] = log.CounterMean("entries");
    m["engine.schema.k_capped_frac"] = log.CounterMean("k_capped");
    const double second_level = log.CounterSum("second_level");
    m["engine.schema.answers_per_second_level"] =
        second_level > 0 ? log.CounterSum("answers") / second_level : 0;
    m["shard.scatter_us"] = scatter;
    m["shard.max_shard_eval_us"] = log.CounterMean("max_shard_eval");
    m["shard.imbalance"] = log.CounterMean("imbalance");
    m["index.postings_decoded_per_query"] = log.CounterMean("decoded");
    m["ingest.add_us"] = log.CounterMean("add_us");
    m["ingest.remove_us"] = log.CounterMean("remove_us");
    m["ingest.ack_p50_us"] = Percentile(writer.ack_us(), 0.5);
    m["ingest.docs_per_s"] = writer.docs_per_s();
    m["ingest.checkpoints"] =
        DumpValue(dump_after, "ingest_auto_checkpoints") -
        DumpValue(dump_before, "ingest_auto_checkpoints");
    m["ingest.group_commit_batch"] =
        DumpValue(dump_after, "ingest_group_commit_batch", "mean");
    m["storage.wal_bytes_per_doc_byte"] = log.CounterMean("wal_ratio");
    m["trace.query_p99_us"] = Percentile(traced.latency_us, 0.99);
    m["trace.coverage"] =
        (queue + overhead + parse + shard_self + static_cast<double>(kShards) *
                                                     expand +
         schema_self) /
        log.MeanPerRequest("stream");
    m["trace.overhead"] =
        untraced.qps() > 0 ? traced.qps() / untraced.qps() : 0;
    report->Samples("traced_requests", log.Counter("requests").size());
    report->Samples("traced_acks", writer.ack_us().size());
  }

  // Correctness gate: the final snapshot against a fresh single database
  // over the surviving documents in id order. Global ids keep holes
  // where documents were removed; the oracle's ids are compact, so
  // answers are compared through (document, offset).
  std::vector<Writer::Live> survivors(live.begin(), live.end());
  std::sort(survivors.begin(), survivors.end(),
            [](const Writer::Live& a, const Writer::Live& b) {
              return a.root < b.root;
            });
  std::vector<std::string> surviving_xml;
  std::map<doc::NodeId, doc::NodeId> compact_start;  // global root -> oracle
  doc::NodeId next_compact = 1;
  for (const Writer::Live& doc : survivors) {
    surviving_xml.push_back(pool[doc.doc]);
    compact_start[doc.root] = next_compact;
    next_compact += doc.length;
  }
  auto oracle_db = Database::BuildFromXml(surviving_xml, model);
  APPROXQL_CHECK(oracle_db.ok()) << oracle_db.status();
  // A background checkpoint may still publish a generation; it holds
  // the same documents (checkpoints never move the epoch).
  const uint64_t final_epoch = corpus->epoch();
  bool inject = args.inject_wrong_answer;
  size_t oracle_empty = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryRequest request;
    request.query_text = queries[i].text;
    request.exec = SchemaOptions(queries[i]);
    request.bypass_cache = true;
    QueryResponse response = service->Submit(std::move(request)).get();
    report->Attempt(1, 0);
    if (!response.status.ok() || response.truncated ||
        response.backend_snapshot == nullptr ||
        response.backend_snapshot->epoch() != final_epoch) {
      report->Attempt(0, 1);
      continue;
    }
    std::vector<QueryAnswer> answers;
    for (const QueryAnswer& answer : response.answers) {
      const doc::NodeId root =
          response.backend_snapshot->DocRootOf(answer.root);
      auto it = compact_start.find(root);
      answers.push_back(
          {it == compact_start.end() ? 0 : it->second + (answer.root - root),
           answer.cost});
    }
    if (inject) {
      CorruptAnswers(&answers);
      inject = false;
    }
    auto want = oracle_db->Execute(queries[i].query, SchemaOptions(queries[i]));
    APPROXQL_CHECK(want.ok()) << want.status();
    if (want->empty()) ++oracle_empty;
    if (std::string diff = DiffAnswers(answers, *want); !diff.empty()) {
      report->Mismatch("live_ingest final query " + std::to_string(i) + ": " +
                       diff);
    }
  }
  report->Detail("surviving_documents", static_cast<double>(survivors.size()));
  report->Detail("oracle_empty_answer_lists", static_cast<double>(oracle_empty));

  if (args.trace) {
    // Publish proxy: the engine rebuild an ack pays, on a tree the size
    // of one shard (every ack rebuilds its whole shard).
    doc::DataTreeBuilder builder;
    for (size_t d = 0; d < surviving_xml.size(); d += kShards) {
      APPROXQL_CHECK(builder.AddDocumentXml(surviving_xml[d]).ok());
    }
    std::vector<double> publish;
    for (int rep = 0; rep < 5; ++rep) {
      auto tree = builder.Snapshot(model);
      APPROXQL_CHECK(tree.ok()) << tree.status();
      const double start = NowUs();
      auto db = Database::FromDataTree(std::move(tree).value(), model);
      publish.push_back(NowUs() - start);
      APPROXQL_CHECK(db.ok()) << db.status();
    }
    m["ingest.publish_proxy_us"] = Median(publish);

    // WAL append + fsync of one document-sized record on the same
    // filesystem as the corpus.
    const std::string wal_path = args.work_dir + "/probe.wal";
    auto wal = approxql::storage::WriteAheadLog::Open(wal_path, "perfbench");
    APPROXQL_CHECK(wal.ok()) << wal.status();
    std::vector<double> sync;
    for (size_t rep = 0; rep < 32; ++rep) {
      const double start = NowUs();
      auto appended = wal->wal->Append(1, pool[rep % pool.size()]);
      auto synced = wal->wal->Sync();
      sync.push_back(NowUs() - start);
      APPROXQL_CHECK(appended.ok() && synced.ok());
    }
    m["storage.wal_sync_us"] = Median(sync);
  }
  service.reset();
  corpus.reset();
  return 0;
}

}  // namespace perfbench
