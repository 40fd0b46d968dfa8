// topk_schema: the paper's Section 7 algorithm alone. One closed-loop
// stream submits schema-strategy best-10 queries (patterns 1-3 at 0 and
// 5 renamings, per-query cost models) to a QueryService over one
// engine::Database with the result cache bypassed. No wire, router,
// shard or ingest code runs, so a change there must leave this
// workload unchanged.
#include <algorithm>
#include <memory>

#include "engine/database.h"
#include "query/expanded.h"
#include "service/query_service.h"
#include "util/logging.h"
#include "workload.h"

namespace perfbench {
namespace {

using approxql::engine::Database;
using approxql::engine::QueryAnswer;
using approxql::engine::SchemaEvalStats;
using approxql::gen::GeneratedQuery;
using approxql::service::QueryRequest;
using approxql::service::QueryResponse;
using approxql::service::QueryService;
using approxql::service::ServiceOptions;

// Paper scale 1:16 (1M elements in the paper's Section 8).
constexpr size_t kElements = 62500;
constexpr size_t kElementsPerDocument = 100;
// 10 renamings are left out: single queries take 0.4-0.6 s there, too
// few samples per run.
const std::vector<size_t> kRenamings = {0, 5};
constexpr size_t kQueriesPerCell = 20;
constexpr size_t kSetups = 3;

}  // namespace

int RunTopkSchema(const Args& args, Report* report, LayerMetrics* layers) {
  std::vector<std::string> documents =
      MakeDocuments(kElements, kElementsPerDocument);
  Shuffle(&documents, Mix(args.seed, 1));

  std::unique_ptr<QueryService> service;
  std::unique_ptr<Database> db;
  std::vector<GeneratedQuery> queries;
  std::vector<std::vector<QueryAnswer>> oracle;
  bool inject = args.inject_wrong_answer;

  // One request of the stream; `log` is non-null in the traced window.
  auto one = [&](size_t i, SpanLog* log) -> Outcome {
    const GeneratedQuery& query = queries[i];
    QueryRequest request;
    request.query_text = query.text;
    request.exec = SchemaOptions(query);
    request.bypass_cache = true;
    const double start = NowUs();
    QueryResponse response = service->Submit(std::move(request)).get();
    Outcome outcome;
    outcome.latency_us = NowUs() - start;
    outcome.ok = response.status.ok() && !response.truncated &&
                 !response.degraded;
    if (!outcome.ok) return outcome;
    if (inject) {
      CorruptAnswers(&response.answers);
      inject = false;
    }
    if (std::string diff = DiffAnswers(response.answers, oracle[i]);
        !diff.empty()) {
      report->Mismatch("topk_schema query " + std::to_string(i) + ": " + diff);
    }
    if (log == nullptr) return outcome;

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
    auto parsed = log->Time("query.parse", r,
                            [&] { return approxql::query::Parse(query.text); });
    APPROXQL_CHECK(parsed.ok()) << parsed.status();
    auto expanded = log->Time("query.expand", r, [&] {
      return approxql::query::ExpandedQuery::Build(*parsed, query.cost_model);
    });
    APPROXQL_CHECK(expanded.ok()) << expanded.status();
    SchemaEvalStats stats;
    approxql::engine::ExecOptions exec = SchemaOptions(query);
    exec.schema_stats_out = &stats;
    auto answers =
        log->Time("engine.schema", r, [&] { return db->Execute(*parsed, exec); });
    APPROXQL_CHECK(answers.ok()) << answers.status();
    log->Count("rounds", static_cast<double>(stats.rounds));
    log->Count("final_k", static_cast<double>(stats.final_k));
    log->Count("second_level", static_cast<double>(stats.second_level_executed));
    log->Count("instances", static_cast<double>(stats.instances_scanned));
    log->Count("entries", static_cast<double>(stats.entries_created));
    log->Count("k_capped", stats.k_capped ? 1 : 0);
    log->Count("answers", static_cast<double>(answers->size()));
    outcome.excluded_us = NowUs() - shadow_start;
    return outcome;
  };

  size_t warmup_attempted = 0;
  size_t warmup_failed = 0;
  const double setup_s = MedianSetup(kSetups, [&](size_t rep) {
    service.reset();
    db.reset();
    const double start = NowUs();
    auto built = Database::BuildFromXml(documents);
    APPROXQL_CHECK(built.ok()) << built.status();
    db = std::make_unique<Database>(std::move(built).value());
    service = std::make_unique<QueryService>(
        *db, ServiceOptions{.num_threads = 1,
                            .queue_capacity = 16,
                            .cache_capacity = 0});
    double excluded = 0;
    if (rep == 0) {
      // Inputs and the oracle are the benchmark's own work, not set-up.
      const double oracle_start = NowUs();
      queries = MakeQueries(*db, kRenamings, kQueriesPerCell);
      for (const GeneratedQuery& query : queries) {
        auto answers = db->Execute(query.query, SchemaOptions(query));
        APPROXQL_CHECK(answers.ok()) << answers.status();
        oracle.push_back(std::move(answers).value());
      }
      excluded = NowUs() - oracle_start;
    }
    // Warm-up pass through the stream (checked, not timed as a window).
    const bool keep_inject = inject;
    inject = false;
    for (size_t i = 0; i < queries.size(); ++i) {
      ++warmup_attempted;
      if (!one(i, nullptr).ok) ++warmup_failed;
    }
    inject = keep_inject;
    return (NowUs() - start - excluded) / 1e6;
  });
  report->Attempt(warmup_attempted, warmup_failed);
  report->Detail("documents", static_cast<double>(documents.size()));
  report->Detail("queries", static_cast<double>(queries.size()));
  report->Detail("oracle_empty_answer_lists",
                 static_cast<double>(std::count_if(
                     oracle.begin(), oracle.end(),
                     [](const auto& answers) { return answers.empty(); })));
  report->Samples("setup_s", kSetups);

  if (!args.trace) {
    StreamStats stream = RunPasses(queries.size(), args.seconds,
                                   [&](size_t i) { return one(i, nullptr); });
    ReportStream(stream, setup_s, report);
    return 0;
  }

  StreamStats untraced = RunPasses(queries.size(), args.seconds / 4,
                                   [&](size_t i) { return one(i, nullptr); });
  SpanLog log;
  StreamStats traced = RunPasses(queries.size(), args.seconds / 4,
                                 [&](size_t i) { return one(i, &log); });
  report->Attempt(untraced.attempted + traced.attempted,
                  untraced.failed + traced.failed);

  LayerMetrics& m = *layers;
  const double queue = log.MeanPerRequest("service.queue");
  const double overhead = log.MeanPerRequest("service.overhead");
  const double parse = log.MeanPerRequest("query.parse");
  const double expand = log.MeanPerRequest("query.expand");
  const double schema_self =
      std::max(0.0, log.MeanPerRequest("engine.schema") - expand);
  m["service.queue_us"] = queue;
  m["service.overhead_us"] = overhead;
  m["service.exec_self_us"] =
      std::max(0.0, log.MeanPerRequest("service.exec") - parse -
                        log.MeanPerRequest("engine.schema"));
  m["query.parse_us"] = parse;
  m["query.expand_us"] = expand;
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
  m["trace.query_p99_us"] = Percentile(traced.latency_us, 0.99);
  m["trace.coverage"] = (queue + overhead + parse + expand + schema_self) /
                        log.MeanPerRequest("stream");
  m["trace.overhead"] = untraced.qps() > 0 ? traced.qps() / untraced.qps() : 0;
  report->Samples("traced_requests", log.Counter("requests").size());
  report->Detail("setup_s", setup_s);
  return 0;
}

}  // namespace perfbench
