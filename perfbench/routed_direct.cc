// routed_direct: the user-facing distributed read path. One closed-loop
// net::Client connection calls a router-fronting net::Server, whose
// QueryService hands each query to a dist::ShardRouter; the router
// scatters it over 2 in-process shard net::Servers on loopback (one
// worker each) and merges the answers. Direct strategy, best 10,
// build-time cost model that makes every label deletable (the wire
// carries no per-query costs), cache bypassed. Schema rounds never run.
#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "dist/remote_shard.h"
#include "dist/shard_router.h"
#include "engine/database.h"
#include "engine/list_ops.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "service/query_service.h"
#include "shard/sharded_database.h"
#include "util/logging.h"
#include "workload.h"

namespace perfbench {
namespace {

using approxql::dist::RemoteShardBackend;
using approxql::dist::RemoteShardOptions;
using approxql::dist::RouterOptions;
using approxql::dist::ShardRouter;
using approxql::engine::Database;
using approxql::engine::QueryAnswer;
using approxql::engine::Strategy;
using approxql::net::WireRequest;
using approxql::net::WireResponse;
using approxql::net::WireShardAnswer;
using approxql::net::WireShardQuery;
using approxql::service::QueryService;
using approxql::service::ServiceOptions;
using approxql::shard::ShardedDatabase;

constexpr size_t kElements = 62500;
constexpr size_t kElementsPerDocument = 100;
// Every shard worker is busy at once during a scatter. With 4 shards
// the scatter needed all 4 CPUs of the reference host: one competing
// busy thread cut qps by 26%, and whole runs halved when other tenants
// of the host took CPU time. With 2 shards two competing busy threads
// left qps unchanged.
constexpr size_t kShards = 2;
constexpr size_t kQueriesPerCell = 40;
constexpr size_t kSetups = 3;

ServiceOptions OneWorker() {
  return ServiceOptions{.num_threads = 1,
                        .queue_capacity = 64,
                        .cache_capacity = 0};
}

/// Everything one set-up starts; members are declared in start order so
/// destruction stops the client first and the shard servers last.
struct Cluster {
  std::unique_ptr<ShardedDatabase> sharded;
  std::vector<std::unique_ptr<QueryService>> shard_services;
  std::vector<std::unique_ptr<approxql::net::Server>> shard_servers;
  std::unique_ptr<ShardRouter> router;
  std::unique_ptr<QueryService> front_service;
  std::unique_ptr<approxql::net::Server> front_server;
  std::unique_ptr<approxql::net::Client> client;
  /// Traced runs only: one extra transport per shard, so per-shard round
  /// trips are timed through the same public call the router makes.
  std::vector<std::unique_ptr<RemoteShardBackend>> probes;

  ~Cluster() {
    client.reset();
    if (front_server) front_server->Shutdown(/*drain=*/false);
    for (auto& probe : probes) probe->Shutdown();
    if (router) router->Shutdown();
    for (auto& server : shard_servers) server->Shutdown(/*drain=*/false);
  }
};

std::unique_ptr<Cluster> StartCluster(const std::vector<std::string>& documents,
                                      bool with_probes) {
  auto cluster = std::make_unique<Cluster>();
  auto built = ShardedDatabase::BuildFromXml(
      documents, DeletableModel(kElements), kShards);
  APPROXQL_CHECK(built.ok()) << built.status();
  cluster->sharded = std::make_unique<ShardedDatabase>(std::move(built).value());
  const ShardedDatabase& sharded = *cluster->sharded;

  RouterOptions router_options;
  // Health is driven by query outcomes alone: no probe traffic in the
  // timed window.
  router_options.health_period_ms = 0;
  for (size_t i = 0; i < kShards; ++i) {
    cluster->shard_services.push_back(
        std::make_unique<QueryService>(sharded.shard(i), OneWorker()));
    approxql::net::ServerOptions options;
    options.shard.enabled = true;
    options.shard.fingerprint = sharded.LayoutFingerprint();
    options.shard.shard_index = static_cast<uint32_t>(i);
    cluster->shard_servers.push_back(std::make_unique<approxql::net::Server>(
        *cluster->shard_services.back(), sharded.shard(i), options));
    auto started = cluster->shard_servers.back()->Start();
    APPROXQL_CHECK(started.ok()) << started;
    router_options.shards.push_back(
        {"127.0.0.1", cluster->shard_servers.back()->port()});
  }
  cluster->router = std::make_unique<ShardRouter>(sharded, router_options);
  auto started = cluster->router->Start();
  APPROXQL_CHECK(started.ok()) << started;
  cluster->front_service =
      std::make_unique<QueryService>(*cluster->router, OneWorker());
  cluster->front_server = std::make_unique<approxql::net::Server>(
      *cluster->front_service, cluster->router->manifest(),
      approxql::net::ServerOptions{});
  started = cluster->front_server->Start();
  APPROXQL_CHECK(started.ok()) << started;
  approxql::net::ClientOptions client_options;
  client_options.port = cluster->front_server->port();
  cluster->client = std::make_unique<approxql::net::Client>(client_options);
  started = cluster->client->Connect();
  APPROXQL_CHECK(started.ok()) << started;

  if (with_probes) {
    for (size_t i = 0; i < kShards; ++i) {
      RemoteShardOptions options;
      options.port = router_options.shards[i].port;
      options.expected_fingerprint = sharded.LayoutFingerprint();
      cluster->probes.push_back(std::make_unique<RemoteShardBackend>(
          static_cast<uint32_t>(i), options));
      started = cluster->probes.back()->Start();
      APPROXQL_CHECK(started.ok()) << started;
    }
  }
  return cluster;
}

WireRequest MakeRequest(const std::string& text) {
  WireRequest request;
  request.query = text;
  request.strategy = Strategy::kDirect;
  request.n = 10;
  request.bypass_cache = true;
  return request;
}

/// The shard answers of one scatter issued through the probe transports,
/// all shards concurrently like the router does; `rtt_us[i]` is shard
/// i's round trip.
struct ProbeScatter {
  std::vector<double> rtt_us;
  std::vector<WireShardAnswer> answers;
  bool ok = true;
};

ProbeScatter ScatterProbes(Cluster& cluster, const WireShardQuery& query) {
  ProbeScatter out;
  out.rtt_us.assign(kShards, 0);
  out.answers.resize(kShards);
  std::mutex mu;
  std::condition_variable cv;
  size_t left = kShards;
  const double start = NowUs();
  for (size_t i = 0; i < kShards; ++i) {
    cluster.probes[i]->CallShardQuery(
        query, /*deadline_ms=*/0,
        [&, i](approxql::util::Result<WireShardAnswer> answer) {
          const double end = NowUs();
          std::lock_guard<std::mutex> lock(mu);
          out.rtt_us[i] = end - start;
          if (answer.ok() && answer->status_code == 0) {
            out.answers[i] = std::move(answer).value();
          } else {
            out.ok = false;
          }
          if (--left == 0) cv.notify_one();
        });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return left == 0; });
  return out;
}

}  // namespace

int RunRoutedDirect(const Args& args, Report* report, LayerMetrics* layers) {
  std::vector<std::string> documents =
      MakeDocuments(kElements, kElementsPerDocument);
  Shuffle(&documents, Mix(args.seed, 1));

  // Oracle: the direct strategy on one unsharded database (routed
  // answers are bit-identical to it by the partition-equivalence
  // contract). The database is dropped once the answers are computed,
  // so only the cluster under test is resident when peak RSS is read.
  std::vector<std::string> queries;
  std::vector<std::vector<QueryAnswer>> oracle;
  {
    auto single = Database::BuildFromXml(documents, DeletableModel(kElements));
    APPROXQL_CHECK(single.ok()) << single.status();
    for (const auto& query : MakeQueries(*single, {0}, kQueriesPerCell)) {
      approxql::engine::ExecOptions exec;
      exec.strategy = Strategy::kDirect;
      exec.n = 10;
      auto answers = single->Execute(query.text, exec);
      APPROXQL_CHECK(answers.ok()) << answers.status();
      queries.push_back(query.text);
      oracle.push_back(std::move(answers).value());
    }
  }

  std::unique_ptr<Cluster> cluster;
  bool inject = args.inject_wrong_answer;
  SpanLog log;

  auto shadow = [&](size_t i, const WireRequest& request,
                    const WireResponse& response, double latency_us) {
    Cluster& c = *cluster;
    const ShardedDatabase& sharded = *c.sharded;
    const uint32_t r = static_cast<uint32_t>(log.Counter("requests").size());
    log.Count("requests", 1);
    log.Add("stream", r, latency_us);

    const double router_start = NowUs();
    auto routed = c.router->Execute(queries[i], Strategy::kDirect, 10, 0);
    const double router_us = NowUs() - router_start;
    report->Attempt(1, 0);
    if (!routed.ok() || routed->degraded) {
      report->Attempt(0, 1);
      return;
    }
    if (std::string diff = DiffAnswers(routed->answers, oracle[i]);
        !diff.empty()) {
      report->Mismatch("routed_direct router call " + std::to_string(i) +
                       ": " + diff);
    }
    log.Add("dist.router_exec", r, router_us);
    log.Count("retries", routed->retries);

    WireShardQuery shard_query;
    shard_query.query = queries[i];
    shard_query.strategy = Strategy::kDirect;
    shard_query.n = 10;
    ProbeScatter scatter = ScatterProbes(c, shard_query);
    if (!scatter.ok) {
      report->Attempt(1, 1);
      return;
    }
    const size_t crit = static_cast<size_t>(
        std::max_element(scatter.rtt_us.begin(), scatter.rtt_us.end()) -
        scatter.rtt_us.begin());
    for (double rtt : scatter.rtt_us) log.Count("rtt", rtt);
    log.Count("rtt_max", scatter.rtt_us[crit]);
    log.Count("straggler",
              scatter.rtt_us[crit] / std::max(1.0, Median(scatter.rtt_us)));

    auto parsed = approxql::query::Parse(queries[i]);
    APPROXQL_CHECK(parsed.ok()) << parsed.status();
    double eval_crit = 0;
    approxql::engine::EvalStats total;
    double decoded = 0;
    for (size_t s = 0; s < kShards; ++s) {
      approxql::engine::EvalStats stats;
      approxql::engine::ExecOptions exec;
      exec.strategy = Strategy::kDirect;
      exec.n = 10;
      exec.posting_source = &sharded.shard_postings(s);
      exec.direct_stats_out = &stats;
      const size_t cached_before = sharded.shard_postings(s).CachedCount();
      const double start = NowUs();
      auto answers = sharded.shard(s).Execute(*parsed, exec);
      const double eval_us = NowUs() - start;
      APPROXQL_CHECK(answers.ok()) << answers.status();
      decoded += static_cast<double>(sharded.shard_postings(s).CachedCount() -
                                     cached_before);
      if (s == crit) eval_crit = eval_us;
      total.fetches += stats.fetches;
      total.entries_fetched += stats.entries_fetched;
      total.list_ops += stats.list_ops;
      total.and_short_circuits += stats.and_short_circuits;
      total.cache_hits += stats.cache_hits;
      total.cache_misses += stats.cache_misses;
    }
    log.Add("engine.direct", r, eval_crit);
    log.Add("dist.hop", r, std::max(0.0, scatter.rtt_us[crit] - eval_crit));
    log.Count("decoded", decoded);
    log.Count("fetches", static_cast<double>(total.fetches));
    log.Count("entries_fetched", static_cast<double>(total.entries_fetched));
    log.Count("list_ops", static_cast<double>(total.list_ops));
    log.Count("short_circuits", static_cast<double>(total.and_short_circuits));
    log.Count("dp_hits", static_cast<double>(total.cache_hits));
    log.Count("dp_lookups",
              static_cast<double>(total.cache_hits + total.cache_misses));

    std::vector<std::vector<approxql::engine::RootCost>> lists(kShards);
    for (size_t s = 0; s < kShards; ++s) {
      for (const auto& answer : scatter.answers[s].answers) {
        lists[s].push_back({sharded.ToGlobal(s, answer.root), answer.cost});
      }
    }
    auto merged = log.Time("shard.merge", r, [&] {
      return approxql::engine::MergeTopN(lists, 10);
    });
    std::vector<QueryAnswer> merged_answers;
    for (const auto& rc : merged) merged_answers.push_back({rc.root, rc.cost});
    report->Attempt(1, 0);
    if (std::string diff = DiffAnswers(merged_answers, oracle[i]);
        !diff.empty()) {
      report->Mismatch("routed_direct probe merge " + std::to_string(i) + ": " +
                       diff);
    }

    log.Time("net.codec", r, [&] {
      WireRequest request_copy;
      WireResponse response_copy;
      WireShardQuery shard_query_copy;
      WireShardAnswer shard_answer_copy;
      auto s1 = approxql::net::DecodeQueryRequest(
          approxql::net::EncodeQueryRequest(request), &request_copy);
      auto s2 = approxql::net::DecodeShardQuery(
          approxql::net::EncodeShardQuery(shard_query), &shard_query_copy);
      auto s3 = approxql::net::DecodeShardAnswer(
          approxql::net::EncodeShardAnswer(scatter.answers[crit]),
          &shard_answer_copy);
      auto s4 = approxql::net::DecodeQueryResponse(
          approxql::net::EncodeQueryResponse(response), &response_copy);
      APPROXQL_CHECK(s1.ok() && s2.ok() && s3.ok() && s4.ok());
    });

    // The critical shard's service and the router-fronting service,
    // called directly: admission wait, hand-off around the evaluation,
    // and the service's own work inside exec_micros (parse, cache key)
    // beyond the engine or router call it wraps.
    auto submit = [&](QueryService& service, double* submit_us) {
      approxql::service::QueryRequest request;
      request.query_text = queries[i];
      request.exec.strategy = Strategy::kDirect;
      request.exec.n = 10;
      request.bypass_cache = true;
      const double start = NowUs();
      auto response = service.Submit(std::move(request)).get();
      *submit_us = NowUs() - start;
      APPROXQL_CHECK(response.status.ok()) << response.status;
      return response;
    };
    double shard_submit_us = 0;
    double front_submit_us = 0;
    auto shard_response = submit(*c.shard_services[crit], &shard_submit_us);
    auto front_response = submit(*c.front_service, &front_submit_us);
    const double shard_exec = static_cast<double>(shard_response.exec_micros);
    const double front_exec = static_cast<double>(front_response.exec_micros);
    log.Add("service.queue", r, static_cast<double>(shard_response.queue_micros));
    log.Add("service.overhead", r,
            std::max(0.0, shard_submit_us - shard_exec -
                              static_cast<double>(shard_response.queue_micros)));
    log.Add("service.exec_self", r,
            std::max(0.0, shard_exec - eval_crit) +
                std::max(0.0, front_exec - router_us));
  };

  auto one = [&](size_t i, bool traced) -> Outcome {
    const WireRequest request = MakeRequest(queries[i]);
    const double start = NowUs();
    auto response = cluster->client->Call(request);
    Outcome outcome;
    outcome.latency_us = NowUs() - start;
    outcome.ok = response.ok() && !response->truncated && !response->degraded;
    if (!outcome.ok) return outcome;
    std::vector<QueryAnswer> answers;
    answers.reserve(response->answers.size());
    for (const auto& answer : response->answers) {
      answers.push_back({answer.root, answer.cost});
    }
    if (inject) {
      CorruptAnswers(&answers);
      inject = false;
    }
    if (std::string diff = DiffAnswers(answers, oracle[i]); !diff.empty()) {
      report->Mismatch("routed_direct query " + std::to_string(i) + ": " +
                       diff);
    }
    if (traced) {
      const double shadow_start = NowUs();
      shadow(i, request, *response, outcome.latency_us);
      outcome.excluded_us = NowUs() - shadow_start;
    }
    return outcome;
  };

  size_t warmup_attempted = 0;
  size_t warmup_failed = 0;
  const double setup_s = MedianSetup(kSetups, [&](size_t) {
    cluster.reset();
    const double start = NowUs();
    cluster = StartCluster(documents, args.trace);
    const bool keep_inject = inject;
    inject = false;
    for (size_t i = 0; i < queries.size(); ++i) {
      ++warmup_attempted;
      if (!one(i, false).ok) ++warmup_failed;
    }
    inject = keep_inject;
    return (NowUs() - start) / 1e6;
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
                                   [&](size_t i) { return one(i, false); });
    cluster.reset();
    ReportStream(stream, setup_s, report);
    return 0;
  }

  // Warm the probe path's posting caches once, outside any window, so the
  // per-query decode count shows the steady (warm) state.
  for (size_t i = 0; i < queries.size(); ++i) {
    auto parsed = approxql::query::Parse(queries[i]);
    APPROXQL_CHECK(parsed.ok());
    for (size_t s = 0; s < kShards; ++s) {
      approxql::engine::ExecOptions exec;
      exec.strategy = Strategy::kDirect;
      exec.posting_source = &cluster->sharded->shard_postings(s);
      APPROXQL_CHECK(cluster->sharded->shard(s).Execute(*parsed, exec).ok());
    }
  }
  StreamStats untraced = RunPasses(queries.size(), args.seconds / 4,
                                   [&](size_t i) { return one(i, false); });
  StreamStats traced = RunPasses(queries.size(), args.seconds / 4,
                                 [&](size_t i) { return one(i, true); });
  cluster.reset();
  report->Attempt(untraced.attempted + traced.attempted,
                  untraced.failed + traced.failed);

  LayerMetrics& m = *layers;
  const double stream = log.MeanPerRequest("stream");
  const double router_exec = log.MeanPerRequest("dist.router_exec");
  const double merge = log.MeanPerRequest("shard.merge");
  const double eval = log.MeanPerRequest("engine.direct");
  const double hop = log.MeanPerRequest("dist.hop");
  const double rtt_max = log.CounterMean("rtt_max");
  const double front = std::max(0.0, stream - router_exec);
  const double router_self = std::max(0.0, router_exec - rtt_max - merge);
  m["service.queue_us"] = log.MeanPerRequest("service.queue");
  m["service.overhead_us"] = log.MeanPerRequest("service.overhead");
  m["service.exec_self_us"] = log.MeanPerRequest("service.exec_self");
  m["engine.direct_eval_us"] = eval;
  m["engine.direct.fetches"] = log.CounterMean("fetches");
  m["engine.direct.entries_fetched"] = log.CounterMean("entries_fetched");
  m["engine.direct.list_ops"] = log.CounterMean("list_ops");
  m["engine.direct.and_short_circuits"] = log.CounterMean("short_circuits");
  const double lookups = log.CounterSum("dp_lookups");
  m["engine.direct.dp_hit_ratio"] =
      lookups > 0 ? log.CounterSum("dp_hits") / lookups : 0;
  m["dist.router_exec_us"] = router_exec;
  m["dist.shard_rtt_p50_us"] = Median(log.Counter("rtt"));
  m["dist.shard_rtt_max_us"] = rtt_max;
  m["dist.hop_overhead_us"] = hop;
  m["dist.straggler_ratio"] = log.CounterMean("straggler");
  m["dist.retries"] = log.CounterMean("retries");
  m["net.codec_us"] = log.MeanPerRequest("net.codec");
  m["net.front_overhead_us"] = front;
  m["shard.merge_us"] = merge;
  m["index.postings_decoded_per_query"] = log.CounterMean("decoded");
  m["trace.query_p99_us"] = Percentile(traced.latency_us, 0.99);
  // Critical path: front hop, router work outside the slowest shard's
  // round trip, that round trip's wire/service part, its evaluation,
  // and the merge.
  m["trace.coverage"] = (front + router_self + hop + eval + merge) / stream;
  m["trace.overhead"] = untraced.qps() > 0 ? traced.qps() / untraced.qps() : 0;
  report->Samples("traced_requests", log.Counter("requests").size());
  report->Detail("setup_s", setup_s);
  return 0;
}

}  // namespace perfbench
