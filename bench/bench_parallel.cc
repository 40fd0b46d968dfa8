// Inter-query scaling: the same or-heavy workload (eight disjuncts per
// query once separated) submitted through QueryService::Submit to a
// pool of 1, 2 and 4 workers, each request one serial evaluation. Cores
// go to concurrent requests, so qps should grow with the worker count up
// to the host's cores. Results land on stdout and in
// BENCH_parallel.json for EXPERIMENTS.md.
//
// Scale with APPROXQL_BENCH_ELEMENTS (default 100000) and
// APPROXQL_BENCH_QUERIES (default 24). Each level submits the queries
// three times in one burst and keeps the best of three bursts.
//
// Every answer list is checked against a serial ExecuteNow baseline.
// The scaling VERDICT — pass/fail on "4 workers reach 1.5x the 1-worker
// qps" — is only issued when the host has >= 4 cores; on smaller hosts
// it is SKIPPED. A FAIL verdict is the process exit code, so CI can run
// this binary directly as the multi-core scaling smoke.
#include <algorithm>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_env.h"
#include "bench/fig7_common.h"
#include "engine/database.h"
#include "gen/query_generator.h"
#include "gen/xml_generator.h"
#include "service/query_service.h"
#include "util/timer.h"

namespace approxql::bench {
namespace {

using engine::Database;
using service::QueryRequest;
using service::QueryResponse;
using service::QueryService;
using service::ServiceOptions;

constexpr std::string_view kOrHeavyPattern =
    "name[(name[term] or term) and (term or term) and (name[term] or term)]";
constexpr size_t kRounds = 3;  // submissions of each query per burst
constexpr size_t kBursts = 3;  // best of
constexpr double kMinScaling = 1.5;

struct Sample {
  size_t workers = 0;
  /// Cores this level can actually use: min(host cpus, workers).
  size_t effective_cores = 0;
  double qps = 0;  // best burst
  double p50_exec_ms = 0;
  double p99_exec_ms = 0;
  double scaling = 0;  // qps relative to 1 worker
};

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t index = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  return sorted[std::min(index, sorted.size() - 1)];
}

std::string Canonical(const QueryResponse& response) {
  std::string out;
  for (const engine::QueryAnswer& answer : response.answers) {
    out += std::to_string(answer.root) + ":" + std::to_string(answer.cost) +
           ";";
  }
  return out;
}

QueryRequest MakeRequest(const gen::GeneratedQuery& generated) {
  QueryRequest request;
  request.query_text = generated.text;
  request.exec.n = 10;
  request.exec.cost_model = &generated.cost_model;
  request.bypass_cache = true;
  return request;
}

int Run() {
  util::SetLogLevel(util::LogLevel::kError);
  gen::XmlGenOptions gen_options;
  gen_options.seed = 20020314;
  gen_options.total_elements = EnvSize("APPROXQL_BENCH_ELEMENTS", 100000);
  gen_options.element_names = 100;
  gen_options.vocabulary =
      std::max<size_t>(gen_options.total_elements / 10, 100);
  gen_options.words_per_element = 10.0;
  gen_options.zipf_theta = 1.0;
  gen_options.template_nodes = 150;

  util::WallTimer build_timer;
  gen::XmlGenerator generator(gen_options);
  auto tree = generator.GenerateTree(cost::CostModel());
  APPROXQL_CHECK(tree.ok()) << tree.status();
  auto built =
      Database::FromDataTree(std::move(tree).value(), cost::CostModel());
  APPROXQL_CHECK(built.ok()) << built.status();
  Database db = std::move(built).value();
  auto stats = db.GetStats();
  std::printf(
      "collection: %zu elements, %zu words, %zu labels (built in %.1fs)\n",
      stats.struct_nodes, stats.text_nodes, stats.distinct_labels,
      build_timer.ElapsedSeconds());

  const size_t kQueries = EnvSize("APPROXQL_BENCH_QUERIES", 24);
  gen::QueryGenOptions q_options;
  q_options.seed = 42;
  q_options.renamings_per_label = 3;
  gen::QueryGenerator qgen(db, q_options);
  std::vector<gen::GeneratedQuery> queries;
  for (size_t i = 0; i < kQueries; ++i) {
    auto generated = qgen.Generate(kOrHeavyPattern);
    APPROXQL_CHECK(generated.ok()) << generated.status();
    queries.push_back(std::move(generated).value());
  }

  // The oracle, and a warm-up that primes index pages outside the
  // measurement.
  std::vector<std::string> expected;
  {
    QueryService serial(db, ServiceOptions{.num_threads = 1,
                                           .cache_capacity = 0});
    for (const auto& generated : queries) {
      QueryResponse response = serial.ExecuteNow(MakeRequest(generated));
      APPROXQL_CHECK(response.status.ok()) << response.status;
      expected.push_back(Canonical(response));
    }
  }

  const size_t cpus = std::max<size_t>(1, std::thread::hardware_concurrency());
  const size_t kLevels[] = {1, 2, 4};
  const size_t burst = queries.size() * kRounds;
  std::vector<Sample> samples;
  std::printf("host: %zu cpu%s; %zu submits per burst, best of %zu\n", cpus,
              cpus == 1 ? "" : "s", burst, kBursts);
  std::printf("%-8s %6s %10s %12s %12s %9s\n", "workers", "cores", "qps",
              "p50-exec-ms", "p99-exec-ms", "scaling");
  for (size_t workers : kLevels) {
    QueryService service(db, ServiceOptions{.num_threads = workers,
                                            .queue_capacity = burst,
                                            .cache_capacity = 0});
    Sample sample;
    sample.workers = workers;
    sample.effective_cores = std::min(cpus, workers);
    std::vector<double> exec_ms;
    for (size_t b = 0; b < kBursts; ++b) {
      std::vector<std::future<QueryResponse>> futures;
      futures.reserve(burst);
      util::WallTimer timer;
      for (size_t round = 0; round < kRounds; ++round) {
        for (const auto& generated : queries) {
          futures.push_back(service.Submit(MakeRequest(generated)));
        }
      }
      for (size_t i = 0; i < futures.size(); ++i) {
        QueryResponse response = futures[i].get();
        APPROXQL_CHECK(response.status.ok()) << response.status;
        const size_t q = i % queries.size();
        APPROXQL_CHECK(Canonical(response) == expected[q])
            << "answers differ from serial for " << queries[q].text;
        exec_ms.push_back(static_cast<double>(response.exec_micros) / 1000.0);
      }
      sample.qps = std::max(
          sample.qps, static_cast<double>(burst) / timer.ElapsedSeconds());
    }
    std::sort(exec_ms.begin(), exec_ms.end());
    sample.p50_exec_ms = Percentile(exec_ms, 0.50);
    sample.p99_exec_ms = Percentile(exec_ms, 0.99);
    sample.scaling = samples.empty() ? 1.0 : sample.qps / samples.front().qps;
    samples.push_back(sample);
    std::printf("%-8zu %6zu %10.1f %12.3f %12.3f %8.2fx\n", workers,
                sample.effective_cores, sample.qps, sample.p50_exec_ms,
                sample.p99_exec_ms, sample.scaling);
  }

  // Only a host with >= 4 cores can testify about 4 workers.
  const Sample& four = samples.back();
  const char* verdict = "skipped";
  if (cpus >= four.workers) {
    verdict = four.scaling >= kMinScaling ? "pass" : "fail";
    std::printf("scaling verdict: %s (%.2fx qps at 4 workers on %zu cores, "
                "need %.1fx)\n",
                verdict, four.scaling, cpus, kMinScaling);
  } else {
    std::printf("scaling verdict: skipped (%zu core%s < 4 workers)\n", cpus,
                cpus == 1 ? "" : "s");
  }

  std::FILE* out = std::fopen("BENCH_parallel.json", "w");
  APPROXQL_CHECK(out != nullptr) << "cannot write BENCH_parallel.json";
  std::fprintf(out,
               "{\n  \"benchmark\": \"parallel_inter_query\",\n"
               "  \"config\": {\"elements\": %zu, \"queries\": %zu, "
               "\"submits_per_burst\": %zu, \"bursts\": %zu, %s},\n"
               "  \"levels\": [\n",
               gen_options.total_elements, queries.size(), burst, kBursts,
               bench::BenchEnvJson().c_str());
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(out,
                 "    {\"workers\": %zu, \"effective_cores\": %zu, "
                 "\"qps\": %.2f, \"p50_exec_ms\": %.4f, \"p99_exec_ms\": %.4f, "
                 "\"scaling\": %.3f}%s\n",
                 s.workers, s.effective_cores, s.qps, s.p50_exec_ms,
                 s.p99_exec_ms, s.scaling, i + 1 == samples.size() ? "" : ",");
  }
  std::fprintf(out, "  ],\n  \"scaling_verdict\": \"%s\"\n}\n", verdict);
  std::fclose(out);
  std::printf("wrote BENCH_parallel.json\n");
  return verdict == std::string("fail") ? 1 : 0;
}

}  // namespace
}  // namespace approxql::bench

int main() { return approxql::bench::Run(); }
