// Wire-level serving benchmark: an in-process net::Server over a
// synthetic collection, driven by 1/8/64 concurrent closed-loop client
// connections (one net::Client each). Reports throughput and wire
// latency percentiles per level — the delta against bench_parallel's
// in-process numbers is the cost of the network layer itself (framing,
// CRC, epoll, syscalls). Results land on stdout and in BENCH_net.json
// for EXPERIMENTS.md.
//
// Scale with APPROXQL_BENCH_ELEMENTS (default 60000) and
// APPROXQL_BENCH_QUERIES (default 24); APPROXQL_BENCH_ROUNDS (default
// 3) replays of the workload per connection. Connecting and one warm-up
// call per connection stay outside the timed window.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/fig7_common.h"
#include "bench/bench_env.h"
#include "engine/database.h"
#include "gen/query_generator.h"
#include "gen/xml_generator.h"
#include "net/client.h"
#include "net/server.h"
#include "service/query_service.h"
#include "util/histogram.h"
#include "util/timer.h"

namespace approxql::bench {
namespace {

using engine::Database;
using net::Client;
using net::ClientOptions;
using net::Server;
using net::ServerOptions;
using net::WireRequest;
using service::QueryService;
using service::ServiceOptions;

struct Sample {
  size_t connections = 0;
  size_t requests = 0;
  size_t errors = 0;
  double qps = 0;
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  uint64_t max_us = 0;
};

int Run() {
  util::SetLogLevel(util::LogLevel::kError);
  gen::XmlGenOptions gen_options;
  gen_options.seed = 20020314;
  gen_options.total_elements = EnvSize("APPROXQL_BENCH_ELEMENTS", 60000);
  gen_options.vocabulary =
      std::max<size_t>(gen_options.total_elements / 10, 100);

  util::WallTimer build_timer;
  gen::XmlGenerator generator(gen_options);
  auto tree = generator.GenerateTree(cost::CostModel());
  APPROXQL_CHECK(tree.ok()) << tree.status();
  auto built =
      Database::FromDataTree(std::move(tree).value(), cost::CostModel());
  APPROXQL_CHECK(built.ok()) << built.status();
  Database db = std::move(built).value();
  auto stats = db.GetStats();
  std::printf("collection: %zu elements, %zu labels (built in %.1fs)\n",
              stats.struct_nodes, stats.distinct_labels,
              build_timer.ElapsedSeconds());

  const size_t kQueries = EnvSize("APPROXQL_BENCH_QUERIES", 24);
  const size_t kRounds = EnvSize("APPROXQL_BENCH_ROUNDS", 3);
  gen::QueryGenOptions q_options;
  q_options.seed = 42;
  gen::QueryGenerator qgen(db, q_options);
  constexpr std::string_view kPatterns[] = {gen::kPattern1, gen::kPattern2,
                                            gen::kPattern3};
  std::vector<std::string> queries;
  for (size_t i = 0; i < kQueries; ++i) {
    auto generated = qgen.Generate(kPatterns[i % 3]);
    APPROXQL_CHECK(generated.ok()) << generated.status();
    queries.push_back(std::move(generated->text));
  }

  ServiceOptions service_options;
  service_options.num_threads = 8;
  service_options.queue_capacity = 1024;
  service_options.cache_capacity = 0;  // measure evaluation + wire, not cache
  QueryService service(db, service_options);
  Server server(service, db, ServerOptions{});
  auto started = server.Start();
  APPROXQL_CHECK(started.ok()) << started;

  // Every connection replays the workload kRounds times. Connecting
  // (and each Client's IO thread start) and one warm-up call happen
  // before the timed window opens, so the window holds only requests.
  const size_t calls_per_connection = queries.size() * kRounds;
  const size_t kLevels[] = {1, 8, 64};
  std::vector<Sample> samples;
  std::printf("%-12s %10s %10s %10s %10s %10s %7s\n", "connections", "qps",
              "p50-us", "p90-us", "p99-us", "max-us", "errors");
  for (size_t level : kLevels) {
    const size_t total = level * calls_per_connection;
    std::atomic<size_t> ready{0};
    std::atomic<bool> go{false};
    std::atomic<size_t> errors{0};
    std::vector<util::Histogram> latencies(level);
    std::vector<std::thread> threads;
    threads.reserve(level);
    for (size_t c = 0; c < level; ++c) {
      threads.emplace_back([&, c] {
        ClientOptions client_options;
        client_options.port = server.port();
        Client client(client_options);
        WireRequest request;
        request.n = 10;
        request.query = queries[c % queries.size()];
        if (!client.Connect().ok() || !client.Call(request).ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
        ready.fetch_add(1, std::memory_order_release);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (size_t i = 0; i < calls_per_connection; ++i) {
          request.query = queries[(c + i) % queries.size()];
          util::WallTimer timer;
          auto response = client.Call(request);
          latencies[c].Record(
              static_cast<uint64_t>(timer.ElapsedSeconds() * 1e6));
          if (!response.ok()) {
            errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    while (ready.load(std::memory_order_acquire) < level) {
      std::this_thread::yield();
    }
    util::WallTimer sweep_timer;
    go.store(true, std::memory_order_release);
    for (std::thread& thread : threads) thread.join();
    const double seconds = sweep_timer.ElapsedSeconds();

    Sample sample;
    sample.connections = level;
    sample.requests = total;
    sample.errors = errors.load();
    sample.qps = seconds > 0 ? static_cast<double>(total) / seconds : 0;
    util::Histogram merged;
    for (const util::Histogram& h : latencies) merged.Merge(h);
    sample.p50_us = merged.Quantile(0.50);
    sample.p90_us = merged.Quantile(0.90);
    sample.p99_us = merged.Quantile(0.99);
    sample.max_us = merged.max();
    samples.push_back(sample);
    std::printf("%-12zu %10.1f %10.0f %10.0f %10.0f %10llu %7zu\n", level,
                sample.qps, sample.p50_us, sample.p90_us, sample.p99_us,
                static_cast<unsigned long long>(sample.max_us),
                sample.errors);
  }

  std::FILE* out = std::fopen("BENCH_net.json", "w");
  APPROXQL_CHECK(out != nullptr) << "cannot write BENCH_net.json";
  std::fprintf(out,
               "{\n  \"benchmark\": \"wire_serving\",\n"
               "  \"config\": {\"elements\": %zu, \"queries\": %zu, "
               "\"shards\": 1, %s},\n"
               "  \"elements\": %zu,\n  \"queries\": %zu,\n"
               "  \"rounds\": %zu,\n  \"levels\": [\n",
               gen_options.total_elements, queries.size(),
               bench::BenchEnvJson().c_str(),
               gen_options.total_elements, queries.size(), kRounds);
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(out,
                 "    {\"connections\": %zu, \"requests\": %zu, "
                 "\"qps\": %.2f, \"p50_us\": %.0f, \"p90_us\": %.0f, "
                 "\"p99_us\": %.0f, \"max_us\": %llu, \"errors\": %zu}%s\n",
                 s.connections, s.requests, s.qps, s.p50_us, s.p90_us,
                 s.p99_us, static_cast<unsigned long long>(s.max_us),
                 s.errors, i + 1 == samples.size() ? "" : ",");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_net.json\n");

  server.Shutdown(/*drain=*/true);
  size_t total_errors = 0;
  for (const Sample& s : samples) total_errors += s.errors;
  return total_errors == 0 ? 0 : 1;
}

}  // namespace
}  // namespace approxql::bench

int main() { return approxql::bench::Run(); }
