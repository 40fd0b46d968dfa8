// Sharding sweep: partitions the bench collection into 1/2/4/8 shards
// and measures (a) stored-postings lock contention under concurrent
// direct-strategy clients, against a single-shared-store baseline, and
// (b) single-stream scatter-gather schema top-k latency (shards
// evaluated one after another) with and without the shared cost bound.
// Results land on stdout and in BENCH_shard.json for EXPERIMENTS.md.
//
// With one shared StoredLabelIndex every concurrent fetch serializes on
// one mutex; with per-shard stores the same workload spreads across N
// disjoint mutexes. Full queries spend most of their time in the list
// algebra *outside* the store mutex, so phase (a)'s lock counters stay
// small for both layouts.
//
// Scale with APPROXQL_BENCH_ELEMENTS (default 60000),
// APPROXQL_BENCH_QUERIES (default 16), APPROXQL_BENCH_CLIENTS
// (default 4).
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/fig7_common.h"
#include "engine/database.h"
#include "gen/query_generator.h"
#include "bench/bench_env.h"
#include "index/stored_label_index.h"
#include "shard/sharded_database.h"
#include "storage/mem_kv_store.h"
#include "util/timer.h"

namespace approxql::bench {
namespace {

using engine::Database;
using engine::ExecOptions;
using shard::ScatterOptions;
using shard::ShardedDatabase;

// Two renamable labels and a nested term: enough approximation to make
// the schema strategy iterate and the direct strategy fetch several
// postings per query.
constexpr std::string_view kPattern = "name[name[term] and term]";

struct LockStats {
  uint64_t waits_total = 0;
  uint64_t wait_us_total = 0;
  uint64_t waits_max_shard = 0;
};

struct DirectSample {
  double total_seconds = 0;
  double qps = 0;
  LockStats locks;
};

struct SchemaSample {
  double mean_ms = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double mean_ms_no_bound = 0;
  size_t answers = 0;
};

double Percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0;
  size_t index = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  return sorted[std::min(index, sorted.size() - 1)];
}

/// `clients` threads each run every query `rounds` times through `run`.
template <typename Fn>
double RunClients(size_t clients, const Fn& run) {
  util::WallTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&run, c] { run(c); });
  }
  for (auto& t : threads) t.join();
  return timer.ElapsedSeconds();
}

int Run() {
  util::SetLogLevel(util::LogLevel::kError);
  const size_t kClients = EnvSize("APPROXQL_BENCH_CLIENTS", 4);
  const size_t kQueries = EnvSize("APPROXQL_BENCH_QUERIES", 16);
  const int kRounds = 3;

  util::WallTimer build_timer;
  Database db = BuildBenchCollection();
  auto stats = db.GetStats();
  std::printf(
      "collection: %zu elements, %zu words, %zu labels (built in %.1fs)\n",
      stats.struct_nodes, stats.text_nodes, stats.distinct_labels,
      build_timer.ElapsedSeconds());

  gen::QueryGenOptions q_options;
  q_options.seed = 271828;
  q_options.renamings_per_label = 3;
  gen::QueryGenerator qgen(db, q_options);
  std::vector<gen::GeneratedQuery> queries;
  for (size_t i = 0; i < kQueries; ++i) {
    auto generated = qgen.Generate(kPattern);
    APPROXQL_CHECK(generated.ok()) << generated.status();
    queries.push_back(std::move(generated).value());
  }

  // --- Baseline: every client fetches through ONE shared stored index.
  DirectSample baseline;
  {
    storage::MemKvStore store;
    APPROXQL_CHECK(db.label_index().PersistTo(&store, "ix#").ok());
    index::StoredLabelIndex shared(&store, "ix#");
    baseline.total_seconds = RunClients(kClients, [&](size_t) {
      for (int round = 0; round < kRounds; ++round) {
        for (const auto& generated : queries) {
          ExecOptions exec;
          exec.strategy = engine::Strategy::kDirect;
          exec.n = 10;
          exec.cost_model = &generated.cost_model;
          exec.posting_source = &shared;
          APPROXQL_CHECK(db.Execute(generated.query, exec).ok());
        }
      }
    });
    baseline.qps =
        static_cast<double>(kClients * kRounds * queries.size()) /
        baseline.total_seconds;
    baseline.locks.waits_total = shared.lock_waits();
    baseline.locks.wait_us_total = shared.lock_wait_us();
    baseline.locks.waits_max_shard = shared.lock_waits();
  }
  std::printf(
      "baseline (single shared store, %zu clients): %.1f qps, "
      "%llu lock waits, %llu us waiting\n",
      kClients, baseline.qps,
      static_cast<unsigned long long>(baseline.locks.waits_total),
      static_cast<unsigned long long>(baseline.locks.wait_us_total));

  const size_t kLevels[] = {1, 2, 4, 8};
  std::vector<DirectSample> direct_samples;
  std::vector<SchemaSample> schema_samples;
  std::printf("%-7s %10s %12s %12s %10s %10s %12s\n", "shards", "dir-qps",
              "lock-waits", "wait-us", "topk-ms", "p99-ms", "nobound-ms");
  for (size_t level : kLevels) {
    auto partitioned =
        ShardedDatabase::Partition(db.tree(), db.cost_model(), level);
    APPROXQL_CHECK(partitioned.ok()) << partitioned.status();
    ShardedDatabase sharded = std::move(partitioned).value();

    // (a) Concurrent direct-strategy clients; each client's scatter runs
    // on its own thread, so every lock wait is cross-client contention.
    DirectSample ds;
    ds.total_seconds = RunClients(kClients, [&](size_t) {
      for (int round = 0; round < kRounds; ++round) {
        for (const auto& generated : queries) {
          ExecOptions exec;
          exec.strategy = engine::Strategy::kDirect;
          exec.n = 10;
          exec.cost_model = &generated.cost_model;
          ScatterOptions scatter;
          APPROXQL_CHECK(sharded.Execute(generated.query, exec, scatter).ok());
        }
      }
    });
    ds.qps = static_cast<double>(kClients * kRounds * queries.size()) /
             ds.total_seconds;
    for (size_t s = 0; s < sharded.num_shards(); ++s) {
      uint64_t waits = sharded.shard_postings(s).lock_waits();
      ds.locks.waits_total += waits;
      ds.locks.wait_us_total += sharded.shard_postings(s).lock_wait_us();
      ds.locks.waits_max_shard = std::max(ds.locks.waits_max_shard, waits);
    }
    direct_samples.push_back(ds);

    // (b) Single-stream scatter-gather schema top-k, shared bound on/off.
    SchemaSample ss;
    for (bool bound : {true, false}) {
      std::vector<double> latencies_ms;
      for (int round = 0; round < kRounds; ++round) {
        for (const auto& generated : queries) {
          ExecOptions exec;
          exec.strategy = engine::Strategy::kSchema;
          exec.n = 10;
          exec.cost_model = &generated.cost_model;
          ScatterOptions scatter;
          scatter.share_cost_bound = bound;
          util::WallTimer timer;
          auto answers = sharded.Execute(generated.query, exec, scatter);
          latencies_ms.push_back(timer.ElapsedSeconds() * 1000.0);
          APPROXQL_CHECK(answers.ok()) << answers.status();
          if (bound && round == 0) ss.answers += answers->size();
        }
      }
      double total = 0;
      for (double ms : latencies_ms) total += ms;
      double mean = total / static_cast<double>(latencies_ms.size());
      if (bound) {
        ss.mean_ms = mean;
        std::sort(latencies_ms.begin(), latencies_ms.end());
        ss.p50_ms = Percentile(latencies_ms, 0.50);
        ss.p99_ms = Percentile(latencies_ms, 0.99);
      } else {
        ss.mean_ms_no_bound = mean;
      }
    }
    schema_samples.push_back(ss);

    std::printf("%-7zu %10.1f %12llu %12llu %10.3f %10.3f %12.3f\n", level,
                ds.qps, static_cast<unsigned long long>(ds.locks.waits_total),
                static_cast<unsigned long long>(ds.locks.wait_us_total),
                ss.mean_ms, ss.p99_ms, ss.mean_ms_no_bound);
  }

  std::FILE* out = std::fopen("BENCH_shard.json", "w");
  APPROXQL_CHECK(out != nullptr) << "cannot write BENCH_shard.json";
  std::fprintf(out,
               "{\n  \"benchmark\": \"shard_scatter_gather\",\n"
               "  \"config\": {\"clients\": %zu, \"elements\": %zu, "
               "\"queries\": %zu, \"rounds\": %d, %s},\n",
               kClients, stats.struct_nodes, queries.size(), kRounds,
               bench::BenchEnvJson().c_str());
  std::fprintf(out,
               "  \"single_store_baseline\": {\"qps\": %.2f, "
               "\"lock_waits\": %llu, \"lock_wait_us\": %llu},\n"
               "  \"levels\": [\n",
               baseline.qps,
               static_cast<unsigned long long>(baseline.locks.waits_total),
               static_cast<unsigned long long>(baseline.locks.wait_us_total));
  for (size_t i = 0; i < direct_samples.size(); ++i) {
    const DirectSample& ds = direct_samples[i];
    const SchemaSample& ss = schema_samples[i];
    std::fprintf(
        out,
        "    {\"shards\": %zu, \"direct\": {\"qps\": %.2f, "
        "\"lock_waits_total\": %llu, \"lock_waits_max_shard\": %llu, "
        "\"lock_wait_us_total\": %llu}, \"schema\": {\"mean_ms\": %.4f, "
        "\"p50_ms\": %.4f, \"p99_ms\": %.4f, \"mean_ms_no_bound\": %.4f, "
        "\"answers_per_pass\": %zu}}%s\n",
        kLevels[i], ds.qps,
        static_cast<unsigned long long>(ds.locks.waits_total),
        static_cast<unsigned long long>(ds.locks.waits_max_shard),
        static_cast<unsigned long long>(ds.locks.wait_us_total), ss.mean_ms,
        ss.p50_ms, ss.p99_ms, ss.mean_ms_no_bound, ss.answers,
        i + 1 == direct_samples.size() ? "" : ",");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_shard.json\n");
  return 0;
}

}  // namespace
}  // namespace approxql::bench

int main() { return approxql::bench::Run(); }
