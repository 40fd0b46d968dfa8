// Sharding sweep: partitions the bench collection into 1/2/4/8 shards
// and measures single-stream scatter-gather schema top-k latency
// (shards evaluated one after another) with and without the shared
// cost bound. Results land on stdout and in BENCH_shard.json for
// EXPERIMENTS.md.
//
// Scale with APPROXQL_BENCH_ELEMENTS (default 60000) and
// APPROXQL_BENCH_QUERIES (default 16).
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/fig7_common.h"
#include "engine/database.h"
#include "gen/query_generator.h"
#include "bench/bench_env.h"
#include "shard/sharded_database.h"
#include "util/timer.h"

namespace approxql::bench {
namespace {

using engine::Database;
using engine::ExecOptions;
using shard::ScatterOptions;
using shard::ShardedDatabase;

// Two renamable labels and a nested term: enough approximation to make
// the schema strategy iterate.
constexpr std::string_view kPattern = "name[name[term] and term]";

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

int Run() {
  util::SetLogLevel(util::LogLevel::kError);
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

  const size_t kLevels[] = {1, 2, 4, 8};
  std::vector<SchemaSample> schema_samples;
  std::printf("%-7s %10s %10s %10s %12s\n", "shards", "topk-ms", "p50-ms",
              "p99-ms", "nobound-ms");
  for (size_t level : kLevels) {
    auto partitioned =
        ShardedDatabase::Partition(db.tree(), db.cost_model(), level);
    APPROXQL_CHECK(partitioned.ok()) << partitioned.status();
    ShardedDatabase sharded = std::move(partitioned).value();

    // Single-stream scatter-gather schema top-k, shared bound on/off.
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

    std::printf("%-7zu %10.3f %10.3f %10.3f %12.3f\n", level, ss.mean_ms,
                ss.p50_ms, ss.p99_ms, ss.mean_ms_no_bound);
  }

  std::FILE* out = std::fopen("BENCH_shard.json", "w");
  APPROXQL_CHECK(out != nullptr) << "cannot write BENCH_shard.json";
  std::fprintf(out,
               "{\n  \"benchmark\": \"shard_scatter_gather\",\n"
               "  \"config\": {\"elements\": %zu, \"queries\": %zu, "
               "\"rounds\": %d, %s},\n"
               "  \"levels\": [\n",
               stats.struct_nodes, queries.size(), kRounds,
               bench::BenchEnvJson().c_str());
  for (size_t i = 0; i < schema_samples.size(); ++i) {
    const SchemaSample& ss = schema_samples[i];
    std::fprintf(
        out,
        "    {\"shards\": %zu, \"schema\": {\"mean_ms\": %.4f, "
        "\"p50_ms\": %.4f, \"p99_ms\": %.4f, \"mean_ms_no_bound\": %.4f, "
        "\"answers_per_pass\": %zu}}%s\n",
        kLevels[i], ss.mean_ms, ss.p50_ms, ss.p99_ms, ss.mean_ms_no_bound,
        ss.answers, i + 1 == schema_samples.size() ? "" : ",");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_shard.json\n");
  return 0;
}

}  // namespace
}  // namespace approxql::bench

int main() { return approxql::bench::Run(); }
