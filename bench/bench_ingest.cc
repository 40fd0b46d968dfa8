// Live-ingest throughput and its cost to readers: ingests synthetic
// documents into a MutableCorpus at 1 and 4 shards, measuring (a)
// sustained AddDocument docs/sec (each add is WAL-synced and published
// as a fresh generation before it acks — the honest durable rate) from
// one writer and from four concurrent writers, and (b) query p50/p99
// against concurrently-ingesting vs frozen corpora (the copy-on-write
// generation scheme promises readers pay nothing beyond
// snapshot-pointer chasing while writes land). Results land on stdout
// and in BENCH_ingest.json for EXPERIMENTS.md.
//
// Scale with APPROXQL_BENCH_INGEST_DOCS (default 300) and
// APPROXQL_BENCH_QUERIES (default 200 timed queries per mode).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_env.h"
#include "bench/fig7_common.h"
#include "cost/cost_model.h"
#include "ingest/mutable_corpus.h"
#include "shard/sharded_database.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/timer.h"

namespace approxql::bench {
namespace {

constexpr size_t kElementNames = 50;
constexpr size_t kVocabulary = 1000;

cost::CostModel IngestModel() {
  cost::CostModel model;
  util::Rng rng(20020314);
  for (size_t i = 0; i < kElementNames; ++i) {
    model.SetDeleteCost(NodeType::kStruct, "elem" + std::to_string(i),
                        static_cast<cost::Cost>(rng.UniformInt(2, 10)));
  }
  for (size_t i = 0; i < kVocabulary; ++i) {
    model.SetDeleteCost(NodeType::kText, "term" + std::to_string(i),
                        static_cast<cost::Cost>(rng.UniformInt(2, 10)));
  }
  return model;
}

std::string MakeDoc(util::Rng& rng) {
  std::string xml;
  size_t budget = static_cast<size_t>(rng.UniformInt(8, 40));
  std::function<void(size_t)> emit = [&](size_t depth) {
    const std::string label = "elem" + std::to_string(rng.UniformInt(
                                           0, kElementNames - 1));
    xml += "<" + label + ">";
    while (budget > 0 && depth < 4 && rng.UniformInt(0, 2) != 0) {
      --budget;
      if (rng.UniformInt(0, 1) == 0) {
        xml += "term" + std::to_string(rng.UniformInt(0, kVocabulary - 1)) +
               " ";
      } else {
        emit(depth + 1);
      }
    }
    xml += "</" + label + ">";
  };
  emit(0);
  return xml;
}

const char* const kQueries[] = {
    R"(elem1[elem3 and "term2"])",
    R"(elem7["term11" and "term42"])",
    R"(elem4[elem9["term5"]])",
    R"(elem2["term100"])",
};

struct LatencySample {
  double p50_ms = 0;
  double p99_ms = 0;
  double mean_ms = 0;
  size_t queries = 0;
  /// Documents that landed while the timed queries ran (0 = frozen).
  size_t docs_during = 0;
};

LatencySample Summarize(std::vector<double> latencies_ms) {
  LatencySample sample;
  sample.queries = latencies_ms.size();
  if (latencies_ms.empty()) return sample;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  double total = 0;
  for (double v : latencies_ms) total += v;
  sample.mean_ms = total / static_cast<double>(latencies_ms.size());
  sample.p50_ms = latencies_ms[latencies_ms.size() / 2];
  sample.p99_ms = latencies_ms[(latencies_ms.size() * 99) / 100];
  return sample;
}

struct Level {
  size_t shards = 0;
  double ingest_docs_per_sec = 0;
  double ingest_mean_ms = 0;
  /// Same durable-add workload driven by kWriters concurrent threads.
  /// The adds run one at a time on the serial ingest path, so this
  /// measures what concurrent callers cost it, not a speedup.
  double concurrent_docs_per_sec = 0;
  size_t docs = 0;
  LatencySample frozen;
  LatencySample live;
};

constexpr size_t kWriters = 4;

/// Runs `count` timed queries round-robin over kQueries.
LatencySample TimedQueries(const ingest::MutableCorpus& corpus,
                           size_t count) {
  std::vector<double> latencies;
  latencies.reserve(count);
  engine::ExecOptions exec;
  exec.n = 10;
  for (size_t i = 0; i < count; ++i) {
    auto snap = corpus.snapshot();
    util::WallTimer timer;
    auto answers = snap->Execute(kQueries[i % std::size(kQueries)], exec,
                                 shard::ScatterOptions{});
    APPROXQL_CHECK(answers.ok()) << answers.status();
    latencies.push_back(timer.ElapsedSeconds() * 1000.0);
  }
  return Summarize(latencies);
}

Level RunLevel(const std::string& dir, size_t shards, size_t docs,
               size_t timed_queries) {
  Level level;
  level.shards = shards;
  level.docs = docs;
  std::filesystem::remove_all(dir);

  ingest::MutableCorpus::Options options;
  options.data_dir = dir;
  options.num_shards = shards;
  options.model = IngestModel();
  auto corpus = ingest::MutableCorpus::Open(std::move(options));
  APPROXQL_CHECK(corpus.ok()) << corpus.status();

  // (a) Durable ingest rate, empty corpus upward.
  util::Rng rng(0xbe0c * (shards + 1));
  util::WallTimer ingest_timer;
  for (size_t i = 0; i < docs; ++i) {
    auto result = (*corpus)->AddDocument(MakeDoc(rng));
    APPROXQL_CHECK(result.ok()) << result.status();
  }
  const double ingest_seconds = ingest_timer.ElapsedSeconds();
  level.ingest_docs_per_sec = static_cast<double>(docs) / ingest_seconds;
  level.ingest_mean_ms = ingest_seconds * 1000.0 / static_cast<double>(docs);

  // (a2) The same durable adds from kWriters concurrent threads.
  {
    util::WallTimer concurrent_timer;
    std::vector<std::thread> writers;
    for (size_t w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        util::Rng writer_rng(0x60 + 0x9e37 * (shards * kWriters + w));
        for (size_t i = 0; i < docs / kWriters; ++i) {
          auto result = (*corpus)->AddDocument(MakeDoc(writer_rng));
          APPROXQL_CHECK(result.ok()) << result.status();
        }
      });
    }
    for (auto& writer : writers) writer.join();
    const size_t concurrent_docs = (docs / kWriters) * kWriters;
    level.concurrent_docs_per_sec = static_cast<double>(concurrent_docs) /
                                    concurrent_timer.ElapsedSeconds();
  }

  // (b) Reader latency, frozen corpus.
  level.frozen = TimedQueries(**corpus, timed_queries);

  // (c) Reader latency with a writer continuously landing documents.
  std::atomic<bool> stop{false};
  std::atomic<size_t> landed{0};
  std::thread writer([&] {
    util::Rng writer_rng(0xf00d * (shards + 1));
    while (!stop.load(std::memory_order_relaxed)) {
      auto result = (*corpus)->AddDocument(MakeDoc(writer_rng));
      APPROXQL_CHECK(result.ok()) << result.status();
      landed.fetch_add(1, std::memory_order_relaxed);
    }
  });
  level.live = TimedQueries(**corpus, timed_queries);
  stop.store(true);
  writer.join();
  level.live.docs_during = landed.load();

  (*corpus).reset();  // shutdown checkpoint needs the directory intact
  std::filesystem::remove_all(dir);
  return level;
}

int Run() {
  util::SetLogLevel(util::LogLevel::kError);
  const size_t kDocs = EnvSize("APPROXQL_BENCH_INGEST_DOCS", 300);
  const size_t kTimedQueries = EnvSize("APPROXQL_BENCH_QUERIES", 200);
  const std::string base =
      (std::filesystem::temp_directory_path() /
       ("approxql_bench_ingest_" + std::to_string(::getpid())))
          .string();

  std::vector<Level> levels;
  for (size_t shards : {size_t{1}, size_t{4}}) {
    Level level = RunLevel(base + "_" + std::to_string(shards), shards,
                           kDocs, kTimedQueries);
    std::printf(
        "shards=%zu: ingest %.1f docs/s (%.2f ms/doc durable), %zu "
        "concurrent writers %.1f docs/s, query p50 %.3f ms p99 %.3f ms "
        "frozen | p50 %.3f ms p99 %.3f ms live (%zu docs landed during)\n",
        level.shards, level.ingest_docs_per_sec, level.ingest_mean_ms,
        kWriters, level.concurrent_docs_per_sec,
        level.frozen.p50_ms, level.frozen.p99_ms, level.live.p50_ms,
        level.live.p99_ms, level.live.docs_during);
    levels.push_back(level);
  }

  std::FILE* out = std::fopen("BENCH_ingest.json", "w");
  APPROXQL_CHECK(out != nullptr) << "cannot write BENCH_ingest.json";
  std::fprintf(out,
               "{\n  \"benchmark\": \"live_ingest\",\n"
               "  \"config\": {\"docs\": %zu, \"timed_queries\": %zu, "
               "%s},\n  \"levels\": [\n",
               kDocs, kTimedQueries, BenchEnvJson().c_str());
  for (size_t i = 0; i < levels.size(); ++i) {
    const Level& level = levels[i];
    std::fprintf(
        out,
        "    {\"shards\": %zu, "
        "\"ingest\": {\"docs_per_sec\": %.2f, \"mean_ms\": %.4f}, "
        "\"ingest_concurrent\": {\"writers\": %zu, "
        "\"docs_per_sec\": %.2f}, "
        "\"query_frozen\": {\"p50_ms\": %.4f, \"p99_ms\": %.4f, "
        "\"mean_ms\": %.4f}, "
        "\"query_live\": {\"p50_ms\": %.4f, \"p99_ms\": %.4f, "
        "\"mean_ms\": %.4f, \"docs_during\": %zu}}%s\n",
        level.shards, level.ingest_docs_per_sec, level.ingest_mean_ms,
        kWriters, level.concurrent_docs_per_sec, level.frozen.p50_ms,
        level.frozen.p99_ms, level.frozen.mean_ms,
        level.live.p50_ms, level.live.p99_ms, level.live.mean_ms,
        level.live.docs_during, i + 1 == levels.size() ? "" : ",");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_ingest.json\n");
  return 0;
}

}  // namespace
}  // namespace approxql::bench

int main() { return approxql::bench::Run(); }
