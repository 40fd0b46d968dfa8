// Serving front end and load driver for the query service — three
// modes sharing one database/workload setup:
//
//   in-process replay (default): loads a database, replays a workload
//   file across N synchronous client threads against the in-process
//   QueryService, prints per-pass throughput/latency and metrics.
//
//   --listen PORT: serves the loaded database over TCP (net::Server,
//   binary wire protocol). SIGTERM/SIGINT trigger a graceful drain:
//   stop accepting, finish in-flight requests, flush, exit with the
//   metrics dump.
//
//   --connect HOST:PORT: the same closed-loop replay, but each client
//   thread drives its own net::Client connection — a wire-level load
//   generator. With --verify (and a locally built copy of the same
//   database) every wire answer list is compared against the in-process
//   path; --bench-json FILE records the per-pass report as JSON.
//
//   approxql_serve --xml catalog.xml --workload queries.txt
//                  [--clients 8] [--threads 8] [--queue 128]
//                  [--cache 256] [--passes 2] [--repeat 1]
//                  [--n 10] [--strategy schema|direct|scan]
//                  [--deadline-ms 0]
//   approxql_serve --load db.apx --workload queries.txt
//   approxql_serve --gen-data 20000 --gen 250 --repeat 4   # self-contained:
//     synthetic collection + workload drawn from the paper's query patterns
//   approxql_serve --gen-data 20000 --gen 250 --dump-workload q.txt
//                  --listen 7007                           # terminal 1
//   approxql_serve --connect 127.0.0.1:7007 --workload q.txt
//                  --clients 8                             # terminal 2
//
// Each client thread is a synchronous caller: it submits one request,
// waits for the answer, then takes the next query (so concurrency ==
// --clients). With the default --passes 2 the second pass replays the
// identical workload against a warm result cache — the per-pass report
// makes the cold/warm speedup visible directly.
#include <csignal>
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/cluster_config.h"
#include "dist/shard_router.h"
#include "engine/database.h"
#include "gen/query_generator.h"
#include "gen/xml_generator.h"
#include "ingest/mutable_corpus.h"
#include "net/client.h"
#include "net/server.h"
#include "service/query_service.h"
#include "service/workload.h"
#include "shard/layout_manifest.h"
#include "shard/sharded_database.h"
#include "storage/kv_factory.h"
#include "util/histogram.h"
#include "util/mutex.h"
#include "util/random.h"
#include "util/timer.h"

#include "bench/bench_env.h"

using approxql::dist::RouterOptions;
using approxql::dist::ShardRouter;
using approxql::engine::Database;
using approxql::shard::ShardedDatabase;
using approxql::engine::Strategy;
using approxql::net::Client;
using approxql::net::ClientOptions;
using approxql::net::Server;
using approxql::net::ServerOptions;
using approxql::net::WireRequest;
using approxql::net::WireResponse;
using approxql::service::QueryRequest;
using approxql::service::QueryResponse;
using approxql::service::QueryService;
using approxql::service::ServiceOptions;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: approxql_serve (--xml FILE)... --workload FILE [options]\n"
      "       approxql_serve --load DB --workload FILE [options]\n"
      "       approxql_serve --gen-data ELEMS --gen QUERIES [options]\n"
      "       approxql_serve ... --listen PORT        serve over TCP\n"
      "       approxql_serve --connect HOST:PORT --workload FILE [options]\n"
      "  --clients N      concurrent client threads (default 8)\n"
      "  --threads N      service worker threads (default 8)\n"
      "  --queue N        admission queue capacity (default 128)\n"
      "  --cache N        result-cache entries, 0 = off (default 256)\n"
      "  --passes N       workload replays; pass 2+ hits a warm cache "
      "(default 2)\n"
      "  --repeat N       repetitions of the workload per pass (default 1)\n"
      "  --n N            best-n bound per query (default 10)\n"
      "  --strategy S     schema|direct|scan (default schema)\n"
      "  --deadline-ms N  per-request deadline, 0 = none (default 0)\n"
      "  --shards N       partition the corpus into N shards and serve\n"
      "                   with scatter-gather, 1 = single database "
      "(default 1)\n"
      "  --shard-server I serve only shard I of the --shards N partition\n"
      "                   over --listen PORT (answers kShardQuery/kPing)\n"
      "  --router H:P,... scatter-gather across remote shard servers, one\n"
      "                   endpoint per shard in index order; combine with\n"
      "                   --listen to front the cluster, or replay the\n"
      "                   workload through the router in process\n"
      "  --strict         (--router) any unreachable shard fails the query\n"
      "                   instead of degrading the answer\n"
      "  --save-manifest F  write the partition's layout manifest (spans,\n"
      "                   fingerprint, cost model — no trees or postings)\n"
      "                   to F after building the sharded corpus\n"
      "  --manifest F     (--router) load the layout from a manifest file\n"
      "                   instead of building the corpus; the router host\n"
      "                   then needs no --xml/--load/--gen-data at all\n"
      "  --expect-degraded  (--connect) exit 1 unless at least one response\n"
      "                   came back degraded (cluster smoke tests)\n"
      "  --bypass-cache   (--connect) ask the server to skip its result\n"
      "                   cache, forcing every request to the backend\n"
      "  --gen-data N     build a synthetic collection of ~N elements\n"
      "  --gen N          generate an N-query workload from the paper's\n"
      "                   patterns instead of --workload\n"
      "  --seed N         generator seed (default 42)\n"
      "  --listen PORT    serve the database on PORT until SIGTERM "
      "(graceful drain)\n"
      "  --connect H:P    replay over the wire against a running server\n"
      "  --dump-workload F  write the generated workload to F (one query "
      "per line)\n"
      "  --verify         (--connect) check wire answers against the\n"
      "                   in-process path; needs the same db flags as the "
      "server\n"
      "  --bench-json F   (--connect) append the per-pass wire report to F\n"
      "  --store S        mem|disk posting stores (default mem); disk needs\n"
      "                   --data-dir for the backing files\n"
      "  --data-dir D     directory for disk stores / the mutable corpus\n"
      "  --mutable        (--listen) serve a live-ingest corpus from\n"
      "                   --data-dir (recovering it if it exists): answers\n"
      "                   kIngest, acks only after WAL fsync + visibility;\n"
      "                   with --shard-server I --shards N the corpus is one\n"
      "                   cluster shard (single internal shard, cluster\n"
      "                   fingerprint from --seed/--shards, serves manifest\n"
      "                   slices + delta subscriptions)\n"
      "  --live           (--router) the endpoints are mutable cluster shard\n"
      "                   servers: the router syncs epoch-tagged manifest\n"
      "                   slices instead of loading a static layout, and\n"
      "                   Ingest assigns cluster-global document ids\n"
      "  --ingest-while-querying N  (--router --live, in process) driver:\n"
      "                   ingest N docs through the router while querying it\n"
      "                   concurrently; --verify checks quiesced rounds\n"
      "                   bit-for-bit against a BuildFromXml(acked) oracle\n"
      "                   (the driver must be the only writer, starting\n"
      "                   from an empty cluster)\n"
      "  --ingest N       (--connect) ingest driver: add N generated docs\n"
      "                   over the wire, interleaving workload queries if\n"
      "                   one was given; tolerates the server dying mid-\n"
      "                   stream (crash harness)\n"
      "  --acked-file F   (--ingest) write every acked document's XML to F\n"
      "                   (one per line) and any in-doubt document to\n"
      "                   F.indoubt — the durably-acked oracle inputs\n"
      "  --oracle-docs F  build the database from the XML lines of F (an\n"
      "                   --acked-file) instead of --xml/--load/--gen-data;\n"
      "                   with --verify this is the crash-recovery oracle\n");
  return 2;
}

struct PassResult {
  size_t requests = 0;
  size_t completed = 0;
  size_t rejected = 0;
  size_t truncated = 0;
  size_t failed = 0;
  size_t cache_hits = 0;
  size_t degraded = 0;
  size_t transport_errors = 0;
  size_t mismatches = 0;
  double wall_seconds = 0;
  approxql::util::Histogram latency_us;
};

PassResult RunPass(QueryService& service,
                   const std::vector<std::string>& workload, size_t clients,
                   size_t repeat, const approxql::engine::ExecOptions& exec,
                   int deadline_ms) {
  const size_t total = workload.size() * repeat;
  std::atomic<size_t> next{0};
  std::vector<approxql::util::Histogram> latencies(clients);
  std::vector<PassResult> partials(clients);
  approxql::util::WallTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      PassResult& mine = partials[c];
      for (;;) {
        size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= total) break;
        QueryRequest request;
        request.query_text = workload[i % workload.size()];
        request.exec = exec;
        request.deadline = std::chrono::milliseconds(deadline_ms);
        QueryResponse response = service.Submit(std::move(request)).get();
        ++mine.requests;
        latencies[c].Record(
            static_cast<uint64_t>(response.total_micros));
        if (response.status.ok()) {
          ++mine.completed;
          if (response.truncated) ++mine.truncated;
          if (response.cache_hit) ++mine.cache_hits;
          if (response.degraded) ++mine.degraded;
        } else if (response.status.IsResourceExhausted()) {
          ++mine.rejected;
        } else {
          ++mine.failed;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  PassResult result;
  result.wall_seconds = timer.ElapsedSeconds();
  for (size_t c = 0; c < clients; ++c) {
    result.requests += partials[c].requests;
    result.completed += partials[c].completed;
    result.rejected += partials[c].rejected;
    result.truncated += partials[c].truncated;
    result.failed += partials[c].failed;
    result.cache_hits += partials[c].cache_hits;
    result.degraded += partials[c].degraded;
    result.latency_us.Merge(latencies[c]);
  }
  return result;
}

/// The wire flavor of RunPass: same closed loop, but each client thread
/// owns one TCP connection. `oracle` (optional) re-executes every query
/// in process and counts answer-list mismatches.
PassResult RunWirePass(const std::string& host, uint16_t port,
                       const std::vector<std::string>& workload,
                       size_t clients, size_t repeat,
                       const approxql::engine::ExecOptions& exec,
                       int deadline_ms, bool bypass_cache,
                       QueryService* oracle) {
  const size_t total = workload.size() * repeat;
  std::atomic<size_t> next{0};
  std::vector<approxql::util::Histogram> latencies(clients);
  std::vector<PassResult> partials(clients);
  approxql::util::WallTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      PassResult& mine = partials[c];
      ClientOptions client_options;
      client_options.host = host;
      client_options.port = port;
      Client client(client_options);
      for (;;) {
        size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= total) break;
        WireRequest request;
        request.query = workload[i % workload.size()];
        request.strategy = exec.strategy;
        request.n = exec.n;
        request.deadline_ms = deadline_ms;
        request.bypass_cache = bypass_cache;
        approxql::util::WallTimer call_timer;
        auto response = client.Call(request);
        latencies[c].Record(
            static_cast<uint64_t>(call_timer.ElapsedSeconds() * 1e6));
        ++mine.requests;
        if (response.ok()) {
          ++mine.completed;
          if (response->truncated) ++mine.truncated;
          if (response->cache_hit) ++mine.cache_hits;
          if (response->degraded) ++mine.degraded;
          // A degraded answer deliberately covers only the shards that
          // responded; comparing it against the full in-process result
          // would count the cluster's honesty as a mismatch.
          if (oracle != nullptr && !response->degraded) {
            QueryRequest check;
            check.query_text = request.query;
            check.exec = exec;
            QueryResponse expected = oracle->ExecuteNow(std::move(check));
            bool match = expected.status.ok() &&
                         expected.answers.size() == response->answers.size();
            if (match) {
              for (size_t k = 0; k < expected.answers.size(); ++k) {
                if (expected.answers[k].root != response->answers[k].root ||
                    expected.answers[k].cost != response->answers[k].cost) {
                  match = false;
                  break;
                }
              }
            }
            if (!match) ++mine.mismatches;
          }
        } else if (response.status().IsResourceExhausted()) {
          ++mine.rejected;
        } else if (response.status().IsDeadlineExceeded()) {
          ++mine.failed;
        } else if (response.status().code() ==
                       approxql::util::StatusCode::kIoError ||
                   response.status().IsUnavailable() ||
                   response.status().IsCorruption()) {
          ++mine.transport_errors;
        } else {
          ++mine.failed;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  PassResult result;
  result.wall_seconds = timer.ElapsedSeconds();
  for (size_t c = 0; c < clients; ++c) {
    result.requests += partials[c].requests;
    result.completed += partials[c].completed;
    result.rejected += partials[c].rejected;
    result.truncated += partials[c].truncated;
    result.failed += partials[c].failed;
    result.cache_hits += partials[c].cache_hits;
    result.degraded += partials[c].degraded;
    result.transport_errors += partials[c].transport_errors;
    result.mismatches += partials[c].mismatches;
    result.latency_us.Merge(latencies[c]);
  }
  return result;
}

void PrintPass(size_t pass, const PassResult& r, bool wire) {
  std::printf(
      "pass %zu: %zu requests in %.3f s  (%.0f q/s)\n"
      "  completed %zu  cache-hit %zu  truncated %zu  rejected %zu  "
      "failed %zu\n",
      pass, r.requests, r.wall_seconds,
      r.wall_seconds > 0 ? static_cast<double>(r.requests) / r.wall_seconds
                         : 0.0,
      r.completed, r.cache_hits, r.truncated, r.rejected, r.failed);
  if (wire) {
    std::printf("  degraded %zu  transport-errors %zu  verify-mismatches %zu\n",
                r.degraded, r.transport_errors, r.mismatches);
  } else if (r.degraded > 0) {
    std::printf("  degraded %zu\n", r.degraded);
  }
  std::printf("  latency %s\n", r.latency_us.Summary("us").c_str());
}

// The label space shared by the ingest driver's generated documents,
// the mutable server's cost model, and the crash-recovery oracle. All
// three derive the same model from --seed alone, so a verify client
// needs nothing from the server but the acked documents.
constexpr size_t kIngestElementNames = 50;
constexpr size_t kIngestVocabulary = 1000;

approxql::cost::CostModel IngestCostModel(size_t seed) {
  approxql::cost::CostModel model;
  approxql::util::Rng cost_rng(seed ^ 0x9E3779B97F4A7C15ULL);
  for (size_t i = 0; i < kIngestElementNames; ++i) {
    model.SetDeleteCost(
        approxql::NodeType::kStruct, "elem" + std::to_string(i),
        static_cast<approxql::cost::Cost>(cost_rng.UniformInt(2, 10)));
  }
  for (size_t i = 0; i < kIngestVocabulary; ++i) {
    model.SetDeleteCost(
        approxql::NodeType::kText, "term" + std::to_string(i),
        static_cast<approxql::cost::Cost>(cost_rng.UniformInt(2, 10)));
  }
  return model;
}

/// One small nested document over the elem*/term* label space,
/// deterministic given the rng state. Single line (no newlines), so an
/// acked file can hold one document per line.
std::string MakeIngestDoc(approxql::util::Rng& rng) {
  std::string xml;
  size_t budget = static_cast<size_t>(rng.UniformInt(3, 24));
  std::function<void(size_t)> emit = [&](size_t depth) {
    const std::string label =
        "elem" + std::to_string(rng.UniformInt(
                     0, static_cast<int64_t>(kIngestElementNames) - 1));
    xml += "<" + label + ">";
    while (budget > 0 && rng.UniformInt(0, 2) != 0) {
      --budget;
      if (depth >= 4 || rng.UniformInt(0, 1) == 0) {
        xml += "term" + std::to_string(rng.UniformInt(
                            0, static_cast<int64_t>(kIngestVocabulary) - 1));
        xml += " ";
      } else {
        emit(depth + 1);
      }
    }
    xml += "</" + label + ">";
  };
  emit(0);
  return xml;
}

Server* g_server = nullptr;

void HandleDrainSignal(int) {
  // Async-signal-safe: RequestDrain is an atomic store + eventfd write.
  if (g_server != nullptr) g_server->RequestDrain();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> xml_paths;
  std::string load_path, workload_path, dump_workload_path, bench_json_path;
  std::string connect_spec, router_spec;
  std::string manifest_path, save_manifest_path;
  std::string data_dir, acked_file, oracle_docs_path;
  size_t ingest_count = 0, ingest_while_querying = 0;
  bool mutable_mode = false, live = false;
  approxql::storage::StoreKind store_kind = approxql::storage::StoreKind::kMem;
  size_t clients = 8, passes = 2, repeat = 1;
  size_t gen_data = 0, gen_queries = 0, seed = 42;
  size_t shards = 1;
  size_t shard_server = SIZE_MAX;  // SIZE_MAX = not a shard server
  size_t listen_port = 0;
  bool listen_mode = false, verify = false;
  bool strict = false, expect_degraded = false, bypass_cache = false;
  int deadline_ms = 0;
  ServiceOptions service_options;
  service_options.num_threads = 8;
  approxql::engine::ExecOptions exec;
  exec.strategy = Strategy::kSchema;
  exec.n = 10;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto next_num = [&](size_t* out) {
      const char* v = next();
      if (v == nullptr) return false;
      *out = std::strtoull(v, nullptr, 10);
      return true;
    };
    if (arg == "--xml") {
      const char* v = next();
      if (v == nullptr) return Usage();
      xml_paths.push_back(v);
    } else if (arg == "--load") {
      const char* v = next();
      if (v == nullptr) return Usage();
      load_path = v;
    } else if (arg == "--workload") {
      const char* v = next();
      if (v == nullptr) return Usage();
      workload_path = v;
    } else if (arg == "--clients") {
      if (!next_num(&clients) || clients == 0) return Usage();
    } else if (arg == "--threads") {
      if (!next_num(&service_options.num_threads)) return Usage();
    } else if (arg == "--queue") {
      if (!next_num(&service_options.queue_capacity)) return Usage();
    } else if (arg == "--cache") {
      if (!next_num(&service_options.cache_capacity)) return Usage();
    } else if (arg == "--passes") {
      if (!next_num(&passes) || passes == 0) return Usage();
    } else if (arg == "--repeat") {
      if (!next_num(&repeat) || repeat == 0) return Usage();
    } else if (arg == "--n") {
      if (!next_num(&exec.n)) return Usage();
    } else if (arg == "--deadline-ms") {
      size_t ms;
      if (!next_num(&ms)) return Usage();
      deadline_ms = static_cast<int>(ms);
    } else if (arg == "--gen-data") {
      if (!next_num(&gen_data) || gen_data == 0) return Usage();
    } else if (arg == "--gen") {
      if (!next_num(&gen_queries) || gen_queries == 0) return Usage();
    } else if (arg == "--seed") {
      if (!next_num(&seed)) return Usage();
    } else if (arg == "--shards") {
      if (!next_num(&shards) || shards == 0) return Usage();
    } else if (arg == "--shard-server") {
      if (!next_num(&shard_server)) return Usage();
    } else if (arg == "--router") {
      const char* v = next();
      if (v == nullptr) return Usage();
      router_spec = v;
    } else if (arg == "--manifest") {
      const char* v = next();
      if (v == nullptr) return Usage();
      manifest_path = v;
    } else if (arg == "--save-manifest") {
      const char* v = next();
      if (v == nullptr) return Usage();
      save_manifest_path = v;
    } else if (arg == "--store") {
      const char* v = next();
      if (v == nullptr) return Usage();
      auto kind = approxql::storage::ParseStoreKind(v);
      if (!kind.ok()) return Usage();
      store_kind = *kind;
    } else if (arg == "--data-dir") {
      const char* v = next();
      if (v == nullptr) return Usage();
      data_dir = v;
    } else if (arg == "--mutable") {
      mutable_mode = true;
    } else if (arg == "--live") {
      live = true;
    } else if (arg == "--ingest-while-querying") {
      if (!next_num(&ingest_while_querying) || ingest_while_querying == 0) {
        return Usage();
      }
    } else if (arg == "--ingest") {
      if (!next_num(&ingest_count) || ingest_count == 0) return Usage();
    } else if (arg == "--acked-file") {
      const char* v = next();
      if (v == nullptr) return Usage();
      acked_file = v;
    } else if (arg == "--oracle-docs") {
      const char* v = next();
      if (v == nullptr) return Usage();
      oracle_docs_path = v;
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "--bypass-cache") {
      bypass_cache = true;
    } else if (arg == "--expect-degraded") {
      expect_degraded = true;
    } else if (arg == "--listen") {
      if (!next_num(&listen_port) || listen_port > 65535) return Usage();
      listen_mode = true;
    } else if (arg == "--connect") {
      const char* v = next();
      if (v == nullptr) return Usage();
      connect_spec = v;
    } else if (arg == "--dump-workload") {
      const char* v = next();
      if (v == nullptr) return Usage();
      dump_workload_path = v;
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--bench-json") {
      const char* v = next();
      if (v == nullptr) return Usage();
      bench_json_path = v;
    } else if (arg == "--strategy") {
      const char* v = next();
      if (v == nullptr) return Usage();
      if (std::strcmp(v, "schema") == 0) {
        exec.strategy = Strategy::kSchema;
      } else if (std::strcmp(v, "direct") == 0) {
        exec.strategy = Strategy::kDirect;
      } else if (std::strcmp(v, "scan") == 0) {
        exec.strategy = Strategy::kFullScan;
      } else {
        return Usage();
      }
    } else {
      return Usage();
    }
  }
  if (listen_mode && !connect_spec.empty()) return Usage();
  const bool connect_mode = !connect_spec.empty();
  const bool router_mode = !router_spec.empty();
  const bool shard_server_mode = shard_server != SIZE_MAX;
  // A shard server fronts exactly one shard of the partition over TCP.
  if (shard_server_mode &&
      (!listen_mode || router_mode || connect_mode || shard_server >= shards)) {
    std::fprintf(stderr,
                 "--shard-server needs --listen, --shards N with "
                 "index < N, and no --router/--connect\n");
    return Usage();
  }
  if (router_mode && connect_mode) return Usage();
  // A manifest replaces the corpus for a router host, nothing else.
  const bool manifest_mode = !manifest_path.empty();
  if (manifest_mode &&
      (!router_mode || shard_server_mode || !save_manifest_path.empty())) {
    std::fprintf(stderr, "--manifest needs --router (and no corpus role)\n");
    return Usage();
  }
  // A mutable server owns its corpus directory; it is not a router or a
  // static-corpus role. Combined with --shard-server it becomes one
  // live-ingesting cluster shard.
  if (mutable_mode && (!listen_mode || router_mode || data_dir.empty())) {
    std::fprintf(stderr,
                 "--mutable needs --listen and --data-dir (and no "
                 "--router)\n");
    return Usage();
  }
  if (shard_server_mode && !mutable_mode && live) {
    std::fprintf(stderr, "--live describes a router, not a shard server\n");
    return Usage();
  }
  if (live && !router_mode) {
    std::fprintf(stderr, "--live needs --router\n");
    return Usage();
  }
  if (live && manifest_mode) {
    std::fprintf(stderr,
                 "--live syncs manifest slices from the shard servers; "
                 "--manifest would pin a static layout\n");
    return Usage();
  }
  if (ingest_while_querying > 0 &&
      (!live || listen_mode || connect_mode || ingest_count > 0)) {
    std::fprintf(stderr,
                 "--ingest-while-querying needs --router --live and runs in "
                 "process (no --listen/--connect/--ingest)\n");
    return Usage();
  }
  if (ingest_count > 0 && !connect_mode) {
    std::fprintf(stderr, "--ingest needs --connect\n");
    return Usage();
  }
  if (store_kind == approxql::storage::StoreKind::kDisk && data_dir.empty()) {
    std::fprintf(stderr, "--store disk needs --data-dir\n");
    return Usage();
  }
  // Serving needs no workload; replay modes need one (from a file or
  // the generator). A pure --save-manifest run, and the ingest driver,
  // need neither.
  if (!listen_mode && workload_path.empty() && gen_queries == 0 &&
      save_manifest_path.empty() && ingest_count == 0 &&
      ingest_while_querying == 0) {
    return Usage();
  }

  // Parse --router's comma-separated host:port endpoints, one per shard
  // in shard-index order.
  std::vector<RouterOptions::Endpoint> router_endpoints;
  if (router_mode) {
    std::string_view rest = router_spec;
    while (!rest.empty()) {
      size_t comma = rest.find(',');
      std::string_view item =
          comma == std::string_view::npos ? rest : rest.substr(0, comma);
      rest = comma == std::string_view::npos ? std::string_view()
                                             : rest.substr(comma + 1);
      size_t colon = item.rfind(':');
      if (colon == std::string_view::npos) return Usage();
      RouterOptions::Endpoint endpoint;
      endpoint.host = std::string(item.substr(0, colon));
      size_t port = std::strtoull(std::string(item.substr(colon + 1)).c_str(),
                                  nullptr, 10);
      if (endpoint.host.empty() || port == 0 || port > 65535) return Usage();
      endpoint.port = static_cast<uint16_t>(port);
      router_endpoints.push_back(std::move(endpoint));
    }
    if (router_endpoints.empty()) return Usage();
    if (shards == 1) shards = router_endpoints.size();
    if (shards != router_endpoints.size()) {
      std::fprintf(stderr,
                   "--router lists %zu endpoints but --shards is %zu\n",
                   router_endpoints.size(), shards);
      return 1;
    }
  }

  // A database is needed to serve, to replay in process, to generate a
  // workload, and to verify wire answers — a pure wire replay from a
  // workload file, and a router host fed by --manifest, are the modes
  // without.
  // The --live driver is fully self-contained: its oracle database is
  // built from the documents it ingests, and its workload is generated
  // from that oracle — no corpus flags at all.
  const bool driver_mode = ingest_while_querying > 0;
  const bool needs_db =
      (gen_queries > 0 && !driver_mode) || (verify && !driver_mode) ||
      !oracle_docs_path.empty() ||
      (!manifest_mode && !mutable_mode && !live &&
       (listen_mode || (!connect_mode && ingest_count == 0 && !driver_mode)));
  std::unique_ptr<Database> db;
  if (needs_db) {
    if (!oracle_docs_path.empty()) {
      // The crash-recovery oracle: exactly the documents the ingest
      // driver got acks for, in ack order. Concatenating them under one
      // super-root reproduces the server's global preorder ids (the
      // mutable corpus assigns global_start sequentially in ack order,
      // independent of shard placement), so roots and costs compare
      // bit-for-bit.
      std::ifstream in(oracle_docs_path);
      if (!in) {
        std::fprintf(stderr, "cannot read %s\n", oracle_docs_path.c_str());
        return 1;
      }
      approxql::doc::DataTreeBuilder builder;
      std::string line;
      size_t docs = 0;
      while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        auto added = builder.AddDocumentXml(line);
        if (!added.ok()) {
          std::fprintf(stderr, "oracle-docs line %zu: %s\n", docs + 1,
                       added.ToString().c_str());
          return 1;
        }
        ++docs;
      }
      const approxql::cost::CostModel model = IngestCostModel(seed);
      auto tree = std::move(builder).Build(model);
      if (!tree.ok()) {
        std::fprintf(stderr, "oracle-docs: %s\n",
                     tree.status().ToString().c_str());
        return 1;
      }
      auto built = Database::FromDataTree(std::move(tree).value(), model);
      if (!built.ok()) {
        std::fprintf(stderr, "oracle-docs: %s\n",
                     built.status().ToString().c_str());
        return 1;
      }
      db = std::make_unique<Database>(std::move(built).value());
      std::fprintf(stderr, "oracle: %zu documents from %s\n", docs,
                   oracle_docs_path.c_str());
    } else if (!load_path.empty()) {
      auto loaded = Database::Load(load_path);
      if (!loaded.ok()) {
        std::fprintf(stderr, "load: %s\n", loaded.status().ToString().c_str());
        return 1;
      }
      db = std::make_unique<Database>(std::move(loaded).value());
    } else if (!xml_paths.empty()) {
      auto built =
          Database::BuildFromFiles(xml_paths, approxql::cost::CostModel());
      if (!built.ok()) {
        std::fprintf(stderr, "build: %s\n", built.status().ToString().c_str());
        return 1;
      }
      db = std::make_unique<Database>(std::move(built).value());
    } else if (gen_data > 0) {
      approxql::gen::XmlGenOptions gen_options;
      gen_options.seed = seed;
      gen_options.total_elements = gen_data;
      gen_options.vocabulary = std::max<size_t>(1000, gen_data / 10);
      approxql::gen::XmlGenerator generator(gen_options);
      // Seeded approximate-match costs: generated workload queries
      // sample labels independently of structure, so exact embeddings
      // are rare — without delete costs in the *database's* model a
      // wire replay would verify mostly-empty answer lists (per-query
      // cost models cannot ride the wire). Baking a deterministic
      // delete-cost table derived from --seed into the build-time
      // model makes the workload return real ranked answers, and lets
      // a --verify client reconstruct the identical model.
      approxql::cost::CostModel model;
      approxql::util::Rng cost_rng(seed ^ 0x9E3779B97F4A7C15ULL);
      for (size_t i = 0; i < gen_options.element_names; ++i) {
        model.SetDeleteCost(
            approxql::NodeType::kStruct, "elem" + std::to_string(i),
            static_cast<approxql::cost::Cost>(cost_rng.UniformInt(2, 10)));
      }
      for (size_t i = 0; i < gen_options.vocabulary; ++i) {
        model.SetDeleteCost(
            approxql::NodeType::kText, "term" + std::to_string(i),
            static_cast<approxql::cost::Cost>(cost_rng.UniformInt(2, 10)));
      }
      auto tree = generator.GenerateTree(model);
      if (!tree.ok()) {
        std::fprintf(stderr, "gen: %s\n", tree.status().ToString().c_str());
        return 1;
      }
      auto built = Database::FromDataTree(std::move(tree).value(), model);
      if (!built.ok()) {
        std::fprintf(stderr, "build: %s\n", built.status().ToString().c_str());
        return 1;
      }
      db = std::make_unique<Database>(std::move(built).value());
    } else {
      return Usage();
    }
  }

  std::vector<std::string> workload_queries;
  if (!workload_path.empty()) {
    auto workload = approxql::service::LoadWorkloadFile(workload_path);
    if (!workload.ok()) {
      std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
      return 1;
    }
    workload_queries = std::move(workload).value();
  } else if (gen_queries > 0) {
    // Instantiate the paper's three benchmark patterns round-robin.
    approxql::gen::QueryGenOptions gen_options;
    gen_options.seed = seed;
    approxql::gen::QueryGenerator generator(*db, gen_options);
    constexpr std::string_view kPatterns[] = {
        approxql::gen::kPattern1, approxql::gen::kPattern2,
        approxql::gen::kPattern3};
    for (size_t i = 0; i < gen_queries; ++i) {
      auto generated = generator.Generate(kPatterns[i % 3]);
      if (!generated.ok()) {
        std::fprintf(stderr, "gen: %s\n",
                     generated.status().ToString().c_str());
        return 1;
      }
      workload_queries.push_back(std::move(generated->text));
    }
  }
  if (!dump_workload_path.empty()) {
    std::ofstream out(dump_workload_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", dump_workload_path.c_str());
      return 1;
    }
    out << "# generated by approxql_serve --gen " << workload_queries.size()
        << " --seed " << seed << "\n";
    for (const std::string& query : workload_queries) out << query << "\n";
    std::fprintf(stderr, "wrote %zu queries to %s\n", workload_queries.size(),
                 dump_workload_path.c_str());
  }

  if (db != nullptr) {
    auto stats = db->GetStats();
    std::fprintf(stderr, "database: %zu nodes, %zu labels, schema %zu\n",
                 stats.nodes, stats.distinct_labels, stats.schema_nodes);
  }

  // Sharded backend: partition the corpus the single database holds.
  // The single db stays alive — the query generator samples from it, and
  // --verify's oracle deliberately runs unsharded so a wire replay
  // cross-checks scatter-gather answers against the single-database path.
  std::unique_ptr<ShardedDatabase> sharded;
  if (db != nullptr && (shards > 1 || shard_server_mode || router_mode ||
                        !save_manifest_path.empty())) {
    // --store disk backs each shard's postings with a B+tree file under
    // --data-dir; the default keeps them in memory.
    approxql::storage::StoreFactory store_factory = nullptr;
    if (store_kind == approxql::storage::StoreKind::kDisk && !mutable_mode) {
      std::error_code ec;
      std::filesystem::create_directories(data_dir, ec);
      if (ec) {
        std::fprintf(stderr, "cannot create %s: %s\n", data_dir.c_str(),
                     ec.message().c_str());
        return 1;
      }
      store_factory = [kind = store_kind, dir = data_dir](
                          const std::string& stem) {
        return approxql::storage::CreateKvStore(kind, dir + "/" + stem + ".kv",
                                                /*create_if_missing=*/true);
      };
    }
    auto partitioned = ShardedDatabase::Partition(
        db->tree(), db->cost_model(), shards, std::move(store_factory));
    if (!partitioned.ok()) {
      std::fprintf(stderr, "shard: %s\n",
                   partitioned.status().ToString().c_str());
      return 1;
    }
    sharded = std::make_unique<ShardedDatabase>(std::move(partitioned).value());
    auto sstats = sharded->GetStats();
    std::fprintf(stderr,
                 "sharded: %zu shards, %zu documents, %zu global classes "
                 "(layout fingerprint %08x)\n",
                 sstats.num_shards, sstats.documents, sstats.global_classes,
                 sharded->LayoutFingerprint());
  }
  if (!save_manifest_path.empty()) {
    if (sharded == nullptr) {
      std::fprintf(stderr, "--save-manifest needs a corpus to partition\n");
      return 1;
    }
    auto saved = approxql::shard::LayoutManifest::Of(*sharded).SaveTo(
        save_manifest_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "save-manifest: %s\n", saved.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote layout manifest (%zu shards) to %s\n",
                 sharded->num_shards(), save_manifest_path.c_str());
    // Saving can be the run's only job.
    if (!listen_mode && workload_path.empty() && gen_queries == 0) return 0;
  }

  // A router host's layout can come from a manifest file instead of a
  // materialized corpus.
  std::unique_ptr<approxql::shard::LayoutManifest> manifest;
  if (manifest_mode) {
    auto loaded = approxql::shard::LayoutManifest::LoadFrom(manifest_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "manifest: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    manifest = std::make_unique<approxql::shard::LayoutManifest>(
        std::move(loaded).value());
    if (manifest->num_shards() != router_endpoints.size()) {
      std::fprintf(stderr,
                   "manifest describes %zu shards but --router lists %zu "
                   "endpoints\n",
                   manifest->num_shards(), router_endpoints.size());
      return 1;
    }
    std::fprintf(stderr,
                 "manifest: %zu shards (layout fingerprint %08x) from %s\n",
                 manifest->num_shards(), manifest->fingerprint(),
                 manifest_path.c_str());
  }

  // Remote scatter-gather: the router's transports start before any
  // query runs. Built outside the listen branch so the in-process
  // replay path can also drive it; destroyed after anything that
  // queries it (declaration order).
  std::unique_ptr<ShardRouter> router;
  if (router_mode) {
    RouterOptions router_options;
    router_options.shards = std::move(router_endpoints);
    router_options.strict = strict;
    if (live) {
      // Live cluster: no static layout exists — the router bootstraps
      // epoch-tagged manifest slices from the shard servers themselves.
      // Model and shard count derive from --seed/--shards exactly as on
      // each mutable shard server, so the cluster fingerprint matches.
      approxql::cluster::ClusterConfig config;
      config.model = IngestCostModel(seed);
      config.num_shards = shards;
      router = std::make_unique<ShardRouter>(config, router_options);
    } else if (manifest != nullptr) {
      router = std::make_unique<ShardRouter>(*manifest, router_options);
    } else {
      router = std::make_unique<ShardRouter>(*sharded, router_options);
    }
    auto started = router->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "router: %s\n", started.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "router: %zu remote shard endpoint%s%s%s\n",
                 router->num_shards(), router->num_shards() == 1 ? "" : "s",
                 live ? " (live cluster)" : "", strict ? " (strict)" : "");
  }

  // The one backend choice for every static-corpus role, listening or
  // replaying in process: one shard of the partition (--shard-server),
  // the router, the partition, or the single database. A mutable corpus
  // exists only under --listen and is chosen there.
  auto make_service = [&]() -> std::unique_ptr<QueryService> {
    if (shard_server_mode) {
      return std::make_unique<QueryService>(sharded->shard(shard_server),
                                            service_options);
    }
    if (router != nullptr) {
      return std::make_unique<QueryService>(*router, service_options);
    }
    if (sharded != nullptr) {
      return std::make_unique<QueryService>(*sharded, service_options);
    }
    return std::make_unique<QueryService>(*db, service_options);
  };

  if (listen_mode) {
    // Declared before service/server so it outlives them (destruction
    // runs a final checkpoint).
    std::unique_ptr<approxql::ingest::MutableCorpus> corpus;
    std::unique_ptr<QueryService> service;
    ServerOptions server_options;
    server_options.port = static_cast<uint16_t>(listen_port);
    std::unique_ptr<Server> server;
    if (mutable_mode) {
      approxql::ingest::MutableCorpus::Options corpus_options;
      corpus_options.data_dir = data_dir;
      // A cluster shard server IS one shard: its corpus has exactly one
      // internal shard and --shards describes the cluster, not the
      // corpus (the router owns placement across servers).
      corpus_options.num_shards = shard_server_mode ? 1 : shards;
      corpus_options.store_kind = store_kind;
      corpus_options.model = IngestCostModel(seed);
      const size_t corpus_shards = corpus_options.num_shards;
      approxql::ingest::MutableCorpus::OpenStats open_stats;
      auto opened = approxql::ingest::MutableCorpus::Open(
          std::move(corpus_options), nullptr, &open_stats);
      if (!opened.ok()) {
        std::fprintf(stderr, "mutable corpus: %s\n",
                     opened.status().ToString().c_str());
        return 1;
      }
      corpus = std::move(opened).value();
      std::fprintf(stderr,
                   "mutable corpus: recovered %zu documents "
                   "(%zu wal records replayed%s%s), epoch %llu, "
                   "%zu shard%s, store %s, dir %s\n",
                   open_stats.recovered_documents, open_stats.replayed_records,
                   open_stats.any_tail_truncated ? ", torn tail dropped" : "",
                   open_stats.any_store_rebuilt ? ", store rebuilt" : "",
                   static_cast<unsigned long long>(corpus->epoch()),
                   corpus_shards, corpus_shards == 1 ? "" : "s",
                   approxql::storage::StoreKindName(store_kind),
                   data_dir.c_str());
      service = std::make_unique<QueryService>(*corpus, service_options);
    } else {
      service = make_service();
    }
    if (shard_server_mode) {
      // This process fronts exactly one shard: kShardQuery/kPing answers
      // carry the shard index and a fingerprint. A static shard stamps
      // the partition's layout fingerprint; a live-mutating cluster
      // shard stamps the static cluster fingerprint (its corpus's own
      // fingerprint moves with every mutation — the epoch, not the
      // stamp, pins the layout; DESIGN.md §14).
      server_options.shard.enabled = true;
      server_options.shard.fingerprint =
          mutable_mode ? approxql::cluster::ClusterFingerprint(
                             IngestCostModel(seed), shards)
                       : sharded->LayoutFingerprint();
      server_options.shard.shard_index = static_cast<uint32_t>(shard_server);
    }
    // Answer roots resolve through the service's backend.
    server = corpus != nullptr
                 ? std::make_unique<Server>(*service, *corpus, server_options)
                 : std::make_unique<Server>(*service, server_options);
    auto started = server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.ToString().c_str());
      return 1;
    }
    g_server = server.get();
    std::signal(SIGTERM, HandleDrainSignal);
    std::signal(SIGINT, HandleDrainSignal);
    if (shard_server_mode) {
      std::fprintf(stderr,
                   "shard server %zu/%zu listening on %s:%u (%s "
                   "fingerprint %08x) — SIGTERM drains\n",
                   shard_server, shards, server_options.bind_address.c_str(),
                   server->port(), mutable_mode ? "cluster" : "layout",
                   server_options.shard.fingerprint);
    } else {
      std::fprintf(stderr,
                   "listening on %s:%u (%zu workers, queue %zu, %zu shard%s"
                   "%s) — SIGTERM drains\n",
                   server_options.bind_address.c_str(), server->port(),
                   service_options.num_threads, service_options.queue_capacity,
                   shards, shards == 1 ? "" : "s",
                   router != nullptr      ? ", remote"
                   : corpus != nullptr    ? ", mutable"
                                          : "");
    }
    server->Wait();  // returns when a drain signal quiesces the loop
    g_server = nullptr;
    std::printf("--- server metrics ---\n%s", server->DumpMetrics().c_str());
    server->Shutdown(/*drain=*/true);
    return 0;
  }

  if (driver_mode) {
    // Live-cluster driver: ingest through the router while querying it.
    // Each round ingests a burst with query threads running concurrently
    // (exercising the epoch-reconciliation path), then quiesces and —
    // with --verify — replays the round's workload with read-your-writes
    // epoch floors, comparing bit-for-bit against a database built from
    // exactly the acked documents. A document whose ingest failed in
    // transport is IN DOUBT (it may have landed without the ack); the
    // verifier resolves each candidate by testing which landed-subset
    // oracle matches the cluster.
    QueryService service(*router, service_options);
    approxql::util::Rng doc_rng(seed * 0x9E3779B97F4A7C15ULL + 1);
    struct DocEntry {
      std::string xml;
      bool acked;
    };
    std::vector<DocEntry> docs;
    std::vector<uint64_t> floors(shards, 0);
    size_t acked_total = 0, candidates = 0, failed_rounds = 0, rounds = 0;
    std::atomic<size_t> bg_queries{0}, bg_hard_failures{0};
    std::string first_bg_failure;
    approxql::util::Mutex bg_failure_mu;
    const size_t query_count = gen_queries > 0 ? gen_queries : 24;
    constexpr size_t kBurst = 32;
    constexpr size_t kMaxCandidates = 6;
    const Strategy kStrategies[] = {Strategy::kSchema, Strategy::kDirect};

    while (acked_total < ingest_while_querying) {
      ++rounds;
      // Concurrent query load during the burst (answers not compared —
      // the corpus is moving — but hard failures are: a fingerprint or
      // translation error here means the epoch machinery mistranslated).
      std::atomic<bool> bg_stop{false};
      std::thread bg([&] {
        size_t k = 0;
        while (!bg_stop.load(std::memory_order_acquire)) {
          if (workload_queries.empty()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            continue;
          }
          QueryRequest request;
          request.query_text = workload_queries[k % workload_queries.size()];
          request.exec = exec;
          request.exec.strategy = kStrategies[k % 2];
          ++k;
          QueryResponse response = service.ExecuteNow(std::move(request));
          bg_queries.fetch_add(1, std::memory_order_relaxed);
          const auto& st = response.status;
          if (!st.ok() && !st.IsUnavailable() && !st.IsDeadlineExceeded() &&
              !st.IsResourceExhausted()) {
            if (bg_hard_failures.fetch_add(1, std::memory_order_relaxed) ==
                0) {
              approxql::util::MutexLock lock(&bg_failure_mu);
              first_bg_failure = st.ToString();
            }
          }
        }
      });
      const size_t burst =
          std::min(kBurst, ingest_while_querying - acked_total);
      bool gave_up = false;
      for (size_t b = 0; b < burst && !gave_up; ++b) {
        std::string xml = MakeIngestDoc(doc_rng);
        approxql::util::WallTimer doc_timer;
        int backoff_ms = 100;
        for (;;) {
          approxql::net::WireIngest op;
          op.op = approxql::net::WireIngest::Op::kAdd;
          op.xml = xml;
          auto ack = router->Ingest(op, /*deadline_ms=*/2000);
          if (ack.ok()) {
            docs.push_back({std::move(xml), /*acked=*/true});
            if (ack->shard_index < floors.size()) {
              floors[ack->shard_index] =
                  std::max(floors[ack->shard_index], ack->epoch);
            }
            ++acked_total;
            break;
          }
          // In doubt: never resend (a duplicate would corrupt the
          // oracle either way); record the candidate, take a fresh doc.
          docs.push_back({std::move(xml), /*acked=*/false});
          if (++candidates > kMaxCandidates) {
            std::fprintf(stderr,
                         "driver: more than %zu in-doubt documents — "
                         "cluster unrecoverable: %s\n",
                         kMaxCandidates, ack.status().ToString().c_str());
            gave_up = true;
            break;
          }
          if (doc_timer.ElapsedSeconds() > 120.0) {
            std::fprintf(stderr, "driver: ingest stalled >120 s: %s\n",
                         ack.status().ToString().c_str());
            gave_up = true;
            break;
          }
          std::fprintf(stderr, "driver: ingest in doubt (%s), retrying\n",
                       ack.status().ToString().c_str());
          std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
          backoff_ms = std::min(backoff_ms * 2, 2000);
          xml = MakeIngestDoc(doc_rng);
        }
      }
      bg_stop.store(true, std::memory_order_release);
      bg.join();
      if (gave_up) {
        ++failed_rounds;
        break;
      }
      if (!verify) {
        std::fprintf(stderr, "driver: round %zu: %zu/%zu docs acked\n",
                     rounds, acked_total, ingest_while_querying);
        continue;
      }

      // Quiesced verification: the cluster now holds exactly the acked
      // documents plus some subset of the in-doubt candidates. Routed
      // answers (with epoch floors enforcing read-your-writes) must be
      // bit-identical to the oracle of whichever subset actually landed.
      std::vector<size_t> candidate_index;
      for (size_t d = 0; d < docs.size(); ++d) {
        if (!docs[d].acked) candidate_index.push_back(d);
      }
      std::vector<QueryResponse> routed;
      bool routed_ok = true;
      // Collected once; compared against each candidate-subset oracle.
      auto run_routed = [&] {
        routed.clear();
        for (const std::string& query : workload_queries) {
          for (Strategy strategy : kStrategies) {
            QueryRequest request;
            request.query_text = query;
            request.exec = exec;
            request.exec.strategy = strategy;
            request.min_epochs = floors;
            routed.push_back(service.ExecuteNow(std::move(request)));
            const QueryResponse& r = routed.back();
            if (!r.status.ok() || r.degraded) routed_ok = false;
          }
        }
      };
      size_t adopted = SIZE_MAX;
      size_t base_mismatches = 0;
      for (size_t mask = 0; mask < (size_t{1} << candidate_index.size());
           ++mask) {
        approxql::doc::DataTreeBuilder builder;
        bool build_ok = true;
        for (size_t d = 0, c = 0; d < docs.size(); ++d) {
          if (!docs[d].acked &&
              (mask & (size_t{1} << c++)) == 0) {
            continue;
          }
          if (!builder.AddDocumentXml(docs[d].xml).ok()) build_ok = false;
        }
        if (!build_ok) continue;
        const approxql::cost::CostModel model = IngestCostModel(seed);
        auto tree = std::move(builder).Build(model);
        if (!tree.ok()) continue;
        auto built = Database::FromDataTree(std::move(tree).value(), model);
        if (!built.ok()) continue;
        Database oracle_db = std::move(built).value();
        if (workload_queries.empty()) {
          // First verified round: draw the workload from the oracle —
          // the driver needs no corpus flags at all.
          approxql::gen::QueryGenOptions gen_options;
          gen_options.seed = seed;
          approxql::gen::QueryGenerator generator(oracle_db, gen_options);
          constexpr std::string_view kPatterns[] = {
              approxql::gen::kPattern1, approxql::gen::kPattern2,
              approxql::gen::kPattern3};
          for (size_t q = 0; q < query_count; ++q) {
            auto generated = generator.Generate(kPatterns[q % 3]);
            if (generated.ok()) {
              workload_queries.push_back(std::move(generated->text));
            }
          }
        }
        if (routed.empty()) run_routed();
        ServiceOptions oracle_options = service_options;
        oracle_options.cache_capacity = 0;
        QueryService oracle(oracle_db, oracle_options);
        size_t mismatches = 0, slot = 0;
        for (const std::string& query : workload_queries) {
          for (Strategy strategy : kStrategies) {
            QueryRequest request;
            request.query_text = query;
            request.exec = exec;
            request.exec.strategy = strategy;
            QueryResponse expected = oracle.ExecuteNow(std::move(request));
            const QueryResponse& got = routed[slot++];
            bool match = expected.status.ok() && got.status.ok() &&
                         expected.answers.size() == got.answers.size();
            if (match) {
              for (size_t k = 0; k < expected.answers.size(); ++k) {
                if (expected.answers[k].root != got.answers[k].root ||
                    expected.answers[k].cost != got.answers[k].cost) {
                  match = false;
                  break;
                }
              }
            }
            if (!match) ++mismatches;
          }
        }
        if (mask == 0) base_mismatches = mismatches;
        if (mismatches == 0) {
          adopted = mask;
          break;
        }
      }
      if (adopted == SIZE_MAX || !routed_ok) {
        ++failed_rounds;
        std::fprintf(stderr,
                     "driver: round %zu FAILED verification (%zu/%zu "
                     "query-strategy pairs mismatched against the acked "
                     "oracle%s)\n",
                     rounds, base_mismatches, routed.size(),
                     routed_ok ? "" : "; routed errors/degraded");
      } else {
        // Promote the adopted subset: landed candidates become acked
        // documents, the rest never existed.
        std::vector<DocEntry> resolved;
        resolved.reserve(docs.size());
        for (size_t d = 0, c = 0; d < docs.size(); ++d) {
          if (docs[d].acked) {
            resolved.push_back(std::move(docs[d]));
          } else if (adopted & (size_t{1} << c++)) {
            docs[d].acked = true;
            resolved.push_back(std::move(docs[d]));
          }
        }
        docs = std::move(resolved);
        candidates = 0;
        std::fprintf(stderr,
                     "driver: round %zu verified: %zu docs, %zu routed "
                     "query-strategy pairs bit-identical\n",
                     rounds, docs.size(), routed.size());
      }
    }

    if (!acked_file.empty()) {
      std::ofstream out(acked_file);
      if (out) {
        for (const DocEntry& entry : docs) {
          if (entry.acked) out << entry.xml << "\n";
        }
      }
    }
    std::printf(
        "driver: %zu docs acked over %zu rounds, %zu concurrent queries "
        "(%zu hard failures), %zu failed verification rounds\n",
        acked_total, rounds, bg_queries.load(), bg_hard_failures.load(),
        failed_rounds);
    std::printf("--- router metrics ---\n%s", router->DumpMetrics().c_str());
    if (bg_hard_failures.load() > 0) {
      std::fprintf(stderr, "FAILED: concurrent query hard failure: %s\n",
                   first_bg_failure.c_str());
      return 1;
    }
    if (failed_rounds > 0 || acked_total < ingest_while_querying) return 1;
    return 0;
  }

  std::fprintf(stderr,
               "workload: %zu queries x %zu repeat x %zu passes, "
               "%zu clients%s\n",
               workload_queries.size(), repeat, passes, clients,
               connect_mode ? " (wire)" : "");

  if (connect_mode) {
    size_t colon = connect_spec.rfind(':');
    if (colon == std::string::npos) return Usage();
    const std::string host = connect_spec.substr(0, colon);
    const size_t port = std::strtoull(connect_spec.c_str() + colon + 1,
                                      nullptr, 10);
    if (port == 0 || port > 65535) return Usage();

    if (ingest_count > 0) {
      // Live-ingest driver: one synchronous connection adding generated
      // documents, optionally interleaving workload queries so serving-
      // while-ingesting is exercised on the same socket. The server
      // dying mid-stream (the crash harness's kill -9) is an expected
      // outcome: whatever was acked before the failure is the durable
      // set, recorded to --acked-file; the document in flight at the
      // failure is IN DOUBT (its WAL sync may have happened without the
      // ack reaching us) and goes to --acked-file.indoubt.
      ClientOptions client_options;
      client_options.host = host;
      client_options.port = static_cast<uint16_t>(port);
      Client client(client_options);
      approxql::util::Rng doc_rng(seed * 0x9E3779B97F4A7C15ULL + 1);
      std::vector<std::string> acked;
      std::string indoubt;
      size_t rejected = 0, queries_sent = 0;
      uint64_t last_epoch = 0;
      bool transport_error = false;
      approxql::util::WallTimer timer;
      for (size_t i = 0; i < ingest_count; ++i) {
        approxql::net::WireIngest op;
        op.op = approxql::net::WireIngest::Op::kAdd;
        op.xml = MakeIngestDoc(doc_rng);
        auto ack = client.Ingest(op, deadline_ms);
        if (!ack.ok()) {
          const auto& status = ack.status();
          if (status.code() == approxql::util::StatusCode::kIoError ||
              status.IsUnavailable() || status.IsCorruption() ||
              status.IsDeadlineExceeded()) {
            indoubt = op.xml;
            transport_error = true;
            std::fprintf(stderr,
                         "ingest: transport error after %zu acks: %s\n",
                         acked.size(), status.ToString().c_str());
            break;
          }
          ++rejected;
          std::fprintf(stderr, "ingest: rejected: %s\n",
                       status.ToString().c_str());
          continue;
        }
        acked.push_back(std::move(op.xml));
        last_epoch = ack->epoch;
        if (!workload_queries.empty() && (i + 1) % 8 == 0) {
          WireRequest request;
          request.query =
              workload_queries[queries_sent++ % workload_queries.size()];
          request.strategy = exec.strategy;
          request.n = exec.n;
          auto response = client.Call(request, deadline_ms);
          // The ack promised visibility: a response evaluated against
          // an older epoch on the same connection breaks it.
          if (response.ok() && response->backend_epoch < last_epoch) {
            std::fprintf(stderr,
                         "FAILED: query after ack saw epoch %llu < %llu\n",
                         static_cast<unsigned long long>(
                             response->backend_epoch),
                         static_cast<unsigned long long>(last_epoch));
            return 1;
          }
        }
        if ((i + 1) % 100 == 0) {
          std::fprintf(stderr, "ingest: %zu acked, epoch %llu\n",
                       acked.size(),
                       static_cast<unsigned long long>(last_epoch));
        }
      }
      const double wall = timer.ElapsedSeconds();
      std::printf(
          "ingest: %zu/%zu acked in %.3f s (%.0f docs/s), %zu rejected, "
          "%zu interleaved queries, final epoch %llu%s\n",
          acked.size(), ingest_count, wall,
          wall > 0 ? static_cast<double>(acked.size()) / wall : 0.0, rejected,
          queries_sent, static_cast<unsigned long long>(last_epoch),
          transport_error ? " (server lost mid-stream)" : "");
      if (!acked_file.empty()) {
        std::ofstream out(acked_file);
        if (!out) {
          std::fprintf(stderr, "cannot write %s\n", acked_file.c_str());
          return 1;
        }
        for (const std::string& xml : acked) out << xml << "\n";
        out.close();
        std::ofstream doubt(acked_file + ".indoubt");
        if (!indoubt.empty()) doubt << indoubt << "\n";
        std::fprintf(stderr, "wrote %zu acked docs to %s (%zu in doubt)\n",
                     acked.size(), acked_file.c_str(),
                     indoubt.empty() ? size_t{0} : size_t{1});
      }
      if (acked.empty() || rejected > 0) return 1;
      return 0;
    }

    std::unique_ptr<QueryService> oracle;
    if (verify) {
      ServiceOptions oracle_options = service_options;
      oracle_options.cache_capacity = 0;  // always re-execute
      oracle = std::make_unique<QueryService>(*db, oracle_options);
    }
    size_t transport_errors = 0, mismatches = 0, degraded = 0;
    std::vector<PassResult> results;
    for (size_t pass = 1; pass <= passes; ++pass) {
      PassResult result =
          RunWirePass(host, static_cast<uint16_t>(port), workload_queries,
                      clients, repeat, exec, deadline_ms, bypass_cache,
                      oracle.get());
      PrintPass(pass, result, /*wire=*/true);
      transport_errors += result.transport_errors;
      mismatches += result.mismatches;
      degraded += result.degraded;
      results.push_back(std::move(result));
    }
    if (!bench_json_path.empty()) {
      std::FILE* out = std::fopen(bench_json_path.c_str(), "w");
      if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", bench_json_path.c_str());
        return 1;
      }
      std::fprintf(out,
                   "{\n  \"benchmark\": \"wire_replay\",\n"
                   "  \"config\": {\"shards\": %zu, \"clients\": %zu, "
                   "\"threads\": %zu, %s},\n"
                   "  \"clients\": %zu,\n  \"passes\": [\n",
                   shards, clients, service_options.num_threads,
                   approxql::bench::BenchEnvJson().c_str(), clients);
      for (size_t p = 0; p < results.size(); ++p) {
        const PassResult& r = results[p];
        std::fprintf(
            out,
            "    {\"pass\": %zu, \"requests\": %zu, \"qps\": %.2f, "
            "\"p50_us\": %.0f, \"p90_us\": %.0f, \"p99_us\": %.0f, "
            "\"max_us\": %llu, \"transport_errors\": %zu}%s\n",
            p + 1, r.requests,
            r.wall_seconds > 0
                ? static_cast<double>(r.requests) / r.wall_seconds
                : 0.0,
            r.latency_us.Quantile(0.50), r.latency_us.Quantile(0.90),
            r.latency_us.Quantile(0.99),
            static_cast<unsigned long long>(r.latency_us.max()),
            r.transport_errors, p + 1 == results.size() ? "" : ",");
      }
      std::fprintf(out, "  ]\n}\n");
      std::fclose(out);
      std::printf("wrote %s\n", bench_json_path.c_str());
    }
    if (transport_errors > 0) {
      std::fprintf(stderr, "FAILED: %zu transport errors\n", transport_errors);
      return 1;
    }
    if (mismatches > 0) {
      std::fprintf(stderr,
                   "FAILED: %zu wire answers differ from in-process\n",
                   mismatches);
      return 1;
    }
    if (expect_degraded && degraded == 0) {
      std::fprintf(stderr,
                   "FAILED: --expect-degraded but no degraded responses "
                   "were observed\n");
      return 1;
    }
    return 0;
  }

  std::unique_ptr<QueryService> service = make_service();
  for (size_t pass = 1; pass <= passes; ++pass) {
    PassResult result = RunPass(*service, workload_queries, clients, repeat,
                                exec, deadline_ms);
    PrintPass(pass, result, /*wire=*/false);
  }

  std::printf("--- service metrics ---\n%s", service->DumpMetrics().c_str());
  return 0;
}
