// The load driver, approxql_serve's client side. It replays a workload
// in a closed loop, in process (single database or --shards N) or over
// the wire (--connect, one connection per caller); --verify checks each
// answer list against an unsharded in-process database. It also drives
// ingest: over the wire (--ingest, the crash harness) and through an
// in-process router over a live cluster (--ingest-while-querying). Each
// replay caller submits one request, waits for the answer, then takes
// the next query, so concurrency == --clients; with the default
// --passes 2 the second pass replays against a warm result cache.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "dist/shard_router.h"
#include "gen/query_generator.h"
#include "net/client.h"
#include "serve_common.h"
#include "service/workload.h"
#include "util/histogram.h"
#include "util/mutex.h"
#include "util/random.h"
#include "util/timer.h"

#include "bench/bench_env.h"

using approxql::engine::Database;
using approxql::engine::ExecOptions;
using approxql::engine::Strategy;
using approxql::net::Client;
using approxql::net::ClientOptions;
using approxql::serve::Fail;
using approxql::service::QueryRequest;
using approxql::service::QueryResponse;
using approxql::service::QueryService;
using approxql::service::ServiceOptions;
using approxql::util::Status;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: approxql_load CORPUS (--workload FILE | --gen N) [options]\n"
      "       approxql_load --connect HOST:PORT (--workload FILE |\n"
      "                     CORPUS --gen N) [--verify] [options]\n"
      "       approxql_load --connect HOST:PORT --ingest N [options]\n"
      "       approxql_load --router H:P,... --live\n"
      "                     --ingest-while-querying N [--verify]\n"
      "  CORPUS is --xml FILE..., --load DB or --gen-data N [--seed S]\n"
      "  --workload FILE  queries, one per line\n"
      "  --gen N          generate N queries from the paper's patterns\n"
      "  --dump-workload F  write the workload to F (one query per line)\n"
      "  --clients N      concurrent client threads (default 8)\n"
      "  --passes N       workload replays; pass 2+ hits a warm cache "
      "(default 2)\n"
      "  --repeat N       repetitions of the workload per pass (default 1)\n"
      "  --n N            best-n bound per query (default 10)\n"
      "  --strategy S     schema|direct|scan (default schema)\n"
      "  --deadline-ms N  per-request deadline, 0 = none (default 0)\n"
      "  --connect H:P    replay over the wire against a running server\n"
      "  --verify         check answers against an unsharded in-process\n"
      "                   database built from the server's corpus flags\n"
      "  --oracle-docs F  build that database from the XML lines of F (an\n"
      "                   --acked-file): the crash-recovery oracle\n"
      "  --expect-degraded  exit 1 unless at least one response came back\n"
      "                   degraded (cluster smoke tests)\n"
      "  --bypass-cache   skip the result cache, forcing every request to\n"
      "                   the backend\n"
      "  --bench-json F   write the per-pass report to F as one JSON object\n"
      "                   (the file is overwritten)\n"
      "  --ingest N       (--connect) add N generated docs over the wire,\n"
      "                   interleaving workload queries if one was given;\n"
      "                   tolerates the server dying mid-stream\n"
      "  --ingest-while-querying N  (--router --live) ingest N docs through\n"
      "                   the router while querying it, the only writer to\n"
      "                   an empty cluster; --verify checks quiesced rounds\n"
      "                   against a BuildFromXml(acked) oracle\n"
      "  --acked-file F   (--ingest*) write every acked document's XML to F\n"
      "                   (one per line) and every in-doubt one to\n"
      "                   F.indoubt: the durably-acked oracle inputs\n"
      "%s",
      approxql::serve::kCommonFlagsUsage);
  return 2;
}

int Reject(const char* why) {
  std::fprintf(stderr, "%s\n", why);
  return Usage();
}

/// Ranked answer lists agree when roots and costs match in order.
template <typename A, typename B>
bool SameAnswers(const std::vector<A>& a, const std::vector<B>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const A& x, const B& y) {
                      return x.root == y.root && x.cost == y.cost;
                    });
}

/// `count` queries instantiating the paper's three benchmark patterns
/// round-robin, labels sampled from `db`.
approxql::util::Result<std::vector<std::string>> GenerateWorkload(
    const Database& db, size_t seed, size_t count) {
  approxql::gen::QueryGenOptions options;
  options.seed = seed;
  approxql::gen::QueryGenerator generator(db, options);
  constexpr std::string_view kPatterns[] = {approxql::gen::kPattern1,
                                            approxql::gen::kPattern2,
                                            approxql::gen::kPattern3};
  std::vector<std::string> queries;
  for (size_t i = 0; i < count; ++i) {
    ASSIGN_OR_RETURN(auto generated, generator.Generate(kPatterns[i % 3]));
    queries.push_back(std::move(generated.text));
  }
  return queries;
}

/// The database of exactly `docs` (XML, in ack order) under the ingest
/// model. One super-root over them reproduces a mutable corpus's global
/// preorder ids (it assigns global_start sequentially in ack order,
/// independent of shard placement), so roots and costs compare
/// bit-for-bit with what the servers answer.
approxql::util::Result<Database> DatabaseFromXml(
    const std::vector<std::string>& docs, size_t seed) {
  approxql::doc::DataTreeBuilder builder;
  for (size_t d = 0; d < docs.size(); ++d) {
    const Status added = builder.AddDocumentXml(docs[d]);
    if (!added.ok()) {
      return Status(added.code(), "document " + std::to_string(d + 1) +
                                      ": " + added.message());
    }
  }
  const approxql::cost::CostModel model =
      approxql::serve::IngestCostModel(seed);
  ASSIGN_OR_RETURN(auto tree, std::move(builder).Build(model));
  return Database::FromDataTree(std::move(tree), model);
}

/// Writes `lines` to `path`, one per line; false (with a message) when
/// the file cannot be written.
bool WriteLines(const std::string& path,
                const std::vector<std::string>& lines) {
  std::ofstream out(path);
  for (const std::string& line : lines) out << line << "\n";
  out.close();
  if (!out) std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return static_cast<bool>(out);
}

/// Writes each acked document's XML to `path` and each in-doubt one to
/// `path`.indoubt, one per line.
bool WriteAckedFile(const std::string& path,
                    const std::vector<std::string>& acked,
                    const std::vector<std::string>& indoubt) {
  if (!WriteLines(path, acked) || !WriteLines(path + ".indoubt", indoubt)) {
    return false;
  }
  std::fprintf(stderr, "wrote %zu acked docs to %s (%zu in doubt)\n",
               acked.size(), path.c_str(), indoubt.size());
  return true;
}

/// One small nested document over the ingest label space, deterministic
/// given the rng state. Single line, so an acked file holds one document
/// per line.
std::string MakeIngestDoc(approxql::util::Rng& rng) {
  using approxql::serve::kIngestElementNames;
  using approxql::serve::kIngestVocabulary;
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

bool IsTransportError(const Status& status) {
  return status.code() == approxql::util::StatusCode::kIoError ||
         status.IsUnavailable() || status.IsCorruption();
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

/// What one call reports back to the replay loop.
struct CallOutcome {
  Status status;
  bool truncated = false;
  bool cache_hit = false;
  bool degraded = false;
  bool mismatch = false;  // differs from the --verify oracle
};
using Caller = std::function<CallOutcome(const std::string& query)>;

/// One pass of the closed loop. Each of `clients` threads gets its own
/// caller from `make_caller` (on that thread: a connection, for the
/// wire) and takes the next of workload x repeat queries as soon as its
/// previous call returns. Latency is what the caller observed.
PassResult RunPass(const std::vector<std::string>& workload, size_t clients,
                   size_t repeat, const std::function<Caller()>& make_caller) {
  const size_t total = workload.size() * repeat;
  std::atomic<size_t> next{0};
  PassResult result;
  approxql::util::Mutex mu;  // guards result until the threads are joined
  approxql::util::WallTimer timer;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      const Caller call = make_caller();
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= total) break;
        approxql::util::WallTimer call_timer;
        const CallOutcome outcome = call(workload[i % workload.size()]);
        const double call_us = call_timer.ElapsedSeconds() * 1e6;
        approxql::util::MutexLock lock(&mu);
        result.latency_us.Record(static_cast<uint64_t>(call_us));
        ++result.requests;
        if (outcome.status.ok()) {
          ++result.completed;
          result.truncated += outcome.truncated;
          result.cache_hits += outcome.cache_hit;
          result.degraded += outcome.degraded;
          result.mismatches += outcome.mismatch;
        } else if (outcome.status.IsResourceExhausted()) {
          ++result.rejected;
        } else if (IsTransportError(outcome.status)) {
          ++result.transport_errors;
        } else {
          ++result.failed;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  result.wall_seconds = timer.ElapsedSeconds();
  return result;
}

double Qps(const PassResult& r) {
  return r.wall_seconds > 0 ? static_cast<double>(r.requests) / r.wall_seconds
                            : 0.0;
}

void PrintPass(size_t pass, const PassResult& r) {
  std::printf(
      "pass %zu: %zu requests in %.3f s  (%.0f q/s)\n"
      "  completed %zu  cache-hit %zu  truncated %zu  rejected %zu  "
      "failed %zu\n"
      "  degraded %zu  transport-errors %zu  verify-mismatches %zu\n"
      "  latency %s\n",
      pass, r.requests, r.wall_seconds, Qps(r), r.completed, r.cache_hits,
      r.truncated, r.rejected, r.failed, r.degraded, r.transport_errors,
      r.mismatches, r.latency_us.Summary("us").c_str());
  // Progress is observable while later passes run (cluster smoke).
  std::fflush(stdout);
}

bool WriteBenchJson(const std::string& path, bool wire, size_t shards,
                    size_t clients, size_t threads,
                    const std::vector<PassResult>& results) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(out,
               "{\n  \"benchmark\": \"%s\",\n"
               "  \"config\": {\"shards\": %zu, \"clients\": %zu, "
               "\"threads\": %zu, %s},\n"
               "  \"clients\": %zu,\n  \"passes\": [\n",
               wire ? "wire_replay" : "replay", shards, clients, threads,
               approxql::bench::BenchEnvJson().c_str(), clients);
  for (size_t p = 0; p < results.size(); ++p) {
    const PassResult& r = results[p];
    std::fprintf(out,
                 "    {\"pass\": %zu, \"requests\": %zu, \"qps\": %.2f, "
                 "\"p50_us\": %.0f, \"p90_us\": %.0f, \"p99_us\": %.0f, "
                 "\"max_us\": %llu, \"transport_errors\": %zu}%s\n",
                 p + 1, r.requests, Qps(r), r.latency_us.Quantile(0.50),
                 r.latency_us.Quantile(0.90), r.latency_us.Quantile(0.99),
                 static_cast<unsigned long long>(r.latency_us.max()),
                 r.transport_errors, p + 1 == results.size() ? "" : ",");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

/// Live-ingest driver: one synchronous connection adding generated
/// documents, interleaving workload queries so serving-while-ingesting
/// is exercised on the same socket. The server dying mid-stream (the
/// crash harness's kill -9) is an expected outcome: whatever was acked
/// before the failure is the durable set; the document in flight at the
/// failure is IN DOUBT (its WAL sync may have happened without the ack
/// reaching us).
int RunWireIngest(const ClientOptions& client_options, size_t count,
                  size_t seed, int deadline_ms, const ExecOptions& exec,
                  const std::vector<std::string>& workload,
                  const std::string& acked_file) {
  Client client(client_options);
  approxql::util::Rng doc_rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  std::vector<std::string> acked, indoubt;
  size_t rejected = 0, queries_sent = 0;
  uint64_t last_epoch = 0;
  approxql::util::WallTimer timer;
  for (size_t i = 0; i < count; ++i) {
    approxql::net::WireIngest op;  // an add
    op.xml = MakeIngestDoc(doc_rng);
    auto ack = client.Ingest(op, deadline_ms);
    if (!ack.ok()) {
      const Status& status = ack.status();
      if (IsTransportError(status) || status.IsDeadlineExceeded()) {
        indoubt.push_back(std::move(op.xml));
        std::fprintf(stderr, "ingest: transport error after %zu acks: %s\n",
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
    if (!workload.empty() && (i + 1) % 8 == 0) {
      approxql::net::WireRequest request;
      request.query = workload[queries_sent++ % workload.size()];
      request.strategy = exec.strategy;
      request.n = exec.n;
      auto response = client.Call(request, deadline_ms);
      // The ack promised visibility: a response evaluated against an
      // older epoch on the same connection breaks it.
      if (response.ok() && response->backend_epoch < last_epoch) {
        std::fprintf(
            stderr, "FAILED: query after ack saw epoch %llu < %llu\n",
            static_cast<unsigned long long>(response->backend_epoch),
            static_cast<unsigned long long>(last_epoch));
        return 1;
      }
    }
    if ((i + 1) % 100 == 0) {
      std::fprintf(stderr, "ingest: %zu acked, epoch %llu\n", acked.size(),
                   static_cast<unsigned long long>(last_epoch));
    }
  }
  const double wall = timer.ElapsedSeconds();
  std::printf(
      "ingest: %zu/%zu acked in %.3f s (%.0f docs/s), %zu rejected, "
      "%zu interleaved queries, final epoch %llu%s\n",
      acked.size(), count, wall,
      wall > 0 ? static_cast<double>(acked.size()) / wall : 0.0, rejected,
      queries_sent, static_cast<unsigned long long>(last_epoch),
      indoubt.empty() ? "" : " (server lost mid-stream)");
  if (!acked_file.empty() && !WriteAckedFile(acked_file, acked, indoubt)) {
    return 1;
  }
  return acked.empty() || rejected > 0 ? 1 : 0;
}

/// Live-cluster driver: ingest through the router while querying it.
/// Each round ingests a burst with a query thread running concurrently
/// (exercising the epoch-reconciliation path), then quiesces and — with
/// --verify — replays the workload with read-your-writes epoch floors,
/// comparing bit-for-bit against a database built from exactly the
/// acked documents. A document whose ingest failed in transport is IN
/// DOUBT (it may have landed without the ack); the verifier resolves
/// each candidate by testing which landed-subset oracle matches the
/// cluster. Self-contained: the workload is drawn from the first
/// oracle, so no corpus flags are needed.
int RunLiveDriver(const approxql::serve::CommonFlags& common, size_t target,
                  size_t query_count, const ExecOptions& exec, bool verify,
                  const std::string& acked_file) {
  auto started = approxql::serve::StartRouter(common, /*strict=*/false,
                                              /*layout=*/nullptr);
  if (!started.ok()) return Fail("router", started.status());
  const std::unique_ptr<approxql::dist::ShardRouter> router =
      std::move(started).value();
  QueryService service(*router, common.service);
  approxql::util::Rng doc_rng(common.seed * 0x9E3779B97F4A7C15ULL + 1);
  struct DocEntry {
    std::string xml;
    bool acked;
  };
  std::vector<DocEntry> docs;
  std::vector<std::string> workload;
  std::vector<uint64_t> floors(common.shards, 0);
  size_t acked_total = 0, candidates = 0, failed_rounds = 0, rounds = 0;
  std::atomic<size_t> bg_queries{0}, bg_hard_failures{0};
  std::string first_bg_failure;
  approxql::util::Mutex bg_failure_mu;
  constexpr size_t kBurst = 32;
  constexpr size_t kMaxCandidates = 6;
  const Strategy kStrategies[] = {Strategy::kSchema, Strategy::kDirect};
  auto request_for = [&](const std::string& query, Strategy strategy) {
    QueryRequest request;
    request.query_text = query;
    request.exec = exec;
    request.exec.strategy = strategy;
    return request;
  };

  while (acked_total < target) {
    ++rounds;
    // Concurrent query load during the burst (answers not compared — the
    // corpus is moving — but hard failures are: a fingerprint or
    // translation error here means the epoch machinery mistranslated).
    std::atomic<bool> bg_stop{false};
    std::thread bg([&] {
      size_t k = 0;
      while (!bg_stop.load(std::memory_order_acquire)) {
        if (workload.empty()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          continue;
        }
        const std::string& query = workload[k % workload.size()];
        const Status st =
            service.ExecuteNow(request_for(query, kStrategies[k++ % 2])).status;
        bg_queries.fetch_add(1, std::memory_order_relaxed);
        if (!st.ok() && !st.IsUnavailable() && !st.IsDeadlineExceeded() &&
            !st.IsResourceExhausted() &&
            bg_hard_failures.fetch_add(1, std::memory_order_relaxed) == 0) {
          approxql::util::MutexLock lock(&bg_failure_mu);
          first_bg_failure = st.ToString();
        }
      }
    });
    const size_t burst = std::min(kBurst, target - acked_total);
    bool gave_up = false;
    for (size_t b = 0; b < burst && !gave_up; ++b) {
      std::string xml = MakeIngestDoc(doc_rng);
      approxql::util::WallTimer doc_timer;
      int backoff_ms = 100;
      for (;;) {
        approxql::net::WireIngest op;  // an add
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
        // In doubt: never resend (a duplicate would corrupt the oracle
        // either way); record the candidate, take a fresh doc.
        docs.push_back({std::move(xml), /*acked=*/false});
        if (++candidates > kMaxCandidates ||
            doc_timer.ElapsedSeconds() > 120.0) {
          std::fprintf(stderr,
                       "driver: giving up after %zu in-doubt documents and "
                       "%.0f s on one ingest: %s\n",
                       candidates, doc_timer.ElapsedSeconds(),
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
      std::fprintf(stderr, "driver: round %zu: %zu/%zu docs acked\n", rounds,
                   acked_total, target);
      continue;
    }

    // Quiesced verification: the cluster now holds exactly the acked
    // documents plus some subset of the in-doubt candidates. Routed
    // answers (with epoch floors enforcing read-your-writes) must be
    // bit-identical to the oracle of whichever subset actually landed.
    // They are collected once and compared against each subset's oracle.
    std::vector<QueryResponse> routed;
    bool routed_ok = true;
    size_t adopted = SIZE_MAX, base_mismatches = 0;
    for (size_t mask = 0; mask < (size_t{1} << candidates); ++mask) {
      std::vector<std::string> subset;
      for (size_t d = 0, c = 0; d < docs.size(); ++d) {
        if (docs[d].acked || (mask & (size_t{1} << c++)) != 0) {
          subset.push_back(docs[d].xml);
        }
      }
      auto oracle_db = DatabaseFromXml(subset, common.seed);
      if (!oracle_db.ok()) continue;
      if (workload.empty()) {
        auto generated =
            GenerateWorkload(*oracle_db, common.seed, query_count);
        if (!generated.ok()) return Fail("gen", generated.status());
        workload = std::move(generated).value();
      }
      if (routed.empty()) {
        for (const std::string& query : workload) {
          for (Strategy strategy : kStrategies) {
            QueryRequest request = request_for(query, strategy);
            request.min_epochs = floors;
            routed.push_back(service.ExecuteNow(std::move(request)));
            if (!routed.back().status.ok() || routed.back().degraded) {
              routed_ok = false;
            }
          }
        }
      }
      ServiceOptions oracle_options = common.service;
      oracle_options.cache_capacity = 0;
      QueryService oracle(*oracle_db, oracle_options);
      size_t mismatches = 0, slot = 0;
      for (const std::string& query : workload) {
        for (Strategy strategy : kStrategies) {
          const QueryResponse expected =
              oracle.ExecuteNow(request_for(query, strategy));
          const QueryResponse& got = routed[slot++];
          if (!expected.status.ok() || !got.status.ok() ||
              !SameAnswers(expected.answers, got.answers)) {
            ++mismatches;
          }
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
      continue;
    }
    // Promote the adopted subset: landed candidates become acked
    // documents, the rest never existed.
    std::vector<DocEntry> resolved;
    for (size_t d = 0, c = 0; d < docs.size(); ++d) {
      if (docs[d].acked || (adopted & (size_t{1} << c++)) != 0) {
        resolved.push_back({std::move(docs[d].xml), /*acked=*/true});
      }
    }
    docs = std::move(resolved);
    candidates = 0;
    std::fprintf(stderr,
                 "driver: round %zu verified: %zu docs, %zu routed "
                 "query-strategy pairs bit-identical\n",
                 rounds, docs.size(), routed.size());
  }

  std::printf(
      "driver: %zu docs acked over %zu rounds, %zu concurrent queries "
      "(%zu hard failures), %zu failed verification rounds\n",
      acked_total, rounds, bg_queries.load(), bg_hard_failures.load(),
      failed_rounds);
  std::printf("--- router metrics ---\n%s", router->DumpMetrics().c_str());
  if (!acked_file.empty()) {
    std::vector<std::string> acked, indoubt;
    for (DocEntry& entry : docs) {
      (entry.acked ? acked : indoubt).push_back(std::move(entry.xml));
    }
    if (!WriteAckedFile(acked_file, acked, indoubt)) return 1;
  }
  if (bg_hard_failures.load() > 0) {
    std::fprintf(stderr, "FAILED: concurrent query hard failure: %s\n",
                 first_bg_failure.c_str());
    return 1;
  }
  return failed_rounds > 0 || acked_total < target ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  approxql::serve::CommonFlags common;
  std::string workload_path, dump_workload_path, bench_json_path;
  std::string connect_spec, acked_file, oracle_docs_path;
  size_t clients = 8, passes = 2, repeat = 1, gen_queries = 0;
  size_t deadline_ms = 0, ingest_count = 0, ingest_while_querying = 0;
  bool verify = false, expect_degraded = false, bypass_cache = false;
  ExecOptions exec;  // schema strategy, best 10
  approxql::serve::FlagReader flags(argc, argv);
  for (std::string_view arg; flags.Next(&arg);) {
    bool ok = true;
    if (common.Parse(arg, flags, &ok)) {
    } else if (arg == "--workload") {
      ok = flags.Str(&workload_path);
    } else if (arg == "--gen") {
      ok = flags.Num(&gen_queries, 1);
    } else if (arg == "--dump-workload") {
      ok = flags.Str(&dump_workload_path);
    } else if (arg == "--clients") {
      ok = flags.Num(&clients, 1, 1024);
    } else if (arg == "--passes") {
      ok = flags.Num(&passes, 1);
    } else if (arg == "--repeat") {
      ok = flags.Num(&repeat, 1);
    } else if (arg == "--n") {
      ok = flags.Num(&exec.n);
    } else if (arg == "--strategy") {
      std::string name;
      ok = flags.Str(&name) &&
           (name == "schema" || name == "direct" || name == "scan");
      exec.strategy = name == "direct" ? Strategy::kDirect
                      : name == "scan" ? Strategy::kFullScan
                                       : Strategy::kSchema;
    } else if (arg == "--deadline-ms") {
      ok = flags.Num(&deadline_ms, 0, INT32_MAX);
    } else if (arg == "--connect") {
      ok = flags.Str(&connect_spec);
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--expect-degraded") {
      expect_degraded = true;
    } else if (arg == "--bypass-cache") {
      bypass_cache = true;
    } else if (arg == "--bench-json") {
      ok = flags.Str(&bench_json_path);
    } else if (arg == "--ingest") {
      ok = flags.Num(&ingest_count, 1);
    } else if (arg == "--ingest-while-querying") {
      ok = flags.Num(&ingest_while_querying, 1);
    } else if (arg == "--acked-file") {
      ok = flags.Str(&acked_file);
    } else if (arg == "--oracle-docs") {
      ok = flags.Str(&oracle_docs_path);
    } else {
      ok = false;
    }
    if (!ok) return Usage();
  }
  if (!common.ReconcileShards()) return Usage();
  const bool live = ingest_while_querying > 0;
  if (live != common.live || live == common.router.empty()) {
    return Reject("--router, --live and --ingest-while-querying go together "
                  "(serve a static router with approxql_serve --router)");
  }
  ClientOptions client_options;
  const bool wire = !connect_spec.empty();
  if (wire && !approxql::serve::ParseEndpoint(
                  connect_spec, &client_options.host, &client_options.port)) {
    return Usage();
  }
  if (ingest_count > 0 && !wire) return Reject("--ingest needs --connect");
  if (live) {
    return RunLiveDriver(common, ingest_while_querying,
                         gen_queries > 0 ? gen_queries : 24, exec, verify,
                         acked_file);
  }

  // The in-process backend, the --gen source and the --verify oracle.
  std::unique_ptr<Database> db;
  if (!oracle_docs_path.empty()) {
    std::ifstream in(oracle_docs_path);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", oracle_docs_path.c_str());
      return 1;
    }
    std::vector<std::string> docs;
    for (std::string line; std::getline(in, line);) {
      if (!line.empty() && line[0] != '#') docs.push_back(std::move(line));
    }
    auto built = DatabaseFromXml(docs, common.seed);
    if (!built.ok()) return Fail("oracle-docs", built.status());
    db = std::make_unique<Database>(std::move(built).value());
    std::fprintf(stderr, "oracle: %zu documents from %s\n", docs.size(),
                 oracle_docs_path.c_str());
  } else if (common.has_corpus()) {
    auto built = approxql::serve::BuildDatabase(common);
    if (!built.ok()) return Fail("corpus", built.status());
    db = std::move(built).value();
  }
  if (db == nullptr && (!wire || gen_queries > 0 || verify)) {
    return Reject("an in-process replay, --gen and --verify need a corpus: "
                  "--xml, --load, --gen-data or --oracle-docs");
  }

  std::vector<std::string> workload;
  if (!workload_path.empty()) {
    auto loaded = approxql::service::LoadWorkloadFile(workload_path);
    if (!loaded.ok()) return Fail(workload_path.c_str(), loaded.status());
    workload = std::move(loaded).value();
  } else if (gen_queries > 0) {
    auto generated = GenerateWorkload(*db, common.seed, gen_queries);
    if (!generated.ok()) return Fail("gen", generated.status());
    workload = std::move(generated).value();
  } else if (ingest_count == 0) {
    return Reject("no workload: give --workload FILE or --gen N");
  }
  if (!dump_workload_path.empty()) {
    if (!WriteLines(dump_workload_path, workload)) return 1;
    std::fprintf(stderr, "wrote %zu queries to %s\n", workload.size(),
                 dump_workload_path.c_str());
  }

  if (ingest_count > 0) {
    return RunWireIngest(client_options, ingest_count, common.seed,
                         static_cast<int>(deadline_ms), exec, workload,
                         acked_file);
  }

  std::unique_ptr<QueryService> oracle;
  if (verify) {
    ServiceOptions oracle_options = common.service;
    oracle_options.cache_capacity = 0;  // always re-execute
    oracle = std::make_unique<QueryService>(*db, oracle_options);
  }
  // A degraded answer deliberately covers only the shards that
  // responded; comparing it against the full oracle would count the
  // cluster's honesty as a mismatch.
  auto judge = [&](const std::string& query, const auto& response) {
    CallOutcome outcome{Status::OK(), response.truncated, response.cache_hit,
                        response.degraded};
    if (oracle != nullptr && !response.degraded) {
      QueryRequest check;
      check.query_text = query;
      check.exec = exec;
      const QueryResponse expected = oracle->ExecuteNow(std::move(check));
      outcome.mismatch = !expected.status.ok() ||
                         !SameAnswers(expected.answers, response.answers);
    }
    return outcome;
  };
  std::unique_ptr<approxql::shard::ShardedDatabase> sharded;
  std::unique_ptr<QueryService> service;
  std::function<Caller()> make_caller;
  if (wire) {
    make_caller = [&]() -> Caller {
      auto client = std::make_shared<Client>(client_options);
      return [&, client](const std::string& query) {
        approxql::net::WireRequest request;
        request.query = query;
        request.strategy = exec.strategy;
        request.n = exec.n;
        request.deadline_ms = static_cast<int64_t>(deadline_ms);
        request.bypass_cache = bypass_cache;
        auto response = client->Call(request);
        return response.ok() ? judge(query, *response)
                             : CallOutcome{response.status()};
      };
    };
  } else {
    if (common.shards > 1) {
      auto partitioned =
          approxql::serve::PartitionDatabase(*db, common.shards);
      if (!partitioned.ok()) return Fail("shard", partitioned.status());
      sharded = std::move(partitioned).value();
      service = std::make_unique<QueryService>(*sharded, common.service);
    } else {
      service = std::make_unique<QueryService>(*db, common.service);
    }
    make_caller = [&]() -> Caller {
      return [&](const std::string& query) {
        QueryRequest request;
        request.query_text = query;
        request.exec = exec;
        request.deadline =
            std::chrono::milliseconds(static_cast<int64_t>(deadline_ms));
        request.bypass_cache = bypass_cache;
        QueryResponse response = service->Submit(std::move(request)).get();
        return response.status.ok() ? judge(query, response)
                                    : CallOutcome{response.status};
      };
    };
  }

  std::fprintf(stderr,
               "workload: %zu queries x %zu repeat x %zu passes, "
               "%zu clients%s\n",
               workload.size(), repeat, passes, clients,
               wire ? " (wire)" : "");
  size_t transport_errors = 0, mismatches = 0, degraded = 0;
  std::vector<PassResult> results;
  for (size_t pass = 1; pass <= passes; ++pass) {
    PassResult result = RunPass(workload, clients, repeat, make_caller);
    PrintPass(pass, result);
    transport_errors += result.transport_errors;
    mismatches += result.mismatches;
    degraded += result.degraded;
    results.push_back(std::move(result));
  }
  if (service != nullptr) {
    std::printf("--- service metrics ---\n%s", service->DumpMetrics().c_str());
  }
  if (!bench_json_path.empty() &&
      !WriteBenchJson(bench_json_path, wire, common.shards, clients,
                      common.service.num_threads, results)) {
    return 1;
  }
  if (transport_errors > 0 || mismatches > 0 ||
      (expect_degraded && degraded == 0)) {
    std::fprintf(stderr,
                 "FAILED: %zu transport errors, %zu answers differ from the "
                 "oracle, %zu degraded responses%s\n",
                 transport_errors, mismatches, degraded,
                 expect_degraded ? " (--expect-degraded wants some)" : "");
    return 1;
  }
  return 0;
}
