// The query server: serves one corpus over TCP (net::Server, binary
// wire protocol) until SIGTERM/SIGINT, which trigger a graceful drain —
// stop accepting, finish in-flight requests, flush, exit with the
// metrics dump. It serves a single or sharded database, one shard of a
// partition, a router over shard servers, or a mutable live-ingest
// corpus (see Usage). Its client is approxql_load (replay, ingest,
// verify).
#include <csignal>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "cluster/cluster_config.h"
#include "ingest/mutable_corpus.h"
#include "net/server.h"
#include "serve_common.h"

using approxql::engine::Database;
using approxql::ingest::MutableCorpus;
using approxql::net::Server;
using approxql::net::ServerOptions;
using approxql::serve::Fail;
using approxql::service::QueryService;
using approxql::shard::LayoutManifest;
using approxql::shard::ShardedDatabase;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: approxql_serve CORPUS --listen PORT [options]\n"
      "       approxql_serve CORPUS --shards N --shard-server I --listen PORT\n"
      "       approxql_serve (CORPUS | --manifest F | --live)\n"
      "                      --router H:P,... --listen PORT\n"
      "       approxql_serve --mutable --data-dir D --listen PORT [options]\n"
      "       approxql_serve CORPUS --shards N --save-manifest F\n"
      "  CORPUS is --xml FILE..., --load DB or --gen-data N [--seed S]\n"
      "  --listen PORT    serve until SIGTERM (graceful drain)\n"
      "  --shard-server I serve only shard I of the --shards N partition\n"
      "                   (answers kShardQuery/kPing); with --mutable the\n"
      "                   corpus is one live cluster shard (single internal\n"
      "                   shard, cluster fingerprint from --seed/--shards,\n"
      "                   serves manifest slices + delta subscriptions)\n"
      "  --strict         (--router) any unreachable shard fails the query\n"
      "                   instead of degrading the answer\n"
      "  --manifest F     (--router) take the layout from a manifest file;\n"
      "                   the router host then needs no corpus at all\n"
      "  --save-manifest F  write the partition's layout manifest (spans,\n"
      "                   fingerprint, cost model — no trees or postings)\n"
      "                   to F; without --listen that is the whole run\n"
      "  --mutable        serve a live-ingest corpus from --data-dir\n"
      "                   (recovering it if it exists): answers kIngest,\n"
      "                   acks only after WAL fsync + visibility\n"
      "  --data-dir D     directory of the mutable corpus\n"
      "%s",
      approxql::serve::kCommonFlagsUsage);
  return 2;
}

int Reject(const char* why) {
  std::fprintf(stderr, "%s\n", why);
  return Usage();
}

Server* g_server = nullptr;

void HandleDrainSignal(int) {
  // Async-signal-safe: RequestDrain is an atomic store + eventfd write.
  if (g_server != nullptr) g_server->RequestDrain();
}

}  // namespace

int main(int argc, char** argv) {
  approxql::serve::CommonFlags common;
  std::string manifest_path, save_manifest_path, data_dir;
  size_t shard_server = SIZE_MAX;  // SIZE_MAX = not a shard server
  size_t listen_port = 0;
  bool listening = false, mutable_mode = false, strict = false;
  approxql::serve::FlagReader flags(argc, argv);
  for (std::string_view arg; flags.Next(&arg);) {
    bool ok = true;
    if (common.Parse(arg, flags, &ok)) {
    } else if (arg == "--listen") {
      ok = flags.Num(&listen_port, 0, 65535);
      listening = true;
    } else if (arg == "--shard-server") {
      ok = flags.Num(&shard_server, 0, SIZE_MAX - 1);
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "--manifest") {
      ok = flags.Str(&manifest_path);
    } else if (arg == "--save-manifest") {
      ok = flags.Str(&save_manifest_path);
    } else if (arg == "--mutable") {
      mutable_mode = true;
    } else if (arg == "--data-dir") {
      ok = flags.Str(&data_dir);
    } else {
      ok = false;
    }
    if (!ok) return Usage();
  }
  if (!common.ReconcileShards()) return Usage();
  const bool router_mode = !common.router.empty();
  const bool shard_server_mode = shard_server != SIZE_MAX;
  // Every role but a mutable corpus and a router without a static
  // layout serves (or partitions) the corpus the flags describe.
  const bool needs_corpus =
      !mutable_mode && !common.live && manifest_path.empty();
  // Replays, ingest drivers and workloads are approxql_load's.
  if (!listening && save_manifest_path.empty()) return Reject("no --listen");
  if (needs_corpus && !common.has_corpus()) return Reject("no corpus");
  if (shard_server_mode && (router_mode || shard_server >= common.shards)) {
    return Reject("--shard-server I needs --shards N > I and no --router");
  }
  if ((common.live || !manifest_path.empty()) && !router_mode) {
    return Reject("--live and --manifest describe a --router");
  }
  if (common.live && !manifest_path.empty()) {
    return Reject("--live syncs its layout; --manifest would pin one");
  }
  if (mutable_mode && (router_mode || data_dir.empty())) {
    return Reject("--mutable needs --data-dir and no --router");
  }
  if (!save_manifest_path.empty() && !needs_corpus) {
    return Reject("--save-manifest needs a corpus to partition");
  }

  std::unique_ptr<Database> db;
  std::unique_ptr<ShardedDatabase> sharded;
  if (needs_corpus) {
    auto built = approxql::serve::BuildDatabase(common);
    if (!built.ok()) return Fail("corpus", built.status());
    db = std::move(built).value();
  }
  if (db != nullptr && (common.shards > 1 || shard_server_mode ||
                        router_mode || !save_manifest_path.empty())) {
    auto partitioned = approxql::serve::PartitionDatabase(*db, common.shards);
    if (!partitioned.ok()) return Fail("shard", partitioned.status());
    sharded = std::move(partitioned).value();
  }
  if (!save_manifest_path.empty()) {
    auto saved = sharded->layout().SaveTo(save_manifest_path);
    if (!saved.ok()) return Fail("save-manifest", saved);
    std::fprintf(stderr, "wrote layout manifest (%zu shards) to %s\n",
                 sharded->num_shards(), save_manifest_path.c_str());
    if (!listening) return 0;
  }

  // A static router's layout: a manifest file, or the partition it just
  // built from the same corpus flags as its shard servers.
  std::optional<LayoutManifest> layout;
  if (!manifest_path.empty()) {
    auto loaded = LayoutManifest::LoadFrom(manifest_path);
    if (!loaded.ok()) return Fail("manifest", loaded.status());
    layout = std::move(loaded).value();
    std::fprintf(stderr,
                 "manifest: %zu shards (layout fingerprint %08x) from %s\n",
                 layout->num_shards(), layout->fingerprint(),
                 manifest_path.c_str());
  } else if (router_mode && !common.live) {
    layout = sharded->layout();
  }
  // Declared before the service and server that query it, so it outlives
  // them.
  std::unique_ptr<approxql::dist::ShardRouter> router;
  if (router_mode) {
    auto started = approxql::serve::StartRouter(
        common, strict, layout ? &*layout : nullptr);
    if (!started.ok()) return Fail("router", started.status());
    router = std::move(started).value();
  }
  // Declared before service/server so it outlives them (destruction
  // runs a final checkpoint).
  std::unique_ptr<MutableCorpus> corpus;
  if (mutable_mode) {
    MutableCorpus::Options corpus_options;
    corpus_options.data_dir = data_dir;
    // A cluster shard server IS one shard: its corpus has exactly one
    // internal shard and --shards describes the cluster, not the corpus
    // (the router owns placement across servers).
    corpus_options.num_shards = shard_server_mode ? 1 : common.shards;
    corpus_options.model = approxql::serve::IngestCostModel(common.seed);
    const size_t corpus_shards = corpus_options.num_shards;
    MutableCorpus::OpenStats open_stats;
    auto opened =
        MutableCorpus::Open(std::move(corpus_options), nullptr, &open_stats);
    if (!opened.ok()) return Fail("mutable corpus", opened.status());
    corpus = std::move(opened).value();
    std::fprintf(stderr,
                 "mutable corpus: recovered %zu documents "
                 "(%zu wal records replayed%s), epoch %llu, "
                 "%zu shard%s, dir %s\n",
                 open_stats.recovered_documents, open_stats.replayed_records,
                 open_stats.any_tail_truncated ? ", torn tail dropped" : "",
                 static_cast<unsigned long long>(corpus->epoch()),
                 corpus_shards, corpus_shards == 1 ? "" : "s",
                 data_dir.c_str());
  }

  // The one backend choice: the mutable corpus, one shard of the
  // partition, the router, the partition, or the single database.
  std::unique_ptr<QueryService> service;
  if (corpus != nullptr) {
    service = std::make_unique<QueryService>(*corpus, common.service);
  } else if (router != nullptr) {
    service = std::make_unique<QueryService>(*router, common.service);
  } else if (shard_server_mode) {
    service = std::make_unique<QueryService>(sharded->shard(shard_server),
                                             common.service);
  } else if (sharded != nullptr) {
    service = std::make_unique<QueryService>(*sharded, common.service);
  } else {
    service = std::make_unique<QueryService>(*db, common.service);
  }
  ServerOptions server_options;
  server_options.port = static_cast<uint16_t>(listen_port);
  if (shard_server_mode) {
    // This process fronts exactly one shard: kShardQuery/kPing answers
    // carry the shard index and a fingerprint. A static shard stamps the
    // partition's layout fingerprint; a live-mutating cluster shard
    // stamps the static cluster fingerprint (its corpus's own
    // fingerprint moves with every mutation — the epoch, not the stamp,
    // pins the layout; DESIGN.md §14).
    server_options.shard.enabled = true;
    server_options.shard.fingerprint =
        mutable_mode ? approxql::cluster::ClusterFingerprint(
                           approxql::serve::IngestCostModel(common.seed),
                           common.shards)
                     : sharded->LayoutFingerprint();
    server_options.shard.shard_index = static_cast<uint32_t>(shard_server);
  }
  // Answer roots resolve through the service's backend.
  auto server =
      corpus != nullptr
          ? std::make_unique<Server>(*service, *corpus, server_options)
          : std::make_unique<Server>(*service, server_options);
  const auto started = server->Start();
  if (!started.ok()) return Fail("listen", started);
  g_server = server.get();
  std::signal(SIGTERM, HandleDrainSignal);
  std::signal(SIGINT, HandleDrainSignal);
  if (shard_server_mode) {
    std::fprintf(stderr, "shard server %zu/%zu (%s fingerprint %08x)\n",
                 shard_server, common.shards,
                 mutable_mode ? "cluster" : "layout",
                 server_options.shard.fingerprint);
  }
  std::fprintf(stderr,
               "listening on %s:%u (%zu workers, queue %zu, %zu shard%s%s) "
               "— SIGTERM drains\n",
               server_options.bind_address.c_str(), server->port(),
               common.service.num_threads, common.service.queue_capacity,
               common.shards, common.shards == 1 ? "" : "s",
               router != nullptr   ? ", remote"
               : corpus != nullptr ? ", mutable"
                                   : "");
  server->Wait();  // returns when a drain signal quiesces the loop
  g_server = nullptr;
  std::printf("--- server metrics ---\n%s", server->DumpMetrics().c_str());
  server->Shutdown(/*drain=*/true);
  return 0;
}
