#include "serve_common.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "cluster/cluster_config.h"
#include "gen/xml_generator.h"
#include "util/random.h"

namespace approxql::serve {

int Fail(const char* what, const util::Status& status) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  return 1;
}

bool ParseNum(std::string_view text, size_t lo, size_t hi, size_t* out) {
  if (text.empty()) return false;
  size_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const size_t digit = static_cast<size_t>(c - '0');
    if (value > (SIZE_MAX - digit) / 10) return false;  // overflow
    value = value * 10 + digit;
  }
  if (value < lo || value > hi) return false;
  *out = value;
  return true;
}

bool ParseEndpoint(std::string_view text, std::string* host, uint16_t* port) {
  const size_t colon = text.rfind(':');
  size_t number = 0;
  if (colon == std::string_view::npos || colon == 0 ||
      !ParseNum(text.substr(colon + 1), 1, 65535, &number)) {
    return false;
  }
  *host = std::string(text.substr(0, colon));
  *port = static_cast<uint16_t>(number);
  return true;
}

bool FlagReader::Next(std::string_view* out) {
  if (i_ + 1 >= argc_) return false;
  *out = argv_[++i_];
  return true;
}

bool FlagReader::Str(std::string* out) {
  std::string_view value;
  if (!Next(&value)) return false;
  *out = std::string(value);
  return true;
}

bool FlagReader::Num(size_t* out, size_t lo, size_t hi) {
  std::string_view value;
  return Next(&value) && ParseNum(value, lo, hi, out);
}

const char kCommonFlagsUsage[] =
    "  --xml FILE       build the corpus from FILE (repeatable)\n"
    "  --load DB        load a saved database\n"
    "  --gen-data N     build a synthetic collection of ~N elements\n"
    "  --seed N         generator and cost-model seed (default 42)\n"
    "  --shards N       partition into N shards, or the cluster's shard\n"
    "                   count (default 1; --router: one per endpoint)\n"
    "  --router H:P,... remote shard servers, one per shard in index order\n"
    "  --live           (--router) the shards are mutable cluster shard\n"
    "                   servers: the router syncs epoch-tagged manifest\n"
    "                   slices, and Ingest assigns cluster-global ids\n"
    "  --threads N      service worker threads, 0 = one per core "
    "(default 8)\n"
    "  --queue N        admission queue capacity (default 128)\n"
    "  --cache N        result-cache entries, 0 = off (default 256)\n";

bool CommonFlags::Parse(std::string_view arg, FlagReader& flags, bool* ok) {
  if (arg == "--xml") {
    xml_paths.emplace_back();
    *ok = flags.Str(&xml_paths.back());
  } else if (arg == "--load") {
    *ok = flags.Str(&load_path);
  } else if (arg == "--gen-data") {
    *ok = flags.Num(&gen_data, 1);
  } else if (arg == "--seed") {
    *ok = flags.Num(&seed);
  } else if (arg == "--shards") {
    *ok = flags.Num(&shards, 1, 4096);
  } else if (arg == "--router") {
    // Comma-separated, no empty items.
    std::string spec;
    *ok = flags.Str(&spec);
    for (size_t start = 0; *ok && start <= spec.size();) {
      const size_t comma = std::min(spec.find(',', start), spec.size());
      auto& endpoint = router.emplace_back();
      *ok = ParseEndpoint(std::string_view(spec).substr(start, comma - start),
                          &endpoint.host, &endpoint.port);
      start = comma + 1;
    }
  } else if (arg == "--live") {
    live = true;
  } else if (arg == "--threads") {
    *ok = flags.Num(&service.num_threads, 0, 1024);
  } else if (arg == "--queue") {
    *ok = flags.Num(&service.queue_capacity);
  } else if (arg == "--cache") {
    *ok = flags.Num(&service.cache_capacity);
  } else {
    return false;
  }
  return true;
}

bool CommonFlags::ReconcileShards() {
  if (router.empty()) return true;
  if (shards == 1) shards = router.size();
  if (shards == router.size()) return true;
  std::fprintf(stderr, "--router lists %zu endpoints but --shards is %zu\n",
               router.size(), shards);
  return false;
}

cost::CostModel SeededDeleteCosts(size_t seed, size_t names,
                                  size_t vocabulary) {
  cost::CostModel model;
  util::Rng rng(seed ^ 0x9E3779B97F4A7C15ULL);
  auto draw = [&](NodeType type, const std::string& prefix, size_t count) {
    for (size_t i = 0; i < count; ++i) {
      model.SetDeleteCost(type, prefix + std::to_string(i),
                          static_cast<cost::Cost>(rng.UniformInt(2, 10)));
    }
  };
  draw(NodeType::kStruct, "elem", names);
  draw(NodeType::kText, "term", vocabulary);
  return model;
}

namespace {

util::Result<engine::Database> Build(const CommonFlags& flags) {
  if (!flags.load_path.empty()) return engine::Database::Load(flags.load_path);
  if (!flags.xml_paths.empty()) {
    return engine::Database::BuildFromFiles(flags.xml_paths,
                                            cost::CostModel());
  }
  gen::XmlGenOptions options;
  options.seed = flags.seed;
  options.total_elements = flags.gen_data;
  options.vocabulary = std::max<size_t>(1000, flags.gen_data / 10);
  const cost::CostModel model = SeededDeleteCosts(
      flags.seed, options.element_names, options.vocabulary);
  ASSIGN_OR_RETURN(doc::DataTree tree,
                   gen::XmlGenerator(options).GenerateTree(model));
  return engine::Database::FromDataTree(std::move(tree), model);
}

}  // namespace

util::Result<std::unique_ptr<engine::Database>> BuildDatabase(
    const CommonFlags& flags) {
  ASSIGN_OR_RETURN(engine::Database built, Build(flags));
  auto db = std::make_unique<engine::Database>(std::move(built));
  const auto stats = db->GetStats();
  std::fprintf(stderr, "database: %zu nodes, %zu labels, schema %zu\n",
               stats.nodes, stats.distinct_labels, stats.schema_nodes);
  return db;
}

util::Result<std::unique_ptr<shard::ShardedDatabase>> PartitionDatabase(
    const engine::Database& db, size_t shards) {
  ASSIGN_OR_RETURN(
      shard::ShardedDatabase partitioned,
      shard::ShardedDatabase::Partition(db.tree(), db.cost_model(), shards));
  auto sharded =
      std::make_unique<shard::ShardedDatabase>(std::move(partitioned));
  const auto stats = sharded->GetStats();
  std::fprintf(stderr,
               "sharded: %zu shards, %zu documents "
               "(layout fingerprint %08x)\n",
               stats.num_shards, stats.documents,
               sharded->LayoutFingerprint());
  return sharded;
}

util::Result<std::unique_ptr<dist::ShardRouter>> StartRouter(
    const CommonFlags& flags, bool strict,
    const shard::LayoutManifest* layout) {
  dist::RouterOptions options;
  options.shards = flags.router;
  options.strict = strict;
  std::unique_ptr<dist::ShardRouter> router;
  if (layout != nullptr) {
    router = std::make_unique<dist::ShardRouter>(*layout, std::move(options));
  } else {
    // Model and shard count derive from --seed/--shards exactly as on
    // each mutable shard server, so the cluster fingerprint matches.
    cluster::ClusterConfig config;
    config.model = IngestCostModel(flags.seed);
    config.num_shards = flags.shards;
    router = std::make_unique<dist::ShardRouter>(config, std::move(options));
  }
  RETURN_IF_ERROR(router->Start());
  std::fprintf(stderr, "router: %zu remote shard endpoint%s%s%s\n",
               router->num_shards(), router->num_shards() == 1 ? "" : "s",
               layout == nullptr ? " (live cluster)" : "",
               strict ? " (strict)" : "");
  return router;
}

}  // namespace approxql::serve
