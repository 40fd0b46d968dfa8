#include "shard/sharded_database.h"

#include <algorithm>
#include <chrono>

#include "engine/list_ops.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace approxql::shard {

using util::Result;
using util::Status;

namespace {

uint64_t ElapsedUs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

ShardedDatabase::Builder::Builder(size_t num_shards)
    : builders_(std::max<size_t>(1, num_shards)), spans_(builders_.size()) {}

Status ShardedDatabase::Builder::AddDocumentXml(std::string_view xml) {
  size_t shard = next_doc_ % builders_.size();
  doc::DataTreeBuilder& builder = builders_[shard];
  DocSpan span;
  span.local_start = static_cast<doc::NodeId>(builder.node_count());
  span.global_start = next_global_;
  RETURN_IF_ERROR(builder.AddDocumentXml(xml));
  span.length =
      static_cast<uint32_t>(builder.node_count() - span.local_start);
  next_global_ += span.length;
  spans_[shard].push_back(span);
  ++next_doc_;
  return Status::OK();
}

Result<ShardedDatabase> ShardedDatabase::Builder::Build(
    cost::CostModel model) && {
  std::vector<engine::Database> databases;
  databases.reserve(builders_.size());
  for (doc::DataTreeBuilder& builder : builders_) {
    ASSIGN_OR_RETURN(doc::DataTree tree, std::move(builder).Build(model));
    ASSIGN_OR_RETURN(engine::Database db,
                     engine::Database::FromDataTree(std::move(tree), model));
    databases.push_back(std::move(db));
  }
  return Assemble(std::move(databases), std::move(spans_), std::move(model));
}

Result<ShardedDatabase> ShardedDatabase::Partition(
    const doc::DataTree& tree, const cost::CostModel& model,
    size_t num_shards) {
  size_t n = std::max<size_t>(1, num_shards);
  std::vector<doc::DataTreeBuilder> builders(n);
  std::vector<std::vector<DocSpan>> spans(n);
  size_t doc_index = 0;
  for (doc::NodeId d = tree.FirstChild(tree.root()); d != doc::kInvalidNode;
       d = tree.NextSibling(d)) {
    size_t shard = doc_index % n;
    doc::DataTreeBuilder& builder = builders[shard];
    DocSpan span;
    span.local_start = static_cast<doc::NodeId>(builder.node_count());
    span.global_start = d;
    span.length = tree.node(d).bound - d + 1;
    builder.AppendSubtree(tree, d);
    spans[shard].push_back(span);
    ++doc_index;
  }
  std::vector<engine::Database> databases;
  databases.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    ASSIGN_OR_RETURN(doc::DataTree shard_tree,
                     std::move(builders[s]).Build(model));
    ASSIGN_OR_RETURN(
        engine::Database db,
        engine::Database::FromDataTree(std::move(shard_tree), model));
    databases.push_back(std::move(db));
  }
  return Assemble(std::move(databases), std::move(spans), model);
}

Result<ShardedDatabase> ShardedDatabase::BuildFromXml(
    const std::vector<std::string>& documents, cost::CostModel model,
    size_t num_shards) {
  Builder builder(num_shards);
  for (const std::string& document : documents) {
    RETURN_IF_ERROR(builder.AddDocumentXml(document));
  }
  return std::move(builder).Build(std::move(model));
}

Result<ShardedDatabase> ShardedDatabase::Load(const std::string& path,
                                              size_t num_shards) {
  ASSIGN_OR_RETURN(engine::Database db, engine::Database::Load(path));
  return Partition(db.tree(), db.cost_model(), num_shards);
}

Result<ShardedDatabase> ShardedDatabase::Assemble(
    std::vector<engine::Database> databases,
    std::vector<std::vector<DocSpan>> spans, cost::CostModel model) {
  std::vector<std::shared_ptr<Shard>> shards;
  shards.reserve(databases.size());
  for (engine::Database& db : databases) {
    shards.push_back(std::make_shared<Shard>(std::move(db)));
  }
  return AssembleFromShards(std::move(shards), std::move(spans),
                            std::move(model),
                            std::make_shared<service::MetricsRegistry>(),
                            /*epoch=*/0);
}

Result<ShardedDatabase> ShardedDatabase::AssembleFromShards(
    std::vector<std::shared_ptr<Shard>> shards,
    std::vector<std::vector<DocSpan>> spans, cost::CostModel model,
    std::shared_ptr<service::MetricsRegistry> metrics, uint64_t epoch) {
  ShardedDatabase sdb;
  sdb.metrics_ = std::move(metrics);
  sdb.epoch_ = epoch;
  sdb.shards_ = std::move(shards);
  std::string layout = "backend=sharded-mem;shards=" +
                       std::to_string(sdb.shards_.size()) + ";";
  for (size_t i = 0; i < sdb.shards_.size(); ++i) {
    Shard& shard = *sdb.shards_[i];
    // Shards shared with a previous corpus generation already carry
    // their handles (and may be serving queries right now — don't touch
    // them); only freshly built shards register. A shard's index never
    // changes across generations, so the stem is stable.
    if (shard.eval_us == nullptr) {
      const std::string stem = "shard" + std::to_string(i);
      shard.eval_us = sdb.metrics_->RegisterHistogram(stem + "_eval_us");
      shard.answers = sdb.metrics_->RegisterCounter(stem + "_answers");
    }
    layout += "s" + std::to_string(i) +
              ":docs=" + std::to_string(spans[i].size()) +
              ",nodes=" + std::to_string(shard.db.tree().size()) + ";";
  }
  if (epoch != 0) layout += "epoch=" + std::to_string(epoch) + ";";
  sdb.layout_ =
      LayoutManifest(util::Crc32c(layout), std::move(model), std::move(spans));
  return sdb;
}

doc::NodeId ShardedDatabase::ToGlobal(size_t shard, doc::NodeId local) const {
  std::optional<doc::NodeId> global = layout_.ToGlobal(shard, local);
  APPROXQL_CHECK(global.has_value())
      << "shard " << shard << " node " << local << " outside every span";
  return *global;
}

std::string ShardedDatabase::MaterializeXml(doc::NodeId global_root,
                                            bool pretty) const {
  if (global_root == 0) {
    xml::WriteOptions options;
    options.pretty = pretty;
    xml::XmlElement root;
    root.name = std::string(doc::kSuperRootLabel);
    root.children.reserve(layout_.documents().size());
    for (const LayoutManifest::GlobalDoc& d : layout_.documents()) {
      root.children.push_back(std::make_unique<xml::XmlElement>(
          shards_[d.shard]->db.tree().ToXml(d.local_start)));
    }
    return xml::WriteXml(root, options);
  }
  uint32_t shard = 0;
  doc::NodeId local = 0;
  APPROXQL_CHECK(layout_.ToLocal(global_root, &shard, &local))
      << "node " << global_root << " outside every document";
  return shards_[shard]->db.MaterializeXml(local, pretty);
}

Result<std::vector<engine::QueryAnswer>> ShardedDatabase::Execute(
    std::string_view query_text, const engine::ExecOptions& options,
    const ScatterOptions& scatter, ScatterStats* stats_out) const {
  ASSIGN_OR_RETURN(query::Query query, query::Parse(query_text));
  return Execute(query, options, scatter, stats_out);
}

Result<std::vector<engine::QueryAnswer>> ShardedDatabase::Execute(
    const query::Query& query, const engine::ExecOptions& options,
    const ScatterOptions& scatter, ScatterStats* stats_out) const {
  const size_t n_shards = shards_.size();
  ScatterStats stats;
  stats.shards.resize(n_shards);
  // The shared inclusive skeleton-cost bound (schema strategy): the
  // cheapest boundary any shard evaluated so far has published. A shard
  // that accumulates n results at crossing cost c proves the global n-th
  // answer costs <= c, so skeletons costing strictly more are globally
  // useless in every later shard.
  const bool use_bound =
      scatter.share_cost_bound &&
      engine::SharesCostBound(options.strategy, n_shards, options.n);
  // Cancelled and completed runs report the bound and the per-shard work
  // done so far. A partial scatter is not a correct prefix of the global
  // ranking, so a cancellation fails the whole request.
  auto finish = [&] {
    if (stats_out != nullptr) *stats_out = stats;
  };
  auto cancel = [&] {
    stats.cancelled = true;
    finish();
    return Status::DeadlineExceeded(
        "query cancelled before all shards completed");
  };

  std::vector<std::vector<engine::RootCost>> lists(n_shards);
  for (size_t i = 0; i < n_shards; ++i) {
    if (scatter.cancelled && scatter.cancelled()) return cancel();
    const Shard& sh = *shards_[i];
    engine::SchemaEvalStats schema_stats;
    engine::EvalStats direct_stats;
    engine::ExecOptions local = options;
    local.schema_stats_out = &schema_stats;
    local.direct_stats_out = &direct_stats;
    if (local.strategy == engine::Strategy::kSchema) {
      if (scatter.cancelled) {
        auto inner = local.schema.cancelled;
        auto outer = scatter.cancelled;
        local.schema.cancelled = [inner, outer] {
          return (inner && inner()) || outer();
        };
      }
      if (use_bound) {
        cost::Cost* bound = &stats.final_bound;
        local.schema.cost_bound = [bound] { return *bound; };
        local.schema.publish_bound = [bound](cost::Cost c) {
          *bound = std::min(*bound, c);
        };
      }
    }

    auto eval_started = std::chrono::steady_clock::now();
    auto result = sh.db.Execute(query, local);
    const uint64_t eval_us = ElapsedUs(eval_started);
    sh.eval_us->Record(eval_us);
    if (!result.ok()) return result.status();
    std::vector<engine::RootCost>& list = lists[i];
    list.reserve(result->size());
    for (const engine::QueryAnswer& answer : *result) {
      // Local -> global translation is strictly increasing (docs are
      // appended to a shard in increasing global order), so the list
      // stays sorted by (cost, root) — MergeTopN's precondition.
      list.push_back({ToGlobal(i, answer.root), answer.cost});
    }
    sh.answers->Increment(list.size());

    stats.shards[i] = {list.size(), eval_us};
    stats.schema.rounds += schema_stats.rounds;
    stats.schema.final_k += schema_stats.final_k;
    stats.schema.entries_created += schema_stats.entries_created;
    stats.schema.second_level_executed += schema_stats.second_level_executed;
    stats.schema.instances_scanned += schema_stats.instances_scanned;
    stats.schema.k_capped = stats.schema.k_capped || schema_stats.k_capped;
    stats.schema.cancelled = stats.schema.cancelled || schema_stats.cancelled;
    stats.direct.fetches += direct_stats.fetches;
    stats.direct.entries_fetched += direct_stats.entries_fetched;
    stats.direct.list_ops += direct_stats.list_ops;
    stats.direct.cache_hits += direct_stats.cache_hits;
    stats.direct.cache_misses += direct_stats.cache_misses;
    stats.direct.and_short_circuits += direct_stats.and_short_circuits;
    // A mid-shard cancellation leaves this shard short. With one shard
    // the partial list is still the correct prefix of the global ranking
    // (same contract as engine::Database).
    if (schema_stats.cancelled) {
      if (n_shards > 1) return cancel();
      stats.cancelled = true;
    }
  }
  finish();

  std::vector<engine::RootCost> merged = engine::MergeTopN(lists, options.n);
  std::vector<engine::QueryAnswer> answers;
  answers.reserve(merged.size());
  for (const engine::RootCost& rc : merged) {
    answers.push_back({rc.root, rc.cost});
  }
  return answers;
}

service::BackendPin ShardedDatabase::Pin() const {
  return {layout_.fingerprint(), epoch_, nullptr};
}

service::QueryResponse ShardedDatabase::Execute(
    const service::BackendPin& pin, const query::Query& query,
    const service::QueryRequest&, const engine::ExecOptions& exec,
    std::optional<Clock::time_point> deadline) const {
  ScatterOptions scatter;
  if (deadline.has_value()) {
    scatter.cancelled = [at = *deadline] { return Clock::now() >= at; };
  }
  ScatterStats stats;
  auto answers = Execute(query, exec, scatter, &stats);
  // The service reads the cancelled/k_capped flags through these slots.
  if (exec.schema_stats_out != nullptr) *exec.schema_stats_out = stats.schema;
  if (exec.direct_stats_out != nullptr) *exec.direct_stats_out = stats.direct;
  service::QueryResponse r;
  if (answers.ok()) {
    r.answers = std::move(*answers);
  } else {
    r.status = answers.status();
  }
  r.backend_epoch = pin.epoch;
  r.backend_snapshot = pin.snapshot;
  return r;
}

ShardedDatabase::Stats ShardedDatabase::GetStats() const {
  Stats stats;
  stats.num_shards = shards_.size();
  stats.documents = layout_.documents().size();
  stats.nodes = 1;  // the global super-root
  for (const LayoutManifest::GlobalDoc& d : layout_.documents()) {
    stats.nodes += d.length;
  }
  stats.per_shard.reserve(shards_.size());
  for (const auto& shard : shards_) {
    stats.per_shard.push_back(shard->db.GetStats());
  }
  return stats;
}

std::string ShardedDatabase::DumpMetrics() const {
  return metrics_->DumpText();
}

}  // namespace approxql::shard
