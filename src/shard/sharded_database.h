// Sharded corpus: N engine::Databases plus one LayoutManifest. The
// collection is partitioned by document into N self-contained shards,
// each owning its own data tree, label index, schema and statistics (an
// engine::Database); the manifest is the one table mapping shard-local
// ids to global ids. A scatter-gather executor runs one query on each
// shard in turn, on the calling thread — each shard's evaluation is the
// plain engine::Database::Execute — and merges the per-shard top-n lists
// with MergeTopN (DESIGN.md §7: cores go to concurrent requests, not to
// one request's shards).
//
// Equivalence (the subsystem's contract, asserted by tests at 1/2/4/8
// shards): sharded evaluation is bit-identical to evaluating the same
// corpus in one engine::Database.
//   - Every answer root except the super-root lies inside exactly one
//     document subtree, and its cost is computed entirely from that
//     subtree (the list algebra only looks below the root; pathcost
//     arithmetic is relative). The super-root itself can never be an
//     answer — its label "<root>" contains '<', which no query label or
//     renaming target can.
//   - Documents are assigned round-robin (doc j -> shard j % N) in
//     arrival order, so shard-local preorder is a strictly increasing
//     function of global preorder; per-shard (cost, root) rankings stay
//     sorted after translating roots back to global ids.
//   - Roots across shards are disjoint, so MergeTopN's duplicate-root
//     rule never fires and the merged list is exactly the single-shard
//     ranking truncated to n.
//   - The shared cost bound (schema strategy) prunes only skeletons
//     whose cost is strictly above a boundary published by a shard
//     evaluated earlier, which is itself >= the global n-th answer cost
//     — pruning never removes a global top-n answer and cannot reorder
//     ties.
#ifndef APPROXQL_SHARD_SHARDED_DATABASE_H_
#define APPROXQL_SHARD_SHARDED_DATABASE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/database.h"
#include "service/backend.h"
#include "service/metrics.h"
#include "shard/layout_manifest.h"

namespace approxql::ingest {
class MutableCorpus;
}  // namespace approxql::ingest

namespace approxql::shard {

/// Scatter-gather execution knobs (how, not what — the query-level
/// options stay in engine::ExecOptions).
struct ScatterOptions {
  /// Cooperative cancellation, polled before each shard and inside each
  /// shard's schema evaluation.
  std::function<bool()> cancelled;
  /// Propagate the best known n-th answer cost across shards as an
  /// inclusive skeleton-cost bound (schema strategy only). Sound and
  /// bit-identity-preserving (see the equivalence notes above); off only
  /// for A/B measurement.
  bool share_cost_bound = true;
};

/// Per-execution observability for benchmarks and tests.
struct ScatterStats {
  struct PerShard {
    size_t answers = 0;
    uint64_t eval_us = 0;
  };
  std::vector<PerShard> shards;
  /// Field-wise sums over shards (flags OR-ed).
  engine::SchemaEvalStats schema;
  engine::EvalStats direct;
  /// Final value of the shared cost bound (kInfinite if never set).
  cost::Cost final_bound = cost::kInfinite;
  bool cancelled = false;
};

/// A document-partitioned corpus exposing the same read surface as
/// engine::Database (Execute / MaterializeXml / GetStats / Save-less).
/// Thread-safety mirrors Database: immutable after construction; all
/// const members safe concurrently (only the metrics lock internally).
/// As a service::Backend it evaluates the shards one after another on
/// the service worker running the request; its pin fingerprint is the
/// layout fingerprint, so cached answers never alias across backends or
/// shard layouts.
class ShardedDatabase : public service::Backend {
 public:
  ShardedDatabase(ShardedDatabase&&) = default;
  ShardedDatabase& operator=(ShardedDatabase&&) = default;

  /// Incremental construction: documents are assigned to shards
  /// round-robin in the order they are added, and global ids are
  /// assigned exactly as DataTreeBuilder would in one tree.
  class Builder {
   public:
    explicit Builder(size_t num_shards);

    /// Parses `xml` and adds it as the next document.
    util::Status AddDocumentXml(std::string_view xml);

    size_t document_count() const { return next_doc_; }

    /// Finalizes every shard. The builder is consumed.
    util::Result<ShardedDatabase> Build(cost::CostModel model) &&;

   private:
    std::vector<doc::DataTreeBuilder> builders_;
    std::vector<std::vector<DocSpan>> spans_;
    size_t next_doc_ = 0;
    doc::NodeId next_global_ = 1;  // 0 is the super-root
  };

  /// Partitions an existing (unpartitioned) data tree: each document
  /// subtree is replayed into its shard's builder, so global ids are the
  /// ids of `tree` itself.
  static util::Result<ShardedDatabase> Partition(
      const doc::DataTree& tree, const cost::CostModel& model,
      size_t num_shards);

  /// Builds from XML document strings (round-robin assignment).
  static util::Result<ShardedDatabase> BuildFromXml(
      const std::vector<std::string>& documents, cost::CostModel model,
      size_t num_shards);

  /// Loads a single-file database (engine::Database::Save format) and
  /// partitions it.
  static util::Result<ShardedDatabase> Load(const std::string& path,
                                            size_t num_shards);

  /// Scatter-gather execution: runs `shard(i).Execute(query, ...)` on
  /// every shard (schema strategy with the shared cost bound) and merges
  /// the per-shard rankings.
  /// Answer roots are global ids. Shards run one after another on the
  /// calling thread; a shard publishes its bound for the shards after
  /// it. `scatter.cancelled` firing before a shard returns
  /// DeadlineExceeded, as does a mid-shard cancellation with a
  /// multi-shard layout — a partial scatter is not a correct prefix of
  /// the global ranking; with one shard a mid-shard cancellation returns
  /// the partial (still correct) prefix, matching Database deadline
  /// semantics.
  util::Result<std::vector<engine::QueryAnswer>> Execute(
      std::string_view query_text, const engine::ExecOptions& options,
      const ScatterOptions& scatter, ScatterStats* stats_out = nullptr) const;
  util::Result<std::vector<engine::QueryAnswer>> Execute(
      const query::Query& query, const engine::ExecOptions& options,
      const ScatterOptions& scatter, ScatterStats* stats_out = nullptr) const;

  // service::Backend.
  service::BackendPin Pin() const override;
  service::QueryResponse Execute(const service::BackendPin& pin,
                                 const query::Query& query,
                                 const service::QueryRequest& request,
                                 const engine::ExecOptions& exec,
                                 std::optional<Clock::time_point> deadline)
      const override;

  /// The result subtree of an answer (global id), serialized as XML.
  /// The super-root (id 0) reassembles all documents in global order,
  /// matching Database::MaterializeXml(0) on the unpartitioned corpus.
  std::string MaterializeXml(doc::NodeId global_root,
                             bool pretty = false) const;

  /// The corpus layout: per-shard spans, fingerprint, cost model. The
  /// id translations below forward to it.
  const LayoutManifest& layout() const { return layout_; }

  /// Global id of the document root containing `global` (0 for the
  /// super-root itself) — the unit answers are grouped by in the wire
  /// protocol.
  doc::NodeId DocRootOf(doc::NodeId global) const override {
    return layout_.DocRootOf(global);
  }

  /// Translates a node id of shard `shard`'s own tree to the global id
  /// space (every such id lies in a span; anything else is a CHECK
  /// failure).
  doc::NodeId ToGlobal(size_t shard, doc::NodeId local) const;

  /// Inverse of ToGlobal (LayoutManifest::ToLocal).
  bool ToLocal(doc::NodeId global, uint32_t* shard_out,
               doc::NodeId* local_out) const {
    return layout_.ToLocal(global, shard_out, local_out);
  }

  size_t num_shards() const { return shards_.size(); }
  const engine::Database& shard(size_t i) const { return shards_[i]->db; }
  /// The shard's label index (what its direct evaluation fetches from).
  const index::LabelIndex& shard_postings(size_t i) const {
    return shards_[i]->db.label_index();
  }
  const std::vector<DocSpan>& shard_spans(size_t i) const {
    return layout_.shard_spans(i);
  }
  const cost::CostModel& cost_model() const override {
    return layout_.cost_model();
  }

  /// Fingerprint of the backend + shard layout: shard count, per-shard
  /// document/node counts. Two layouts answering queries over different
  /// partitions (or a partitioned vs. unpartitioned corpus) never share
  /// it; the result cache folds it into its key. Mutable corpora salt it
  /// with the ingest epoch, so every accepted mutation moves it.
  uint32_t LayoutFingerprint() const { return layout_.fingerprint(); }

  /// Ingest epoch this snapshot reflects (sum of per-shard durable
  /// sequence numbers); 0 for corpora built without live ingest.
  uint64_t epoch() const { return epoch_; }

  struct Stats {
    size_t num_shards = 0;
    size_t documents = 0;
    size_t nodes = 0;           // global id space size (incl. super-root)
    std::vector<engine::Database::Stats> per_shard;
  };
  Stats GetStats() const;

  /// Per-shard metrics snapshot: evaluation latency histograms and
  /// answer counts.
  std::string DumpMetrics() const override;

 private:
  friend class approxql::ingest::MutableCorpus;

  struct Shard {
    explicit Shard(engine::Database database) : db(std::move(database)) {}

    engine::Database db;
    service::LatencyHistogram* eval_us = nullptr;  // owned by metrics_
    service::Counter* answers = nullptr;
  };

  ShardedDatabase() = default;

  /// Shared tail of all construction paths: metrics and layout.
  static util::Result<ShardedDatabase> Assemble(
      std::vector<engine::Database> databases,
      std::vector<std::vector<DocSpan>> spans, cost::CostModel model);

  /// Copy-on-write assembly for live ingest: shards arrive ready-made
  /// (most shared with the previous corpus generation),
  /// `spans[i]` describing shard i's tree, and only the derived state —
  /// layout manifest with its epoch-salted fingerprint and the
  /// metric handles — is recomputed.
  static util::Result<ShardedDatabase> AssembleFromShards(
      std::vector<std::shared_ptr<Shard>> shards,
      std::vector<std::vector<DocSpan>> spans, cost::CostModel model,
      std::shared_ptr<service::MetricsRegistry> metrics, uint64_t epoch);

  std::vector<std::shared_ptr<Shard>> shards_;
  LayoutManifest layout_;
  std::shared_ptr<service::MetricsRegistry> metrics_;
  uint64_t epoch_ = 0;
};

}  // namespace approxql::shard

#endif  // APPROXQL_SHARD_SHARDED_DATABASE_H_
