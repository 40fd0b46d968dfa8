// Public facade: build a database from XML documents, save/load it as
// one checksummed file, and execute approXQL queries with either
// evaluation strategy. This is the API the examples and benchmarks use.
#ifndef APPROXQL_ENGINE_DATABASE_H_
#define APPROXQL_ENGINE_DATABASE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cost/cost_model.h"
#include "doc/data_tree.h"
#include "engine/direct_eval.h"
#include "engine/topk_eval.h"
#include "index/label_index.h"
#include "query/ast.h"
#include "schema/schema.h"

namespace approxql::engine {

/// How a query is evaluated.
enum class Strategy {
  kDirect,    // Section 6: compute all results over the data indexes
  kSchema,    // Section 7: schema-driven incremental top-k
  kFullScan,  // baseline: direct algorithm without indexes
};

struct ExecOptions {
  Strategy strategy = Strategy::kSchema;
  /// Best-n-pairs bound; SIZE_MAX = all results.
  size_t n = 10;
  /// Transformation costs for this query (renamings/deletions). Null =
  /// the database's build-time model. Insert costs must equal the
  /// build-time model's (they are baked into the tree encoding).
  const cost::CostModel* cost_model = nullptr;
  SchemaEvaluator::Options schema;
  DirectEvaluator::Options direct;
  /// Label index for the direct strategy instead of the database's
  /// own. Must index the same tree (the benchmark points it at a
  /// shard's index, which is the default anyway). Ignored by
  /// kSchema/kFullScan. Must outlive the call.
  const index::LabelIndex* posting_source = nullptr;
  /// Optional out-parameters: filled with the evaluator's counters when
  /// non-null (benchmarks and tests inspect these).
  SchemaEvalStats* schema_stats_out = nullptr;
  EvalStats* direct_stats_out = nullptr;
};

/// The one rule for sharing the best known n-th answer cost across the
/// shards of a scatter (shard::ShardedDatabase and dist::ShardRouter
/// alike): the bound is an inclusive skeleton-cost prune, sound only for
/// the schema strategy's top-n, and pointless for n = all or one shard.
inline bool SharesCostBound(Strategy strategy, size_t num_shards, size_t n) {
  return strategy == Strategy::kSchema && num_shards > 1 && n != SIZE_MAX;
}

/// One query answer with its materializable result subtree.
struct QueryAnswer {
  doc::NodeId root = 0;
  cost::Cost cost = 0;
};

/// Thread-safety: a Database is immutable after construction (Build*/
/// Load), and every const member is safe to call from any number of
/// threads concurrently — Execute/ExecuteStream/Explain construct their
/// evaluator state per call and only read tree_, schema_, label_index_
/// and model_, none of which have lazy/mutable components (audited:
/// LabelIndex::Fetch and SecondaryIndex::Fetch are pure map lookups).
/// The exceptions:
///   - Save() is const but writes `path` + ".tmp"; concurrent Saves to
///     the same path race on the temp file. Serialize externally.
///   - Move assignment/destruction must not overlap any other call.
/// The service layer (src/service/) relies on this contract to run one
/// shared Database across a thread pool without locking.
class Database {
 public:
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  /// Builds from XML document strings (each a complete document).
  static util::Result<Database> BuildFromXml(
      const std::vector<std::string>& documents,
      cost::CostModel model = cost::CostModel());

  /// Builds from XML files on disk (each a complete document).
  static util::Result<Database> BuildFromFiles(
      const std::vector<std::string>& paths,
      cost::CostModel model = cost::CostModel());

  /// Builds from an already-normalized data tree (e.g. the synthetic
  /// generator's output). The tree must have been encoded with `model`.
  static util::Result<Database> FromDataTree(doc::DataTree tree,
                                             cost::CostModel model);

  /// Parses and executes an approXQL query.
  util::Result<std::vector<QueryAnswer>> Execute(
      std::string_view query_text, const ExecOptions& options) const;
  util::Result<std::vector<QueryAnswer>> Execute(
      const query::Query& query, const ExecOptions& options) const;

  /// The result subtree of an answer, serialized as XML.
  std::string MaterializeXml(doc::NodeId root,
                             bool pretty = false) const;

  /// Incremental retrieval (schema strategy only): results are pulled
  /// one at a time in non-decreasing cost order, so the first answers
  /// reach the caller before the full best-n computation finishes.
  class AnswerStream {
   public:
    std::optional<QueryAnswer> Next();
    bool truncated_by_k_cap() const { return stream_->stats().k_capped; }

   private:
    friend class Database;
    // The expanded query embeds all transformation costs, so nothing
    // else needs pinning; the stream points into expanded_, which is
    // why both live here and the type is move-only.
    AnswerStream(std::unique_ptr<query::ExpandedQuery> expanded,
                 std::unique_ptr<ResultStream> stream)
        : expanded_(std::move(expanded)), stream_(std::move(stream)) {}

    std::unique_ptr<query::ExpandedQuery> expanded_;
    std::unique_ptr<ResultStream> stream_;
  };
  util::Result<AnswerStream> ExecuteStream(std::string_view query_text,
                                           const ExecOptions& options) const;
  util::Result<AnswerStream> ExecuteStream(const query::Query& query,
                                           const ExecOptions& options) const;

  /// One ranked second-level query of the schema strategy, for
  /// EXPLAIN-style output: its cost, its skeleton pattern (schema paths
  /// of all matched classes) and how many results it retrieves.
  struct Explanation {
    cost::Cost cost = 0;
    std::string skeleton;
    size_t result_count = 0;
  };
  /// The best (up to) n second-level queries for `query_text`.
  util::Result<std::vector<Explanation>> Explain(
      std::string_view query_text, const ExecOptions& options) const;

  /// The saved-database file: magic, version, the cost model's config
  /// and the serialized data tree, closed by a CRC-32C over everything
  /// before it. The indexes and the schema are derived state and are not
  /// stored: Deserialize rebuilds them, so a loaded database answers
  /// every query exactly like the one that was saved.
  std::string Serialize() const;
  static util::Result<Database> Deserialize(std::string_view data);

  /// Serialize() to `path` through storage::WriteFileDurably, and the
  /// inverse; Load refuses any other file with Corruption.
  util::Status Save(const std::string& path) const;
  static util::Result<Database> Load(const std::string& path);

  const doc::DataTree& tree() const { return *tree_; }
  const schema::Schema& schema() const { return *schema_; }
  const index::LabelIndex& label_index() const { return label_index_; }
  const cost::CostModel& cost_model() const { return model_; }

  /// Collection statistics (for README examples and sanity checks).
  struct Stats {
    size_t nodes = 0;
    size_t struct_nodes = 0;
    size_t text_nodes = 0;
    size_t distinct_labels = 0;
    size_t schema_nodes = 0;
  };
  Stats GetStats() const;

 private:
  Database(cost::CostModel model, std::unique_ptr<doc::DataTree> tree)
      : model_(std::move(model)), tree_(std::move(tree)) {}

  /// Rejects per-query cost models that try to change insert costs
  /// (those are baked into the encoding at build time).
  util::Status CheckQueryCostModel(const ExecOptions& options) const;

  void BuildDerivedState();

  cost::CostModel model_;
  std::unique_ptr<doc::DataTree> tree_;
  index::LabelIndex label_index_;
  std::unique_ptr<schema::Schema> schema_;
};

}  // namespace approxql::engine

#endif  // APPROXQL_ENGINE_DATABASE_H_
