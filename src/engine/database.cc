#include "engine/database.h"

#include "query/expanded.h"
#include "storage/file.h"
#include "util/varint.h"

namespace approxql::engine {

using util::Result;
using util::Status;

namespace {

constexpr uint32_t kFileMagic = 0x42445141;  // "AQDB"
constexpr uint32_t kFileVersion = 1;

}  // namespace

util::Status Database::CheckQueryCostModel(const ExecOptions& options) const {
  if (options.cost_model == nullptr) return Status::OK();
  // Insert costs are baked into the tree/schema encoding at build time;
  // a per-query model may only change deletions and renamings. A full
  // comparison would be O(labels), so the cheap canary is the default
  // insert cost (the generator and all sane callers leave per-label
  // insert costs untouched).
  if (options.cost_model->default_insert_cost() !=
      model_.default_insert_cost()) {
    return Status::InvalidArgument(
        "per-query cost model changes insert costs; rebuild the database "
        "with the new model instead (insert costs are part of the tree "
        "encoding)");
  }
  return Status::OK();
}

void Database::BuildDerivedState() {
  label_index_ = index::LabelIndex::BuildFromTree(*tree_);
  schema_ = std::make_unique<schema::Schema>(
      schema::Schema::Build(tree_.get(), model_));
}

Result<Database> Database::BuildFromXml(
    const std::vector<std::string>& documents, cost::CostModel model) {
  doc::DataTreeBuilder builder;
  for (const auto& document : documents) {
    RETURN_IF_ERROR(builder.AddDocumentXml(document));
  }
  ASSIGN_OR_RETURN(doc::DataTree tree, std::move(builder).Build(model));
  return FromDataTree(std::move(tree), std::move(model));
}

Result<Database> Database::BuildFromFiles(const std::vector<std::string>& paths,
                                          cost::CostModel model) {
  doc::DataTreeBuilder builder;
  for (const auto& path : paths) {
    ASSIGN_OR_RETURN(std::string xml, storage::ReadWholeFile(path));
    util::Status parsed = builder.AddDocumentXml(xml);
    if (!parsed.ok()) {
      return Status(parsed.code(), path + ": " + parsed.message());
    }
  }
  ASSIGN_OR_RETURN(doc::DataTree tree, std::move(builder).Build(model));
  return FromDataTree(std::move(tree), std::move(model));
}

Result<Database> Database::FromDataTree(doc::DataTree tree,
                                        cost::CostModel model) {
  Database db(std::move(model),
              std::make_unique<doc::DataTree>(std::move(tree)));
  db.BuildDerivedState();
  return db;
}

Result<std::vector<QueryAnswer>> Database::Execute(
    std::string_view query_text, const ExecOptions& options) const {
  ASSIGN_OR_RETURN(query::Query query, query::Parse(query_text));
  return Execute(query, options);
}

Result<std::vector<QueryAnswer>> Database::Execute(
    const query::Query& query, const ExecOptions& options) const {
  RETURN_IF_ERROR(CheckQueryCostModel(options));
  const cost::CostModel& model =
      options.cost_model != nullptr ? *options.cost_model : model_;
  ASSIGN_OR_RETURN(query::ExpandedQuery expanded,
                   query::ExpandedQuery::Build(query, model));
  std::vector<RootCost> results;
  switch (options.strategy) {
    case Strategy::kDirect: {
      const index::LabelIndex& source = options.posting_source != nullptr
                                            ? *options.posting_source
                                            : label_index_;
      DirectEvaluator evaluator(EncodedTree::Of(*tree_), source,
                                tree_->labels(), options.direct);
      results = evaluator.BestN(expanded, options.n);
      if (options.direct_stats_out != nullptr) {
        *options.direct_stats_out = evaluator.stats();
      }
      break;
    }
    case Strategy::kFullScan: {
      DirectEvaluator::Options scan = options.direct;
      scan.full_scan = true;
      DirectEvaluator evaluator(EncodedTree::Of(*tree_), label_index_,
                                tree_->labels(), scan);
      results = evaluator.BestN(expanded, options.n);
      if (options.direct_stats_out != nullptr) {
        *options.direct_stats_out = evaluator.stats();
      }
      break;
    }
    case Strategy::kSchema: {
      SchemaEvaluator evaluator(*schema_, *tree_, options.schema);
      results = evaluator.BestN(expanded, options.n);
      if (options.schema_stats_out != nullptr) {
        *options.schema_stats_out = evaluator.stats();
      }
      break;
    }
  }
  std::vector<QueryAnswer> answers;
  answers.reserve(results.size());
  for (const RootCost& rc : results) {
    answers.push_back({rc.root, rc.cost});
  }
  return answers;
}

std::optional<QueryAnswer> Database::AnswerStream::Next() {
  std::optional<RootCost> next = stream_->Next();
  if (!next.has_value()) return std::nullopt;
  return QueryAnswer{next->root, next->cost};
}

Result<Database::AnswerStream> Database::ExecuteStream(
    std::string_view query_text, const ExecOptions& options) const {
  ASSIGN_OR_RETURN(query::Query query, query::Parse(query_text));
  return ExecuteStream(query, options);
}

Result<Database::AnswerStream> Database::ExecuteStream(
    const query::Query& query, const ExecOptions& options) const {
  RETURN_IF_ERROR(CheckQueryCostModel(options));
  const cost::CostModel& model =
      options.cost_model != nullptr ? *options.cost_model : model_;
  ASSIGN_OR_RETURN(query::ExpandedQuery expanded,
                   query::ExpandedQuery::Build(query, model));
  auto owned = std::make_unique<query::ExpandedQuery>(std::move(expanded));
  auto stream = std::make_unique<ResultStream>(*schema_, *tree_, owned.get(),
                                               options.schema);
  return AnswerStream(std::move(owned), std::move(stream));
}

Result<std::vector<Database::Explanation>> Database::Explain(
    std::string_view query_text, const ExecOptions& options) const {
  RETURN_IF_ERROR(CheckQueryCostModel(options));
  ASSIGN_OR_RETURN(query::Query query, query::Parse(query_text));
  const cost::CostModel& model =
      options.cost_model != nullptr ? *options.cost_model : model_;
  ASSIGN_OR_RETURN(query::ExpandedQuery expanded,
                   query::ExpandedQuery::Build(query, model));
  SchemaEvaluator evaluator(*schema_, *tree_, options.schema);
  TopKList skeletons = evaluator.TopKQueries(expanded, options.n);
  std::vector<Explanation> explanations;
  explanations.reserve(skeletons.size());
  for (const SkeletonRef& skeleton : skeletons) {
    Explanation explanation;
    explanation.cost = skeleton->cost;
    explanation.skeleton = evaluator.DescribeSkeleton(*skeleton);
    explanation.result_count = evaluator.ExecuteSecondary(skeleton).size();
    explanations.push_back(std::move(explanation));
  }
  return explanations;
}

std::string Database::MaterializeXml(doc::NodeId root, bool pretty) const {
  xml::WriteOptions options;
  options.pretty = pretty;
  return xml::WriteXml(tree_->ToXml(root), options);
}

std::string Database::Serialize() const {
  std::string out;
  util::PutVarint32(&out, kFileMagic);
  util::PutVarint32(&out, kFileVersion);
  const std::string config = model_.ToConfigString();
  util::PutVarint64(&out, config.size());
  out.append(config);
  std::string tree_bytes;
  tree_->Serialize(&tree_bytes);
  util::PutVarint64(&out, tree_bytes.size());
  out.append(tree_bytes);
  storage::AppendCrcTrailer(&out);
  return out;
}

Result<Database> Database::Deserialize(std::string_view data) {
  // The magic is checked before the CRC so that a file of another format
  // (such as the page-based store older versions saved) is named as
  // such rather than reported as a checksum failure.
  util::VarintReader magic_reader(data);
  uint32_t magic = 0;
  if (!magic_reader.GetVarint32(&magic).ok() || magic != kFileMagic) {
    return Status::Corruption("database file: bad magic");
  }
  ASSIGN_OR_RETURN(std::string_view body,
                   storage::CheckCrcTrailer(data, "database file"));
  util::VarintReader reader(body);
  uint32_t version = 0;
  RETURN_IF_ERROR(reader.GetVarint32(&magic));  // checked above
  RETURN_IF_ERROR(reader.GetVarint32(&version));
  if (version != kFileVersion) {
    return Status::Corruption("database file: unsupported version " +
                              std::to_string(version));
  }
  uint64_t config_len = 0;
  std::string_view config;
  RETURN_IF_ERROR(reader.GetVarint64(&config_len));
  RETURN_IF_ERROR(reader.GetBytes(config_len, &config));
  uint64_t tree_len = 0;
  std::string_view tree_bytes;
  RETURN_IF_ERROR(reader.GetVarint64(&tree_len));
  RETURN_IF_ERROR(reader.GetBytes(tree_len, &tree_bytes));
  if (!reader.empty()) {
    return Status::Corruption("database file: trailing bytes");
  }
  ASSIGN_OR_RETURN(cost::CostModel model, cost::CostModel::ParseConfig(config));
  ASSIGN_OR_RETURN(doc::DataTree tree,
                   doc::DataTree::Deserialize(tree_bytes, model));
  return FromDataTree(std::move(tree), std::move(model));
}

Status Database::Save(const std::string& path) const {
  return storage::WriteFileDurably(path, Serialize());
}

Result<Database> Database::Load(const std::string& path) {
  ASSIGN_OR_RETURN(std::string data, storage::ReadWholeFile(path));
  Result<Database> db = Deserialize(data);
  if (!db.ok()) {
    return Status(db.status().code(), path + ": " + db.status().message());
  }
  return db;
}

Database::Stats Database::GetStats() const {
  Stats stats;
  stats.nodes = tree_->size();
  for (doc::NodeId id = 0; id < tree_->size(); ++id) {
    if (tree_->node(id).type == NodeType::kStruct) {
      ++stats.struct_nodes;
    } else {
      ++stats.text_nodes;
    }
  }
  stats.distinct_labels = tree_->labels().size();
  stats.schema_nodes = schema_->size();
  return stats;
}

}  // namespace approxql::engine
