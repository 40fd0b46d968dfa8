#include <algorithm>
#include <cstdio>

#include "gen/xml_generator.h"
#include "util/logging.h"
#include "util/random.h"
#include "workload.h"

namespace perfbench {

using approxql::engine::QueryAnswer;

namespace {

// The paper's collection: 100 element names, a vocabulary of one term
// per 10 elements (100k terms per 1M elements).
constexpr size_t kElementNames = 100;
size_t Vocabulary(size_t total_elements) {
  return std::max<size_t>(total_elements / 10, 100);
}

}  // namespace

uint64_t Mix(uint64_t seed, uint64_t salt) {
  // splitmix64 of (seed, salt): nearby seeds give unrelated streams.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt * 0xD1B54A32D192ED03ULL +
               0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<std::string> MakeDocuments(size_t total_elements,
                                       size_t elements_per_document) {
  approxql::gen::XmlGenOptions options;
  options.seed = kCollectionSeed;
  options.total_elements = total_elements;
  options.element_names = kElementNames;
  options.vocabulary = Vocabulary(total_elements);
  options.words_per_element = 10.0;
  options.zipf_theta = 1.0;
  options.template_nodes = 150;
  options.elements_per_document = elements_per_document;
  approxql::gen::XmlGenerator generator(options);
  std::vector<std::string> documents;
  size_t elements = 0;
  while (elements < total_elements) {
    documents.push_back(generator.GenerateDocumentXml());
    elements += CountElements(documents.back());
  }
  return documents;
}

approxql::cost::CostModel DeletableModel(size_t total_elements) {
  approxql::cost::CostModel model;
  approxql::util::Rng rng(kCollectionSeed);
  for (size_t i = 0; i < kElementNames; ++i) {
    model.SetDeleteCost(approxql::NodeType::kStruct, "elem" + std::to_string(i),
                        static_cast<approxql::cost::Cost>(rng.UniformInt(2, 10)));
  }
  for (size_t i = 0; i < Vocabulary(total_elements); ++i) {
    model.SetDeleteCost(approxql::NodeType::kText, "term" + std::to_string(i),
                        static_cast<approxql::cost::Cost>(rng.UniformInt(2, 10)));
  }
  return model;
}

std::vector<approxql::gen::GeneratedQuery> MakeQueries(
    const approxql::engine::Database& db, const std::vector<size_t>& renamings,
    size_t per_cell) {
  constexpr std::string_view kPatterns[] = {approxql::gen::kPattern1,
                                            approxql::gen::kPattern2,
                                            approxql::gen::kPattern3};
  std::vector<std::vector<approxql::gen::GeneratedQuery>> cells;
  for (size_t level : renamings) {
    approxql::gen::QueryGenOptions options;
    options.seed = Mix(kQuerySeed, level);
    options.renamings_per_label = level;
    approxql::gen::QueryGenerator generator(db, options);
    for (std::string_view pattern : kPatterns) {
      cells.emplace_back();
      for (size_t i = 0; i < per_cell; ++i) {
        auto generated = generator.Generate(pattern);
        APPROXQL_CHECK(generated.ok()) << generated.status();
        cells.back().push_back(std::move(generated).value());
      }
    }
  }
  std::vector<approxql::gen::GeneratedQuery> queries;
  for (size_t i = 0; i < per_cell; ++i) {
    for (auto& cell : cells) queries.push_back(std::move(cell[i]));
  }
  return queries;
}

approxql::engine::ExecOptions SchemaOptions(
    const approxql::gen::GeneratedQuery& query) {
  approxql::engine::ExecOptions exec;
  exec.strategy = approxql::engine::Strategy::kSchema;
  exec.n = 10;
  exec.cost_model = &query.cost_model;
  return exec;
}

std::string DiffAnswers(const std::vector<QueryAnswer>& got,
                        const std::vector<QueryAnswer>& want) {
  char buffer[160];
  if (got.size() != want.size()) {
    std::snprintf(buffer, sizeof(buffer), "%zu answers, oracle has %zu",
                  got.size(), want.size());
    return buffer;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].root != want[i].root || got[i].cost != want[i].cost) {
      std::snprintf(buffer, sizeof(buffer),
                    "answer %zu is (root %llu, cost %lld), oracle has "
                    "(root %llu, cost %lld)",
                    i, static_cast<unsigned long long>(got[i].root),
                    static_cast<long long>(got[i].cost),
                    static_cast<unsigned long long>(want[i].root),
                    static_cast<long long>(want[i].cost));
      return buffer;
    }
  }
  return "";
}

void CorruptAnswers(std::vector<QueryAnswer>* answers) {
  if (answers->empty()) {
    answers->push_back({1, 0});
  } else {
    answers->front().cost += 1;
  }
}

void ReportStream(const StreamStats& stream, double setup_s, Report* report) {
  report->Attempt(stream.attempted, stream.failed);
  report->Metric("qps", stream.qps(), "1/s");
  report->Metric("query_p50_us", stream.LatencyPercentile(0.50), "us");
  report->Metric("query_p90_us", stream.LatencyPercentile(0.90), "us");
  report->Metric("setup_s", setup_s, "s");
  report->Metric("peak_rss_mb", PeakRssMb(), "MiB");
  for (const char* metric : {"qps", "query_p50_us", "query_p90_us"}) {
    report->Samples(metric, stream.latency_us.size());
  }
  report->Samples("passes", stream.pass_qps.size());
  report->Detail("query_p99_us", Percentile(stream.latency_us, 0.99));
  report->Detail("window_s", stream.window_s);
  report->Detail("failed_frac",
                 stream.attempted == 0
                     ? 0
                     : static_cast<double>(stream.failed) /
                           static_cast<double>(stream.attempted));
}

}  // namespace perfbench
