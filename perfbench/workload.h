// The three workloads and the input generation and oracle checks they
// share. Inputs derive from the seed alone; the program under test only
// ever sees the generated XML documents and query texts (plus each
// query's cost model where the workload uses per-query costs).
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "engine/database.h"
#include "gen/query_generator.h"
#include "stats.h"

namespace perfbench {

/// Per-layer figures of a traced run, keyed by the per-layer metric
/// names of BENCHMARK.json. A layer a workload bypasses stays absent;
/// run.py reports it as 0 with its unit from BENCHMARK.json.
using LayerMetrics = std::map<std::string, double>;

/// Derives an independent 64-bit stream seed from the run seed.
uint64_t Mix(uint64_t seed, uint64_t salt);

/// The collection and the query list are fixed, like the paper's
/// testbed: per-query cost is heavy-tailed (k-capped schema queries run
/// 100x the median), so a query set drawn per seed moved qps and p90 by
/// +-20% between seeds, and permuting the request order moved p50 by
/// 20% (a light query's cost depends on the heavy query before it). The
/// seed permutes the document order instead: new node ids, answers and
/// posting layouts for the same work.
constexpr uint64_t kCollectionSeed = 20020314;  // EDBT 2002
constexpr uint64_t kQuerySeed = 1000;

/// XML documents of the paper's synthetic collection shape (100 element
/// names, Zipf terms, vocabulary = elements / 10, 10 words per element),
/// generated from kCollectionSeed until about `total_elements` elements
/// exist. Callers permute them with Shuffle().
std::vector<std::string> MakeDocuments(size_t total_elements,
                                       size_t elements_per_document);

/// A build-time cost model in which every element name and term of
/// MakeDocuments(total_elements, ...) is deletable at cost 2-10 (the
/// query generator's delete-cost range). Queries that carry no cost
/// model of their own (the wire sends none) then still have
/// approximate answers instead of exact matches only.
approxql::cost::CostModel DeletableModel(size_t total_elements);

/// `per_cell` queries for each of the paper's patterns 1-3 at each
/// renaming level, with their per-query cost models, interleaved so
/// every stretch of the list mixes patterns and levels.
std::vector<approxql::gen::GeneratedQuery> MakeQueries(
    const approxql::engine::Database& db, const std::vector<size_t>& renamings,
    size_t per_cell);

/// Schema strategy, best 10, under the query's own cost model.
approxql::engine::ExecOptions SchemaOptions(
    const approxql::gen::GeneratedQuery& query);

/// Deterministic Fisher-Yates permutation driven by `seed`.
template <typename T>
void Shuffle(std::vector<T>* items, uint64_t seed) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[Mix(seed, i) % i]);
  }
}

/// Empty when `got` equals `want` answer for answer (root and cost);
/// otherwise a one-line description of the first difference.
std::string DiffAnswers(const std::vector<approxql::engine::QueryAnswer>& got,
                        const std::vector<approxql::engine::QueryAnswer>& want);

/// Turns a correct answer list into a wrong one (the injected-fault
/// check of the oracle gate).
void CorruptAnswers(std::vector<approxql::engine::QueryAnswer>* answers);

/// Each returns 0 on success; non-zero means the run cannot produce a
/// result. Answers that differ from the oracle are recorded in
/// `report` and make the run fail after printing.
int RunTopkSchema(const Args& args, Report* report, LayerMetrics* layers);
int RunRoutedDirect(const Args& args, Report* report, LayerMetrics* layers);
int RunLiveIngest(const Args& args, Report* report, LayerMetrics* layers);

/// The end-to-end metrics every workload reports from its query stream.
void ReportStream(const StreamStats& stream, double setup_s, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
