// The separated query representation (paper Section 3): an approXQL
// query with k "or" operators is broken into up to 2^k conjunctive
// queries. The evaluation engine never materializes this set (the
// expanded representation encodes "or" natively); it exists for the
// brute-force oracle, for tests, and for EXPLAIN-style output.
#ifndef APPROXQL_QUERY_SEPARATED_H_
#define APPROXQL_QUERY_SEPARATED_H_

#include <memory>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "query/ast.h"

namespace approxql::query {

/// A node of a conjunctive query tree (no "or"; "and" is implicit in the
/// child list, matching the paper's tree interpretation of Figure 1(a)).
struct ConjunctiveNode {
  NodeType type = NodeType::kStruct;
  std::string label;
  std::vector<std::unique_ptr<ConjunctiveNode>> children;

  std::unique_ptr<ConjunctiveNode> Clone() const;
};

struct ConjunctiveQuery {
  std::unique_ptr<ConjunctiveNode> root;

  std::string ToString() const;
};

/// Expands a query into its separated representation. Fails with
/// OutOfRange if the number of conjunctive queries would exceed
/// `max_queries` (the count is exponential in the number of "or"s).
util::Result<std::vector<ConjunctiveQuery>> SeparatedRepresentation(
    const Query& query, size_t max_queries = 4096);

}  // namespace approxql::query

#endif  // APPROXQL_QUERY_SEPARATED_H_
