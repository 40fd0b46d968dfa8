// What the two serving drivers share: approxql_serve (the server roles)
// and approxql_load (replay, ingest, verify). Checked flag parsing, the
// flags both accept, the corpus they build identically from identical
// flags, and the seeded cost models a client must re-derive for its
// answers to compare bit-for-bit with the server's.
#ifndef APPROXQL_EXAMPLES_SERVE_COMMON_H_
#define APPROXQL_EXAMPLES_SERVE_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cost/cost_model.h"
#include "dist/shard_router.h"
#include "engine/database.h"
#include "service/query_service.h"
#include "shard/layout_manifest.h"
#include "shard/sharded_database.h"
#include "util/status.h"

namespace approxql::serve {

/// Prints "what: status" to stderr; returns the failure exit code 1.
int Fail(const char* what, const util::Status& status);

/// True iff all of `text` is decimal digits with a value in [lo, hi]:
/// "2x", "", "-1" and overflowing values are rejected.
bool ParseNum(std::string_view text, size_t lo, size_t hi, size_t* out);

/// "host:port" with a non-empty host and a port in 1..65535.
bool ParseEndpoint(std::string_view text, std::string* host, uint16_t* port);

/// Walks argv. Str and Num consume the current flag's value and return
/// false when it is missing or malformed; the drivers answer any false
/// with their usage text and exit code 2.
class FlagReader {
 public:
  FlagReader(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// Advances to the next token; false once argv is exhausted.
  bool Next(std::string_view* out);
  bool Str(std::string* out);
  bool Num(size_t* out, size_t lo = 0, size_t hi = SIZE_MAX);

 private:
  int argc_;
  char** argv_;
  int i_ = 0;
};

/// The flags both drivers accept, with one meaning.
struct CommonFlags {
  /// Consumes `arg` (and its value) if it is one of these flags and
  /// returns true; `*ok` turns false on a missing or malformed value.
  bool Parse(std::string_view arg, FlagReader& flags, bool* ok);
  /// --shards defaults to the --router endpoint count and must match it.
  bool ReconcileShards();
  bool has_corpus() const {
    return !xml_paths.empty() || !load_path.empty() || gen_data > 0;
  }

  std::vector<std::string> xml_paths;  // --xml (repeatable)
  std::string load_path;               // --load
  size_t gen_data = 0;                 // --gen-data
  size_t seed = 42;                    // --seed
  size_t shards = 1;                   // --shards
  std::vector<dist::RouterOptions::Endpoint> router;  // --router
  bool live = false;                                  // --live
  service::ServiceOptions service;  // --threads, --queue, --cache
};

/// Usage lines for the CommonFlags.
extern const char kCommonFlagsUsage[];

/// The database --load, --xml or --gen-data describe (has_corpus() must
/// hold). Prints its size to stderr.
util::Result<std::unique_ptr<engine::Database>> BuildDatabase(
    const CommonFlags& flags);

/// Partitions `db` into `shards` shards. Prints the layout to stderr.
util::Result<std::unique_ptr<shard::ShardedDatabase>> PartitionDatabase(
    const engine::Database& db, size_t shards);

/// Starts a router over `flags.router`. `layout` fixes a static
/// partition's layout; nullptr means a --live cluster, whose router
/// syncs manifest slices from its mutable shard servers.
util::Result<std::unique_ptr<dist::ShardRouter>> StartRouter(
    const CommonFlags& flags, bool strict,
    const shard::LayoutManifest* layout);

/// Delete costs 2..10 drawn from `seed` for the generators' labels
/// "elem0".."elem<names-1>", then "term0".."term<vocabulary-1>". Queries
/// drawn independently of structure rarely embed exactly; these costs
/// give them real ranked answers, and a client re-derives the identical
/// model from --seed alone (per-query models cannot ride the wire).
cost::CostModel SeededDeleteCosts(size_t seed, size_t names,
                                  size_t vocabulary);

/// The label space of ingested documents, shared by the mutable server's
/// model, the ingest drivers' documents and the acked-document oracles.
constexpr size_t kIngestElementNames = 50;
constexpr size_t kIngestVocabulary = 1000;

inline cost::CostModel IngestCostModel(size_t seed) {
  return SeededDeleteCosts(seed, kIngestElementNames, kIngestVocabulary);
}

}  // namespace approxql::serve

#endif  // APPROXQL_EXAMPLES_SERVE_COMMON_H_
