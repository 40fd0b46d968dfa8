// engine::Database::Deserialize over hostile bytes — a saved database
// file (Database::Load). Contract: clean Result or a database whose
// derived indexes cover its tree and whose re-serialization reaches a
// fixed point. The whole-file CRC rejects nearly every mutation up
// front; the seeds carry valid checksums so the parse behind it is
// reached too.

#include <string>
#include <string_view>

#include "engine/database.h"
#include "fuzz/fuzz_util.h"
#include "fuzz/targets.h"

namespace approxql::fuzz {

int FuzzDatabaseFile(const uint8_t* data, size_t size) {
  std::string_view blob(reinterpret_cast<const char*>(data), size);
  auto result = engine::Database::Deserialize(blob);
  if (!result.ok()) {
    APPROXQL_FUZZ_ASSERT(!result.status().message().empty());
    return 0;
  }
  const engine::Database& db = *result;
  size_t indexed = 0;
  for (NodeType type : {NodeType::kStruct, NodeType::kText}) {
    for (const auto& [label, posting] : db.label_index().postings(type)) {
      indexed += posting.size();
    }
  }
  APPROXQL_FUZZ_ASSERT(indexed + 1 == db.tree().size());
  APPROXQL_FUZZ_ASSERT(db.schema().size() > 0);
  const std::string bytes = db.Serialize();
  auto again = engine::Database::Deserialize(bytes);
  APPROXQL_FUZZ_ASSERT(again.ok());
  APPROXQL_FUZZ_ASSERT(again->Serialize() == bytes);
  return 0;
}

}  // namespace approxql::fuzz

APPROXQL_FUZZ_MAIN(approxql::fuzz::FuzzDatabaseFile)
