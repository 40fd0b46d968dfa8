// index::DeserializePosting over hostile bytes — posting lists read back
// from B+tree leaves (engine::Database::Load). Contract: clean Result or a
// strictly increasing posting that round-trips.

#include <string>
#include <string_view>

#include "fuzz/fuzz_util.h"
#include "fuzz/targets.h"
#include "index/label_index.h"

namespace approxql::fuzz {

int FuzzPosting(const uint8_t* data, size_t size) {
  std::string_view blob(reinterpret_cast<const char*>(data), size);
  auto result = index::DeserializePosting(blob);
  if (!result.ok()) {
    APPROXQL_FUZZ_ASSERT(!result.status().message().empty());
    return 0;
  }
  const index::Posting& posting = *result;
  for (size_t i = 1; i < posting.size(); ++i) {
    APPROXQL_FUZZ_ASSERT(posting[i] > posting[i - 1]);
  }
  std::string bytes;
  index::SerializePosting(posting, &bytes);
  auto again = index::DeserializePosting(bytes);
  APPROXQL_FUZZ_ASSERT(again.ok());
  APPROXQL_FUZZ_ASSERT(*again == posting);
  return 0;
}

}  // namespace approxql::fuzz

APPROXQL_FUZZ_MAIN(approxql::fuzz::FuzzPosting)
