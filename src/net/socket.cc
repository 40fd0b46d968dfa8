#include "net/socket.h"

#include <algorithm>

namespace approxql::net {

int JitteredBackoffMs(int attempt, int base_ms, int cap_ms, uint64_t random) {
  if (base_ms < 1) base_ms = 1;
  if (cap_ms < base_ms) cap_ms = base_ms;
  // base << attempt, saturating well below overflow.
  int64_t ceiling = base_ms;
  for (int i = 0; i < attempt && ceiling < cap_ms; ++i) ceiling *= 2;
  ceiling = std::min<int64_t>(ceiling, cap_ms);
  const int64_t floor = std::max<int64_t>(1, base_ms / 2);
  if (ceiling <= floor) return static_cast<int>(floor);
  return static_cast<int>(floor +
                          static_cast<int64_t>(random %
                                               static_cast<uint64_t>(
                                                   ceiling - floor + 1)));
}

}  // namespace approxql::net
