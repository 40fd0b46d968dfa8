// Retry arithmetic shared by the network layer: the jittered
// exponential backoff net::AsyncClient sleeps between reconnection
// attempts and the shard router applies between retries of a failed
// shard attempt.
#ifndef APPROXQL_NET_SOCKET_H_
#define APPROXQL_NET_SOCKET_H_

#include <cstdint>

namespace approxql::net {

/// Exponential backoff with full jitter for attempt `attempt` (0 = the
/// first retry): uniform in [base/2, min(cap, base << attempt)].
/// `random` is caller-supplied randomness (e.g. util::Rng::Next()), so
/// deterministic tests can pin it. Never returns less than 1 ms.
int JitteredBackoffMs(int attempt, int base_ms, int cap_ms, uint64_t random);

}  // namespace approxql::net

#endif  // APPROXQL_NET_SOCKET_H_
