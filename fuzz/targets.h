// Entry points of every fuzz target, one per untrusted-input boundary.
// Each is LLVMFuzzerTestOneInput-shaped (returns 0, never throws) and
// lives in fuzz/targets/<name>_fuzz.cc; the name ↔ function mapping is
// materialized in fuzz/registry.cc and mirrored by fuzz/targets.manifest
// (which tools/lint.py checks against the Decode*/Deserialize*/Replay*
// declarations in src/).
#ifndef APPROXQL_FUZZ_TARGETS_H_
#define APPROXQL_FUZZ_TARGETS_H_

#include <cstddef>
#include <cstdint>

namespace approxql::fuzz {

// Stream level: net::FrameDecoder over an adversarial TCP byte stream.
int FuzzFrameDecoder(const uint8_t* data, size_t size);

// Wire payload decoders (src/net/wire.h), one target per message type.
int FuzzWireQueryRequest(const uint8_t* data, size_t size);
int FuzzWireQueryResponse(const uint8_t* data, size_t size);
int FuzzWireShardQuery(const uint8_t* data, size_t size);
int FuzzWireShardAnswer(const uint8_t* data, size_t size);
int FuzzWirePong(const uint8_t* data, size_t size);
int FuzzWireIngest(const uint8_t* data, size_t size);
int FuzzWireIngestAck(const uint8_t* data, size_t size);
int FuzzWireManifestFetch(const uint8_t* data, size_t size);
int FuzzWireManifestSlice(const uint8_t* data, size_t size);
int FuzzWireManifestDelta(const uint8_t* data, size_t size);

// Persistence formats parsed off disk.
int FuzzLayoutManifest(const uint8_t* data, size_t size);
int FuzzDataTree(const uint8_t* data, size_t size);
int FuzzDatabaseFile(const uint8_t* data, size_t size);
int FuzzWalReplay(const uint8_t* data, size_t size);

// Text parsers fed by users and ingest.
int FuzzXmlParser(const uint8_t* data, size_t size);
int FuzzApproxqlParser(const uint8_t* data, size_t size);

}  // namespace approxql::fuzz

#endif  // APPROXQL_FUZZ_TARGETS_H_
