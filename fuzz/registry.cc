#include "fuzz/registry.h"

#include "fuzz/targets.h"

namespace approxql::fuzz {

const std::vector<FuzzTarget>& AllTargets() {
  static const std::vector<FuzzTarget> targets = {
      {"frame_decoder", FuzzFrameDecoder},
      {"wire_query_request", FuzzWireQueryRequest},
      {"wire_query_response", FuzzWireQueryResponse},
      {"wire_shard_query", FuzzWireShardQuery},
      {"wire_shard_answer", FuzzWireShardAnswer},
      {"wire_pong", FuzzWirePong},
      {"wire_ingest", FuzzWireIngest},
      {"wire_ingest_ack", FuzzWireIngestAck},
      {"wire_manifest_fetch", FuzzWireManifestFetch},
      {"wire_manifest_slice", FuzzWireManifestSlice},
      {"wire_manifest_delta", FuzzWireManifestDelta},
      {"layout_manifest", FuzzLayoutManifest},
      {"data_tree", FuzzDataTree},
      {"database_file", FuzzDatabaseFile},
      {"wal_replay", FuzzWalReplay},
      {"xml_parser", FuzzXmlParser},
      {"approxql_parser", FuzzApproxqlParser},
  };
  return targets;
}

}  // namespace approxql::fuzz
