// A layout-only description of a sharded corpus: the shard count, every
// shard's document spans (local -> global id mapping), the layout
// fingerprint, and the cost model — everything a query router needs,
// and nothing a shard server holds (no trees, no postings, no schema).
// A router host loads one of these instead of the full corpus: the data
// lives only on the shard servers, the router merely translates ids and
// verifies it is talking to the layout the manifest describes.
//
// Produced by `approxql_serve --save-manifest` next to a sharded
// corpus (a run that needs no --listen); consumed by a router server,
// `approxql_serve --router ... --manifest F --listen PORT`. The
// fingerprint inside is checked against every shard server's reported
// fingerprint on the wire, so a manifest from layout A pointed at
// servers of layout B is rejected per call, never mistranslated.
#ifndef APPROXQL_SHARD_LAYOUT_MANIFEST_H_
#define APPROXQL_SHARD_LAYOUT_MANIFEST_H_

#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "doc/data_tree.h"
#include "shard/sharded_database.h"
#include "util/status.h"

namespace approxql::shard {

class LayoutManifest {
 public:
  LayoutManifest() = default;

  /// Extracts the layout of a materialized sharded corpus.
  static LayoutManifest Of(const ShardedDatabase& layout);

  /// Assembles from parts (deserialization, tests). `spans` must hold
  /// each shard's spans sorted by increasing local AND global start —
  /// the order ShardedDatabase guarantees.
  LayoutManifest(uint32_t fingerprint, cost::CostModel model,
                 std::vector<std::vector<DocSpan>> spans);

  size_t num_shards() const { return spans_.size(); }
  uint32_t fingerprint() const { return fingerprint_; }
  const cost::CostModel& cost_model() const { return model_; }
  const std::vector<DocSpan>& shard_spans(size_t i) const {
    return spans_[i];
  }

  /// Shard-local node id -> global id (identical to
  /// ShardedDatabase::ToGlobal over the same layout).
  doc::NodeId ToGlobal(size_t shard, doc::NodeId local) const;

  /// Global id of the document root containing `global` (0 for the
  /// super-root), for wire-protocol answer grouping.
  doc::NodeId DocRootOf(doc::NodeId global) const;

  /// Varint blob with a trailing CRC; Deserialize verifies it.
  std::string Serialize() const;
  static util::Result<LayoutManifest> Deserialize(std::string_view data);

  /// Write-to-temp + rename, like Database::Save.
  util::Status SaveTo(const std::string& path) const;
  static util::Result<LayoutManifest> LoadFrom(const std::string& path);

 private:
  /// One document in the global id order (merged over shards).
  struct GlobalDoc {
    doc::NodeId global_start = 0;
    uint32_t length = 0;
    uint32_t shard = 0;
    doc::NodeId local_start = 0;
  };

  void RebuildDocs();

  uint32_t fingerprint_ = 0;
  cost::CostModel model_;
  std::vector<std::vector<DocSpan>> spans_;
  std::vector<GlobalDoc> docs_;  // sorted by global_start
};

}  // namespace approxql::shard

#endif  // APPROXQL_SHARD_LAYOUT_MANIFEST_H_
