// The layout of a sharded corpus: the shard count, every shard's
// document spans (local <-> global id mapping), the layout fingerprint,
// and the cost model — everything a query router needs, and nothing a
// shard server holds (no trees, no postings, no schema). It is the one
// span table in the system: a ShardedDatabase keeps its layout in one
// of these (`layout()`), a router host loads one instead of the full
// corpus, and the live cluster's ManifestView translates through the
// same span search (SpanToGlobal).
//
// Produced by `approxql_serve --save-manifest` next to a sharded
// corpus (a run that needs no --listen); consumed by a router server,
// `approxql_serve --router ... --manifest F --listen PORT`. The
// fingerprint inside is checked against every shard server's reported
// fingerprint on the wire, so a manifest from layout A pointed at
// servers of layout B is rejected per call, never mistranslated.
#ifndef APPROXQL_SHARD_LAYOUT_MANIFEST_H_
#define APPROXQL_SHARD_LAYOUT_MANIFEST_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cost/cost_model.h"
#include "doc/data_tree.h"
#include "util/status.h"

namespace approxql::shard {

/// One document's placement: `length` consecutive preorder ids starting
/// at `local_start` in the shard's tree and `global_start` in the global
/// (unpartitioned) id space.
struct DocSpan {
  doc::NodeId local_start = 0;
  doc::NodeId global_start = 0;
  uint32_t length = 0;
};

/// Shard-local id -> global id through one shard's `spans` (sorted by
/// increasing local_start). Local 0, the shard super-root, maps to the
/// global super-root; an id outside every span yields nullopt, never a
/// guess.
std::optional<doc::NodeId> SpanToGlobal(const std::vector<DocSpan>& spans,
                                        doc::NodeId local);

class LayoutManifest {
 public:
  /// One document in the global id order, with its shard placement.
  struct GlobalDoc {
    doc::NodeId global_start = 0;
    uint32_t length = 0;
    uint32_t shard = 0;
    doc::NodeId local_start = 0;
  };

  LayoutManifest() = default;

  /// `spans` must hold each shard's spans sorted by increasing local AND
  /// global start — the order ShardedDatabase guarantees.
  LayoutManifest(uint32_t fingerprint, cost::CostModel model,
                 std::vector<std::vector<DocSpan>> spans);

  size_t num_shards() const { return spans_.size(); }
  uint32_t fingerprint() const { return fingerprint_; }
  const cost::CostModel& cost_model() const { return model_; }
  const std::vector<DocSpan>& shard_spans(size_t i) const {
    return spans_[i];
  }
  /// Every document, sorted by global_start.
  const std::vector<GlobalDoc>& documents() const { return docs_; }

  /// Shard-local node id -> global id; nullopt when no span of `shard`
  /// contains `local`.
  std::optional<doc::NodeId> ToGlobal(size_t shard, doc::NodeId local) const {
    return SpanToGlobal(spans_[shard], local);
  }

  /// Inverse of ToGlobal: the shard + shard-local id of a global id.
  /// False when no document contains it (global 0 maps to shard 0,
  /// local 0 — every shard's super-root is the same node).
  bool ToLocal(doc::NodeId global, uint32_t* shard_out,
               doc::NodeId* local_out) const;

  /// Global id of the document root containing `global` (0 for the
  /// super-root or an id no span covers), for wire-protocol answer
  /// grouping.
  doc::NodeId DocRootOf(doc::NodeId global) const;

  /// Varint blob with a trailing CRC; Deserialize verifies it.
  std::string Serialize() const;
  static util::Result<LayoutManifest> Deserialize(std::string_view data);

  /// Through storage::WriteFileDurably, like Database::Save.
  util::Status SaveTo(const std::string& path) const;
  static util::Result<LayoutManifest> LoadFrom(const std::string& path);

 private:
  /// The document containing `global`, or nullptr.
  const GlobalDoc* FindDoc(doc::NodeId global) const;

  uint32_t fingerprint_ = 0;
  cost::CostModel model_;
  std::vector<std::vector<DocSpan>> spans_;
  std::vector<GlobalDoc> docs_;  // sorted by global_start
};

}  // namespace approxql::shard

#endif  // APPROXQL_SHARD_LAYOUT_MANIFEST_H_
