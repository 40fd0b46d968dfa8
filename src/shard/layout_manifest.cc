#include "shard/layout_manifest.h"

#include <algorithm>

#include "storage/file.h"
#include "util/crc32.h"
#include "util/varint.h"

namespace approxql::shard {

using util::Result;
using util::Status;

namespace {
// "AQLM" + format version, leading every serialized manifest.
constexpr uint32_t kMagic = 0x41514c4d;
constexpr uint32_t kVersion = 1;
}  // namespace

std::optional<doc::NodeId> SpanToGlobal(const std::vector<DocSpan>& spans,
                                        doc::NodeId local) {
  if (local == 0) return doc::NodeId{0};  // shard super-root
  auto it = std::upper_bound(spans.begin(), spans.end(), local,
                             [](doc::NodeId value, const DocSpan& span) {
                               return value < span.local_start;
                             });
  if (it == spans.begin()) return std::nullopt;
  const DocSpan& span = *(it - 1);
  if (local - span.local_start >= span.length) return std::nullopt;
  return span.global_start + (local - span.local_start);
}

LayoutManifest::LayoutManifest(uint32_t fingerprint, cost::CostModel model,
                               std::vector<std::vector<DocSpan>> spans)
    : fingerprint_(fingerprint),
      model_(std::move(model)),
      spans_(std::move(spans)) {
  for (size_t i = 0; i < spans_.size(); ++i) {
    for (const DocSpan& span : spans_[i]) {
      docs_.push_back({span.global_start, span.length,
                       static_cast<uint32_t>(i), span.local_start});
    }
  }
  std::sort(docs_.begin(), docs_.end(),
            [](const GlobalDoc& a, const GlobalDoc& b) {
              return a.global_start < b.global_start;
            });
}

const LayoutManifest::GlobalDoc* LayoutManifest::FindDoc(
    doc::NodeId global) const {
  auto it = std::upper_bound(docs_.begin(), docs_.end(), global,
                             [](doc::NodeId value, const GlobalDoc& d) {
                               return value < d.global_start;
                             });
  if (it == docs_.begin()) return nullptr;
  const GlobalDoc& d = *(it - 1);
  return global - d.global_start < d.length ? &d : nullptr;
}

bool LayoutManifest::ToLocal(doc::NodeId global, uint32_t* shard_out,
                             doc::NodeId* local_out) const {
  if (global == 0) {
    *shard_out = 0;
    *local_out = 0;
    return true;
  }
  const GlobalDoc* d = FindDoc(global);
  if (d == nullptr) return false;
  *shard_out = d->shard;
  *local_out = d->local_start + (global - d->global_start);
  return true;
}

doc::NodeId LayoutManifest::DocRootOf(doc::NodeId global) const {
  if (global == 0) return 0;
  const GlobalDoc* d = FindDoc(global);
  return d != nullptr ? d->global_start : 0;
}

std::string LayoutManifest::Serialize() const {
  std::string out;
  util::PutVarint32(&out, kMagic);
  util::PutVarint32(&out, kVersion);
  util::PutVarint32(&out, fingerprint_);
  const std::string model = model_.ToConfigString();
  util::PutVarint64(&out, model.size());
  out += model;
  util::PutVarint64(&out, spans_.size());
  for (const std::vector<DocSpan>& shard : spans_) {
    util::PutVarint64(&out, shard.size());
    for (const DocSpan& span : shard) {
      util::PutVarint32(&out, span.local_start);
      util::PutVarint32(&out, span.global_start);
      util::PutVarint32(&out, span.length);
    }
  }
  util::PutVarint32(&out, util::Crc32c(out));
  return out;
}

Result<LayoutManifest> LayoutManifest::Deserialize(std::string_view data) {
  util::VarintReader reader(data);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t fingerprint = 0;
  RETURN_IF_ERROR(reader.GetVarint32(&magic));
  if (magic != kMagic) {
    return Status::Corruption("not a layout manifest (bad magic)");
  }
  RETURN_IF_ERROR(reader.GetVarint32(&version));
  if (version != kVersion) {
    return Status::Corruption("unsupported layout manifest version " +
                              std::to_string(version));
  }
  RETURN_IF_ERROR(reader.GetVarint32(&fingerprint));
  uint64_t model_size = 0;
  RETURN_IF_ERROR(reader.GetVarint64(&model_size));
  if (model_size > reader.remaining()) {
    return Status::Corruption("layout manifest cost model overruns blob");
  }
  std::string_view model_text;
  RETURN_IF_ERROR(reader.GetBytes(model_size, &model_text));
  ASSIGN_OR_RETURN(cost::CostModel model, cost::CostModel::ParseConfig(model_text));
  uint64_t num_shards = 0;
  RETURN_IF_ERROR(reader.GetVarint64(&num_shards));
  // Every claimed count is checked against the bytes that could satisfy
  // it BEFORE sizing any container: a hostile 5-byte varint must produce
  // a clean Corruption, never a multi-gigabyte allocation. Each shard
  // contributes at least its span-count varint (1 byte); each span is at
  // least three 1-byte varints.
  if (num_shards > reader.remaining()) {
    return Status::Corruption("layout manifest shard count overruns blob");
  }
  std::vector<std::vector<DocSpan>> spans(num_shards);
  for (uint64_t i = 0; i < num_shards; ++i) {
    uint64_t count = 0;
    RETURN_IF_ERROR(reader.GetVarint64(&count));
    if (count > reader.remaining() / 3) {
      return Status::Corruption("layout manifest span count overruns blob");
    }
    spans[i].reserve(count);
    for (uint64_t d = 0; d < count; ++d) {
      DocSpan span;
      RETURN_IF_ERROR(reader.GetVarint32(&span.local_start));
      RETURN_IF_ERROR(reader.GetVarint32(&span.global_start));
      RETURN_IF_ERROR(reader.GetVarint32(&span.length));
      // ToGlobal/DocRootOf binary-search these tables assuming the
      // ShardedDatabase invariant; a manifest that violates it would
      // mistranslate ids (or walk off the table), so reject it here.
      if (span.local_start == 0 || span.global_start == 0 ||
          span.length == 0 ||
          static_cast<uint64_t>(span.local_start) + span.length >
              UINT32_MAX ||
          static_cast<uint64_t>(span.global_start) + span.length >
              UINT32_MAX) {
        return Status::Corruption("layout manifest span out of range");
      }
      if (!spans[i].empty()) {
        const DocSpan& prev = spans[i].back();
        if (span.local_start < prev.local_start + prev.length ||
            span.global_start < prev.global_start + prev.length) {
          return Status::Corruption(
              "layout manifest spans overlap or regress");
        }
      }
      spans[i].push_back(span);
    }
  }
  const size_t body_end = reader.position();
  uint32_t crc = 0;
  RETURN_IF_ERROR(reader.GetVarint32(&crc));
  if (crc != util::Crc32c(data.substr(0, body_end))) {
    return Status::Corruption("layout manifest checksum mismatch");
  }
  return LayoutManifest(fingerprint, std::move(model), std::move(spans));
}

Status LayoutManifest::SaveTo(const std::string& path) const {
  return storage::WriteFileDurably(path, Serialize());
}

Result<LayoutManifest> LayoutManifest::LoadFrom(const std::string& path) {
  ASSIGN_OR_RETURN(std::string blob, storage::ReadWholeFile(path));
  return Deserialize(blob);
}

}  // namespace approxql::shard
