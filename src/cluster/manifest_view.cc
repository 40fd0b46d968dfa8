#include "cluster/manifest_view.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace approxql::cluster {

using util::Result;
using util::Status;

ManifestView::ManifestView(size_t num_shards, size_t history_depth)
    : num_shards_(num_shards), history_depth_(history_depth) {
  shards_.resize(num_shards);
}

void ManifestView::FileHistory(PerShard* shard, ShardSlice slice) {
  for (const ShardSlice& held : shard->history) {
    if (held.epoch == slice.epoch) return;
  }
  shard->history.push_front(std::move(slice));
  std::sort(shard->history.begin(), shard->history.end(),
            [](const ShardSlice& a, const ShardSlice& b) {
              return a.epoch > b.epoch;
            });
  while (shard->history.size() > history_depth_) {
    shard->history.pop_back();
  }
}

void ManifestView::InstallSlice(uint32_t shard, uint64_t epoch,
                                std::vector<shard::DocSpan> spans) {
  APPROXQL_CHECK(shard < num_shards_) << "slice for unknown shard " << shard;
  util::MutexLock lock(&mu_);
  PerShard& state = shards_[shard];
  if (!state.known) {
    state.known = true;
    state.current = {epoch, std::move(spans)};
    return;
  }
  if (epoch > state.current.epoch) {
    FileHistory(&state, std::move(state.current));
    state.current = {epoch, std::move(spans)};
    return;
  }
  if (epoch == state.current.epoch) return;
  // A fetch that raced a publish: still a valid description of that
  // (older) epoch, so keep it translatable — but never regress current.
  FileHistory(&state, {epoch, std::move(spans)});
}

bool ManifestView::ApplyDelta(const net::WireManifestDelta& delta) {
  if (delta.shard_index >= num_shards_) return false;
  util::MutexLock lock(&mu_);
  PerShard& state = shards_[delta.shard_index];
  if (!state.known) return false;  // no base to apply against
  if (delta.epoch <= state.current.epoch) return true;  // stale duplicate
  if (delta.prev_epoch != state.current.epoch) return false;  // gap

  ShardSlice next;
  next.epoch = delta.epoch;
  next.spans = state.current.spans;
  if (delta.op == net::WireManifestDelta::Op::kAdd) {
    // Spans stay sorted: a new document always appends past the end of
    // both id spaces on its shard.
    if (!next.spans.empty()) {
      const shard::DocSpan& last = next.spans.back();
      if (delta.span.local_start < last.local_start + last.length ||
          delta.span.global_start < last.global_start + last.length) {
        return false;  // inconsistent with the held slice; force a fetch
      }
    }
    next.spans.push_back(delta.span);
  } else {
    auto it = std::find_if(next.spans.begin(), next.spans.end(),
                           [&](const shard::DocSpan& span) {
                             return span.global_start ==
                                    delta.span.global_start;
                           });
    if (it == next.spans.end() || it->length != delta.span.length) {
      return false;  // the held slice never had this document
    }
    const uint32_t removed_length = it->length;
    it = next.spans.erase(it);
    // The shard rebuilds its tree compactly after a removal: every
    // later document's local ids shift down by the removed length.
    for (; it != next.spans.end(); ++it) {
      it->local_start -= removed_length;
    }
  }
  FileHistory(&state, std::move(state.current));
  state.current = std::move(next);
  return true;
}

uint64_t ManifestView::epoch(uint32_t shard) const {
  util::MutexLock lock(&mu_);
  return shard < num_shards_ ? shards_[shard].current.epoch : 0;
}

bool ManifestView::known(uint32_t shard) const {
  util::MutexLock lock(&mu_);
  return shard < num_shards_ && shards_[shard].known;
}

Result<doc::NodeId> ManifestView::ToGlobal(uint32_t shard, uint64_t epoch,
                                           doc::NodeId local) const {
  if (shard >= num_shards_) {
    return Status::InvalidArgument("unknown shard " + std::to_string(shard));
  }
  util::MutexLock lock(&mu_);
  const PerShard& state = shards_[shard];
  const ShardSlice* slice = nullptr;
  if (state.known && state.current.epoch == epoch) {
    slice = &state.current;
  } else {
    for (const ShardSlice& held : state.history) {
      if (held.epoch == epoch) {
        slice = &held;
        break;
      }
    }
  }
  if (slice == nullptr) {
    // Unavailable = retryable: the caller fetches the missing slice and
    // retranslates, unlike InvalidArgument below (a real inconsistency).
    return Status::Unavailable(
        "no manifest slice for shard " + std::to_string(shard) + " at epoch " +
        std::to_string(epoch) + " (view at " +
        std::to_string(state.current.epoch) + ")");
  }
  std::optional<doc::NodeId> global = shard::SpanToGlobal(slice->spans, local);
  if (!global.has_value()) {
    return Status::InvalidArgument("local id " + std::to_string(local) +
                                   " outside every span at epoch " +
                                   std::to_string(epoch));
  }
  return *global;
}

bool ManifestView::FindDocument(doc::NodeId global_root, uint32_t* shard_out,
                                shard::DocSpan* span_out) const {
  util::MutexLock lock(&mu_);
  for (size_t i = 0; i < shards_.size(); ++i) {
    const PerShard& state = shards_[i];
    if (!state.known) continue;
    auto it = std::lower_bound(
        state.current.spans.begin(), state.current.spans.end(), global_root,
        [](const shard::DocSpan& span, doc::NodeId value) {
          return span.global_start < value;
        });
    if (it != state.current.spans.end() && it->global_start == global_root) {
      *shard_out = static_cast<uint32_t>(i);
      *span_out = *it;
      return true;
    }
  }
  return false;
}

doc::NodeId ManifestView::DocRootOf(doc::NodeId global) const {
  if (global == 0) return 0;
  util::MutexLock lock(&mu_);
  for (const PerShard& state : shards_) {
    if (!state.known) continue;
    auto it = std::upper_bound(
        state.current.spans.begin(), state.current.spans.end(), global,
        [](doc::NodeId value, const shard::DocSpan& span) {
          return value < span.global_start;
        });
    if (it == state.current.spans.begin()) continue;
    const shard::DocSpan& span = *(it - 1);
    if (global < span.global_start + span.length) return span.global_start;
  }
  return 0;
}

doc::NodeId ManifestView::NextGlobal() const {
  util::MutexLock lock(&mu_);
  doc::NodeId next = 1;  // 0 is the super-root
  for (const PerShard& state : shards_) {
    if (!state.known || state.current.spans.empty()) continue;
    const shard::DocSpan& last = state.current.spans.back();
    next = std::max(next, last.global_start + last.length);
  }
  return next;
}

size_t ManifestView::document_count() const {
  util::MutexLock lock(&mu_);
  size_t count = 0;
  for (const PerShard& state : shards_) {
    count += state.current.spans.size();
  }
  return count;
}

ShardSlice ManifestView::CurrentSlice(uint32_t shard) const {
  util::MutexLock lock(&mu_);
  APPROXQL_CHECK(shard < num_shards_);
  return shards_[shard].current;
}

}  // namespace approxql::cluster
