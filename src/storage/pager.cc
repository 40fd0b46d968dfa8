#include "storage/pager.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/crc32.h"

namespace approxql::storage {

using util::Result;
using util::Status;

namespace {

constexpr uint32_t kMagic = 0x41505132;  // "APQ2" (v2: page checksums)
constexpr size_t kMagicOffset = 0;
constexpr size_t kPageSizeOffset = 4;
constexpr size_t kPageCountOffset = 8;
constexpr size_t kFreelistOffset = 12;
constexpr size_t kMetaSlotsOffset = 16;

void PutU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

Result<std::unique_ptr<Pager>> Pager::Open(const std::string& path,
                                           bool create_if_missing) {
  std::FILE* file = std::fopen(path.c_str(), "r+b");
  bool fresh = false;
  if (file == nullptr) {
    if (!create_if_missing) {
      return Status::IoError("cannot open " + path);
    }
    file = std::fopen(path.c_str(), "w+b");
    if (file == nullptr) {
      return Status::IoError("cannot create " + path);
    }
    fresh = true;
  }
  std::unique_ptr<Pager> pager(new Pager(file, path));
  if (fresh) {
    pager->meta_dirty_ = true;
    RETURN_IF_ERROR(pager->WriteMeta());
  } else {
    RETURN_IF_ERROR(pager->LoadMeta());
  }
  return pager;
}

Pager::~Pager() {
  if (file_ != nullptr) {
    Status s = Flush();
    if (!s.ok()) {
      APPROXQL_LOG(Error) << "flush on close failed for " << path_ << ": "
                          << s;
    }
    std::fclose(file_);
  }
}

Status Pager::LoadMeta() {
  Page meta;
  RETURN_IF_ERROR(ReadPageFromFile(0, &meta));
  const uint8_t* d = meta.data.data();
  if (GetU32(d + kMagicOffset) != kMagic) {
    return Status::Corruption(path_ + ": bad magic (not an approxql store)");
  }
  if (GetU32(d + kPageSizeOffset) != kPageSize) {
    return Status::Corruption(path_ + ": page size mismatch");
  }
  page_count_ = GetU32(d + kPageCountOffset);
  freelist_head_ = GetU32(d + kFreelistOffset);
  if (page_count_ == 0) {
    return Status::Corruption(path_ + ": zero page count");
  }
  for (int i = 0; i < 4; ++i) {
    meta_slots_[i] = GetU32(d + kMetaSlotsOffset + 4 * static_cast<size_t>(i));
  }
  return Status::OK();
}

Status Pager::WriteMeta() {
  Page meta;
  meta.data.assign(kPageSize, 0);
  uint8_t* d = meta.data.data();
  PutU32(d + kMagicOffset, kMagic);
  PutU32(d + kPageSizeOffset, kPageSize);
  PutU32(d + kPageCountOffset, page_count_);
  PutU32(d + kFreelistOffset, freelist_head_);
  for (int i = 0; i < 4; ++i) {
    PutU32(d + kMetaSlotsOffset + 4 * static_cast<size_t>(i), meta_slots_[i]);
  }
  RETURN_IF_ERROR(WritePageToFile(0, &meta));
  meta_dirty_ = false;
  return Status::OK();
}

Status Pager::ReadPageFromFile(PageId id, Page* page) {
  page->data.assign(kPageSize, 0);
  if (std::fseek(file_, static_cast<long>(id) * static_cast<long>(kPageSize),
                 SEEK_SET) != 0) {
    return Status::IoError(path_ + ": seek failed");
  }
  size_t n = std::fread(page->data.data(), 1, kPageSize, file_);
  if (n != kPageSize) {
    return Status::IoError(path_ + ": short read of page " +
                           std::to_string(id));
  }
  uint32_t stored = GetU32(page->data.data() + kPageUsableSize);
  uint32_t computed = util::Crc32c(page->data.data(), kPageUsableSize);
  if (stored != computed) {
    return Status::Corruption(path_ + ": checksum mismatch on page " +
                              std::to_string(id));
  }
  return Status::OK();
}

Status Pager::WritePageToFile(PageId id, Page* page) {
  APPROXQL_DCHECK(page->data.size() == kPageSize);
  // The checksum trailer is (re)computed on every write; callers never
  // touch the last four bytes.
  PutU32(page->data.data() + kPageUsableSize,
         util::Crc32c(page->data.data(), kPageUsableSize));
  if (std::fseek(file_, static_cast<long>(id) * static_cast<long>(kPageSize),
                 SEEK_SET) != 0) {
    return Status::IoError(path_ + ": seek failed");
  }
  if (std::fwrite(page->data.data(), 1, kPageSize, file_) != kPageSize) {
    return Status::IoError(path_ + ": short write of page " +
                           std::to_string(id));
  }
  return Status::OK();
}

Result<PageId> Pager::Allocate() {
  PageId id;
  if (freelist_head_ != kInvalidPage) {
    id = freelist_head_;
    ASSIGN_OR_RETURN(Page * page, Fetch(id));
    freelist_head_ = GetU32(page->data.data());
    page->data.assign(kPageSize, 0);
    page->dirty = true;
  } else {
    id = page_count_++;
    auto page = std::make_unique<Page>();
    page->data.assign(kPageSize, 0);
    page->dirty = true;
    cache_[id] = std::move(page);
  }
  meta_dirty_ = true;
  return id;
}

Status Pager::Free(PageId id) {
  APPROXQL_CHECK(id != 0) << "cannot free the meta page";
  ASSIGN_OR_RETURN(Page * page, Fetch(id));
  page->data.assign(kPageSize, 0);
  PutU32(page->data.data(), freelist_head_);
  page->dirty = true;
  freelist_head_ = id;
  meta_dirty_ = true;
  return Status::OK();
}

Result<Page*> Pager::Fetch(PageId id) {
  if (id >= page_count_) {
    return Status::OutOfRange("page " + std::to_string(id) +
                              " beyond page count " +
                              std::to_string(page_count_));
  }
  auto it = cache_.find(id);
  if (it != cache_.end()) {
    it->second->last_use = ++use_clock_;
    return it->second.get();
  }
  auto page = std::make_unique<Page>();
  RETURN_IF_ERROR(ReadPageFromFile(id, page.get()));
  page->last_use = ++use_clock_;
  Page* raw = page.get();
  cache_[id] = std::move(page);
  return raw;
}

Status Pager::EvictIfNeeded() {
  if (cache_limit_ == 0 || cache_.size() <= cache_limit_) {
    return Status::OK();
  }
  // Collect (last_use, id), oldest first; keep the newest cache_limit_.
  std::vector<std::pair<uint64_t, PageId>> by_age;
  by_age.reserve(cache_.size());
  for (const auto& [id, page] : cache_) {
    by_age.emplace_back(page->last_use, id);
  }
  std::sort(by_age.begin(), by_age.end());
  size_t to_evict = cache_.size() - cache_limit_;
  for (size_t i = 0; i < to_evict; ++i) {
    auto it = cache_.find(by_age[i].second);
    APPROXQL_DCHECK(it != cache_.end());
    if (it->second->dirty) {
      RETURN_IF_ERROR(WritePageToFile(it->first, it->second.get()));
    }
    cache_.erase(it);
  }
  return Status::OK();
}

void Pager::MarkDirty(PageId id) {
  auto it = cache_.find(id);
  APPROXQL_CHECK(it != cache_.end()) << "MarkDirty on unfetched page " << id;
  it->second->dirty = true;
}

Status Pager::Flush() {
  for (auto& [id, page] : cache_) {
    if (page->dirty) {
      RETURN_IF_ERROR(WritePageToFile(id, page.get()));
      page->dirty = false;
    }
  }
  if (meta_dirty_) {
    RETURN_IF_ERROR(WriteMeta());
  }
  if (std::fflush(file_) != 0) {
    return Status::IoError(path_ + ": fflush failed");
  }
  return Status::OK();
}

Status Pager::Sync() {
  RETURN_IF_ERROR(Flush());
  if (::fsync(fileno(file_)) != 0) {
    return Status::IoError(path_ + ": fsync failed");
  }
  return Status::OK();
}

uint32_t Pager::GetMetaSlot(int slot) const {
  APPROXQL_DCHECK(slot >= 0 && slot < 4);
  return meta_slots_[slot];
}

void Pager::SetMetaSlot(int slot, uint32_t value) {
  APPROXQL_DCHECK(slot >= 0 && slot < 4);
  meta_slots_[slot] = value;
  meta_dirty_ = true;
}

size_t Pager::freelist_size() const {
  // Walking the freelist requires const_cast-free fetches; cheap count by
  // following links in the cache/file is only used by tests, so we accept
  // the mutable fetch through a const_cast here.
  size_t n = 0;
  Pager* self = const_cast<Pager*>(this);
  PageId cursor = freelist_head_;
  while (cursor != kInvalidPage) {
    ++n;
    auto page = self->Fetch(cursor);
    if (!page.ok()) break;
    cursor = GetU32((*page)->data.data());
  }
  return n;
}

}  // namespace approxql::storage
