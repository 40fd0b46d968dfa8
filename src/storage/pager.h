// Page-level file manager: fixed-size pages in a single file, a freelist
// of recycled pages, and a write-back cache. The B+tree sits on top.
//
// Concurrency/durability contract: single-threaded, single-writer; pages
// are flushed explicitly (Flush/close). Crash atomicity is out of scope
// for this reproduction substrate and documented in DESIGN.md.
#ifndef APPROXQL_STORAGE_PAGER_H_
#define APPROXQL_STORAGE_PAGER_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace approxql::storage {

using PageId = uint32_t;
inline constexpr PageId kInvalidPage = 0;  // page 0 is the meta page
inline constexpr size_t kPageSize = 4096;
/// The last four bytes of every page hold a CRC-32C of the rest,
/// verified on every read from disk; page content must stay below this.
inline constexpr size_t kPageUsableSize = kPageSize - 4;

struct Page {
  std::vector<uint8_t> data;
  bool dirty = false;
  uint64_t last_use = 0;  // LRU stamp maintained by the pager
};

class Pager {
 public:
  /// Opens or creates the file. A fresh file gets a meta page; an
  /// existing file is validated (magic, page size, length).
  static util::Result<std::unique_ptr<Pager>> Open(const std::string& path,
                                                   bool create_if_missing);

  ~Pager();
  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  /// Allocates a page (recycling the freelist first). The returned page
  /// is zeroed and dirty.
  util::Result<PageId> Allocate();

  /// Returns the freed page to the freelist.
  util::Status Free(PageId id);

  /// Fetches a page through the cache. The returned pointer is valid
  /// until the next EvictIfNeeded() or pager destruction — callers must
  /// not hold it across other pager calls that may evict (the B+tree
  /// only uses pages transiently and evicts between public operations).
  util::Result<Page*> Fetch(PageId id);

  void MarkDirty(PageId id);

  /// Writes all dirty pages and the meta page.
  util::Status Flush();

  /// Flush() plus fsync: the pages are durable on media when this
  /// returns, not merely in the OS buffer cache.
  util::Status Sync();

  /// Caps the number of cached pages; 0 (default) = unbounded.
  void set_cache_limit(size_t pages) { cache_limit_ = pages; }
  size_t cached_pages() const { return cache_.size(); }

  /// Drops least-recently-used pages above the cache limit. Dirty pages
  /// are written back before being dropped. Invalidates Page pointers.
  util::Status EvictIfNeeded();

  /// 4 user-visible 32-bit slots in the meta page (the B+tree stores its
  /// root page id and entry count here).
  uint32_t GetMetaSlot(int slot) const;
  void SetMetaSlot(int slot, uint32_t value);

  PageId page_count() const { return page_count_; }
  size_t freelist_size() const;

 private:
  Pager(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}

  util::Status LoadMeta();
  util::Status WriteMeta();
  util::Status ReadPageFromFile(PageId id, Page* page);
  /// Stamps the checksum trailer, then writes.
  util::Status WritePageToFile(PageId id, Page* page);

  std::FILE* file_;
  std::string path_;
  PageId page_count_ = 1;       // includes the meta page
  PageId freelist_head_ = kInvalidPage;
  uint32_t meta_slots_[4] = {0, 0, 0, 0};
  bool meta_dirty_ = false;
  size_t cache_limit_ = 0;
  uint64_t use_clock_ = 0;
  std::unordered_map<PageId, std::unique_ptr<Page>> cache_;
};

}  // namespace approxql::storage

#endif  // APPROXQL_STORAGE_PAGER_H_
