// Ordered key-value store interface. The paper's implementation stores
// its indexes in Berkeley DB; this interface is our substitute seam with
// two implementations: MemKvStore (std::map, for tests and tools) and
// DiskKvStore (single-file page-based B+tree), which engine::Database
// Save/Load use to persist a whole database. Queries never read a store:
// every engine::Database, sharded and live-ingest shards included,
// evaluates over its in-memory label indexes.
#ifndef APPROXQL_STORAGE_KV_STORE_H_
#define APPROXQL_STORAGE_KV_STORE_H_

#include <memory>
#include <string>
#include <string_view>

#include "util/status.h"

namespace approxql::storage {

/// Where a live-ingest corpus keeps its postings. Only in memory: the
/// postings are derived from the data tree, which the snapshot + WAL
/// make durable.
enum class StoreKind {
  kMem,
};

/// Forward iteration over key order. Invalidated by writes to the store.
class KvIterator {
 public:
  virtual ~KvIterator() = default;

  /// Positions on the first key >= `key`.
  virtual void Seek(std::string_view key) = 0;
  virtual void SeekToFirst() = 0;
  virtual bool Valid() const = 0;
  /// Precondition for Next/key/value: Valid().
  virtual void Next() = 0;
  virtual std::string_view key() const = 0;
  virtual std::string_view value() const = 0;
};

class KvStore {
 public:
  virtual ~KvStore() = default;

  /// Inserts or overwrites.
  virtual util::Status Put(std::string_view key, std::string_view value) = 0;
  /// NotFound if absent.
  virtual util::Result<std::string> Get(std::string_view key) const = 0;
  /// True in *existed if the key was present.
  virtual util::Status Delete(std::string_view key, bool* existed = nullptr) = 0;
  virtual util::Result<bool> Contains(std::string_view key) const = 0;
  virtual std::unique_ptr<KvIterator> NewIterator() const = 0;
  virtual size_t KeyCount() const = 0;
  /// Durability point for persistent stores; no-op for in-memory ones.
  virtual util::Status Flush() = 0;
};

}  // namespace approxql::storage

#endif  // APPROXQL_STORAGE_KV_STORE_H_
