// A PostingSource that reads postings out of a KvStore on first use and
// caches the decoded lists — the paper's deployment shape ("implemented
// in C++ on top of the Berkeley DB", Section 8.1): queries hit the
// store for exactly the labels they mention instead of loading the
// whole index up front.
#ifndef APPROXQL_INDEX_STORED_LABEL_INDEX_H_
#define APPROXQL_INDEX_STORED_LABEL_INDEX_H_

#include <memory>
#include <string>
#include <unordered_map>

#include "index/label_index.h"
#include "storage/kv_store.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace approxql::index {

class StoredLabelIndex : public PostingSource {
 public:
  /// Reads postings persisted by LabelIndex::PersistTo(store, prefix).
  /// The store must outlive this object.
  ///
  /// `node_limit` bounds what this index can see: decoded postings are
  /// truncated to ids strictly below it (kInvalidNode = unbounded).
  /// Snapshot isolation for live ingest rests on it — appending a
  /// document only ever appends ids >= the old tree size to stored
  /// postings, so an older snapshot reading the same store through its
  /// own limit reproduces exactly the postings it was built over.
  StoredLabelIndex(const storage::KvStore* store, std::string prefix,
                   doc::NodeId node_limit = doc::kInvalidNode)
      : store_(store), prefix_(std::move(prefix)), node_limit_(node_limit) {}

  /// Copies every posting of `index` (truncated to the node limit) into
  /// the cache and seals this object: later cache misses return nullptr
  /// instead of touching the store. Document removal renumbers node ids
  /// and rewrites stored postings in place, which truncation cannot mask
  /// — live snapshots are preloaded first so they never read the store
  /// again. Postings already cached keep their (stable) pointers.
  void Preload(const LabelIndex& index);

  /// Fetches from the cache or the store. Unknown labels and postings
  /// that fail to decode return nullptr (a decode failure is also
  /// recorded; see corrupt_fetches()).
  const Posting* Fetch(NodeType type, doc::LabelId label) const override;

  /// Number of postings materialized so far.
  size_t CachedCount() const {
    util::MutexLock lock(&mu_);
    return cache_.size();
  }
  /// Store reads that returned corrupt bytes (should stay 0).
  size_t corrupt_fetches() const {
    util::MutexLock lock(&mu_);
    return corrupt_fetches_;
  }

  /// Contention counters: fetches that found the store mutex held by
  /// another thread, and the total time they spent waiting for it. The
  /// sharding bench reports these against the single-shared-store
  /// baseline (per-shard stores should drive both toward zero).
  uint64_t lock_waits() const {
    util::MutexLock lock(&mu_);
    return lock_waits_;
  }
  uint64_t lock_wait_us() const {
    util::MutexLock lock(&mu_);
    return lock_wait_us_;
  }

 private:
  static uint64_t Key(NodeType type, doc::LabelId label) {
    return (static_cast<uint64_t>(type) << 32) | label;
  }

  const storage::KvStore* store_;
  std::string prefix_;
  doc::NodeId node_limit_;
  // Guards the lazy cache: Fetch is const but materializes postings on
  // first use, and concurrent Execute calls share one index. Returned
  // Posting pointers stay stable outside the lock because entries are
  // heap-allocated and never erased. The underlying KvStore read also
  // happens under the lock — DiskKvStore's page cache is not itself
  // thread-safe.
  mutable util::Mutex mu_;
  // Pointers into the map stay valid under rehash (node-based), which
  // is what lets Fetch hand out stable Posting pointers.
  mutable std::unordered_map<uint64_t, std::unique_ptr<Posting>> cache_
      GUARDED_BY(mu_);
  mutable bool sealed_ GUARDED_BY(mu_) = false;
  mutable size_t corrupt_fetches_ GUARDED_BY(mu_) = 0;
  mutable uint64_t lock_waits_ GUARDED_BY(mu_) = 0;
  mutable uint64_t lock_wait_us_ GUARDED_BY(mu_) = 0;
};

}  // namespace approxql::index

#endif  // APPROXQL_INDEX_STORED_LABEL_INDEX_H_
