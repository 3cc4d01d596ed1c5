// Append-only blob store: the OID-addressed large-object storage the
// FullSFA and StaccatoGraph columns point into (the paper stores serialized
// transducers as Postgres large objects).
//
// Concurrency contract: Get/GetInto/GetCached are safe to call from any
// number of threads at once — reads use positioned I/O (pread) on the
// underlying descriptor, so they share no file-position state and proceed
// fully in parallel. This is the storage half of the executor's parallel
// Fetch stage. Put and Flush (and the load-time truncate/reopen in
// StaccatoDb::Load) require external exclusion: no concurrent Gets while
// the store is being written.
//
// Cache-aware reads: attach a shared BufferCache with set_cache and read
// through GetCached, keyed on (representation, doc, load_generation) via
// BlobCacheKey. A hit pins the cached value (no heap-table access, no
// pread); a miss reads from disk and installs the blob — or, given a
// decoder, what the decoder makes of it — under the key.
// Because the key carries the database's load generation, Load /
// BuildInvertedIndex invalidation falls out of the existing generation
// bump — stale entries are simply never matched again.
#pragma once

#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "cache/buffer_cache.h"
#include "util/mutex.h"
#include "util/result.h"

namespace staccato::rdbms {

using BlobId = uint64_t;

/// \brief Read accounting, counted identically by every read path: Get,
/// GetInto, and GetCached all count one `reads`; `bytes_read` counts
/// physical disk bytes only (a cache hit serves no physical bytes and
/// counts under `cache_hits` instead). Counters are shared across
/// concurrent readers, so per-query attribution is only meaningful when
/// one query runs at a time — same caveat as HeapTable::io_stats().
struct BlobIoStats {
  uint64_t reads = 0;         ///< blob reads served (any path)
  uint64_t bytes_read = 0;    ///< physical bytes read from disk
  uint64_t cache_hits = 0;    ///< GetCached served from the buffer cache
  uint64_t cache_misses = 0;  ///< GetCached that had to touch disk
};

/// Blob-cache key namespaces: one per stored representation. Table page
/// namespaces are per-instance counters starting at 1, so these can never
/// collide with them.
inline constexpr uint64_t kCacheSpaceFullSfaBlob = ~uint64_t{0} - 1;
inline constexpr uint64_t kCacheSpaceStaccatoBlob = ~uint64_t{0} - 2;

/// The executor's blob-cache key: (representation, doc, load generation).
inline cache::CacheKey BlobCacheKey(bool full_sfa, uint64_t doc,
                                    uint64_t load_generation) {
  return cache::CacheKey{
      full_sfa ? kCacheSpaceFullSfaBlob : kCacheSpaceStaccatoBlob, doc,
      load_generation};
}

/// \brief File-backed append-only blob store.
class BlobStore {
 public:
  static Result<std::unique_ptr<BlobStore>> Create(const std::string& path);
  static Result<std::unique_ptr<BlobStore>> Open(const std::string& path);

  ~BlobStore();
  BlobStore(const BlobStore&) = delete;
  BlobStore& operator=(const BlobStore&) = delete;

  /// Appends a blob; the returned id is its file offset. External-exclusive
  /// (load path only).
  Result<BlobId> Put(const std::string& data);

  /// Reads a blob back. Concurrent-safe: buffered writes are flushed once
  /// (under a mutex), then the payload is read with pread, which takes no
  /// lock and shares no seek position.
  Result<std::string> Get(BlobId id);

  /// Buffer-reusing flavour for hot read loops: resizes `*out` to the blob
  /// length, reusing its capacity, so a worker that keeps one buffer warm
  /// reads successive blobs without heap allocation. Same concurrency
  /// contract as Get; distinct callers must pass distinct buffers. Reports
  /// exactly the io_stats() a Get of the same blob would.
  Status GetInto(BlobId id, std::string* out);

  /// Cache-aware read: consults the attached buffer cache under `key`; on
  /// a miss, reads the blob from disk and installs it. The returned handle
  /// pins the bytes (zero-copy view) until released. Without an attached
  /// cache this degrades to a plain disk read on a detached handle, so
  /// callers need not branch. Same concurrency contract as Get.
  Result<cache::BufferCache::Handle> GetCached(BlobId id,
                                               const cache::CacheKey& key);

  /// Turns the wire bytes a miss read into the value the cache keeps (the
  /// executor passes DecodeSfaImage, so its cache entries are decoded SFA
  /// images). Its failure is returned as is and nothing is cached.
  using CacheDecoder =
      std::function<Result<std::string>(std::string_view wire)>;

  /// GetCached for callers whose blob id itself costs a lookup (the
  /// executor resolves it with a heap point get): `resolve_id` runs only
  /// on a cache miss, so a hit serves the pinned value with no heap-table
  /// access and no pread at all. With a `decode`, a miss caches (or, with
  /// no cache attached, hands back detached) `decode(wire bytes)` instead
  /// of the wire bytes, so the transform runs once per miss, never on a
  /// hit. Every key must always be read with the same decoder.
  Result<cache::BufferCache::Handle> GetCached(
      const cache::CacheKey& key,
      const std::function<Result<BlobId>()>& resolve_id,
      const CacheDecoder& decode = nullptr);

  /// Attaches the process-shared buffer cache (null detaches). Not
  /// synchronized against concurrent reads: wire it at open/load time.
  void set_cache(cache::BufferCache* cache) { cache_ = cache; }
  cache::BufferCache* cache() const { return cache_; }

  /// Pushes buffered writes to disk. Call before another handle truncates
  /// or reopens the same file. The dirty flag is cleared only when the
  /// flush actually succeeds, so a failed flush is retried (and surfaced)
  /// by the next Get instead of silently reading stale bytes.
  Status Flush();

  /// Flush + fsync: the durability barrier Checkpoint uses before
  /// committing a new epoch's blob file.
  Status Sync();

  uint64_t FileBytes() const { return end_; }

  /// Snapshot of the read counters (see BlobIoStats for the contract).
  BlobIoStats io_stats() const {
    BlobIoStats s;
    s.reads = reads_.load(std::memory_order_relaxed);
    s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
    s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
    s.cache_misses = cache_misses_.load(std::memory_order_relaxed);
    return s;
  }
  uint64_t bytes_read() const {
    return bytes_read_.load(std::memory_order_relaxed);
  }
  void ResetStats() {
    reads_.store(0, std::memory_order_relaxed);
    bytes_read_.store(0, std::memory_order_relaxed);
    cache_hits_.store(0, std::memory_order_relaxed);
    cache_misses_.store(0, std::memory_order_relaxed);
  }

  /// Lifetime (never reset) cache-hit counters over *blob* reads only —
  /// what the planner's warm-cache Fetch pricing reads. The shared
  /// BufferCache's own stats mix in heap-page traffic, which says nothing
  /// about how warm the blobs are; these do.
  uint64_t lifetime_cache_hits() const {
    return lifetime_hits_.load(std::memory_order_relaxed);
  }
  uint64_t lifetime_cache_misses() const {
    return lifetime_misses_.load(std::memory_order_relaxed);
  }

 private:
  explicit BlobStore(std::string path) : path_(std::move(path)) {}

  std::string path_;
  FILE* file_ = nullptr;
  int fd_ = -1;        ///< fileno(file_), used by the pread read path
  uint64_t end_ = 0;   ///< mutated only under the external-exclusive contract
  std::atomic<bool> dirty_{false};  ///< writes buffered since the last flush
  /// Serializes the flush-before-read (the buffered FILE* state during
  /// fflush); dirty_ is double-checked under it. No named field is
  /// guarded: the steady read path is atomics + pread by design.
  util::Mutex flush_mu_;
  cache::BufferCache* cache_ = nullptr;  ///< borrowed; see set_cache
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  std::atomic<uint64_t> lifetime_hits_{0};    ///< never reset (planner)
  std::atomic<uint64_t> lifetime_misses_{0};  ///< never reset (planner)
};

}  // namespace staccato::rdbms
