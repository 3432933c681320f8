// Persistent cross-run verdict store: an on-disk map from
// (scope fingerprint, execution key) -> stored verdict.
//
// PR 5 proved that suspects with the same execution identity produce the
// same verdict *within* a batch (SuspectExecutionKey dedup). This store
// extends that identity across time: a fleet re-check after a small config
// push replays only never-before-seen executions — O(diff) instead of
// O(fleet). The store itself is deliberately semantics-free: it maps
// opaque (scope, key) pairs to small records with an opaque category tag.
// The injection layer owns what the fields mean and, critically, what goes
// into the scope fingerprint — any input that could change a verdict
// (target source, annotations, SUT spec, template, campaign options) must
// be folded into the scope so an edit lands in a fresh, empty scope.
//
// Durability model — append log + compaction:
//   header | record | record | ...
// Each record is CRC32-framed ([crc][len][payload]); payloads are
// fingerprint interns or verdicts. A corrupt, truncated, or
// version-mismatched store is *never trusted*: parsing stops at the first
// bad frame, the valid prefix is kept (writable handles truncate the bad
// tail away), and a bad header means "start empty". Every failure mode
// degrades to a cache miss, never to a wrong verdict.
//
// Concurrency model — single writer, lock-free readers:
//   - Lookup() is a pure read of an immutable index snapshot it loads
//     through an atomic shared_ptr. Any number of threads may call it
//     concurrently with appends.
//   - AppendBatch() serializes on an internal mutex and publishes a fresh
//     index snapshot (copy-on-write). Compaction runs only at open.
//   - Cross-process: the writer role is claimed via flock() on a sidecar
//     "<path>.lock" file. A second handle opening the same path gets a
//     read-only handle (lookups work, appends are counted and dropped).
//
// Staleness: a hit is trusted because the scope fingerprint covers every
// verdict-affecting input and the CRC framing rejects damaged records.
#ifndef SPEX_SUPPORT_VERDICT_STORE_H_
#define SPEX_SUPPORT_VERDICT_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/support/status.h"

namespace spex {

// One cached verdict. `category` is an opaque tag owned by the caller
// (the injection layer stores ReactionCategory); the store never
// interprets it. The fields are exactly the replay-produced fields that
// re-attribution copies between suspects sharing an execution identity,
// so a stored verdict reproduces a replay bit-for-bit.
struct StoredVerdict {
  uint8_t category = 0;
  bool pinpointed = false;
  int64_t tests_run = 0;
  std::string detail;
  std::vector<std::string> logs;

  bool operator==(const StoredVerdict& other) const {
    return category == other.category && pinpointed == other.pinpointed &&
           tests_run == other.tests_run && detail == other.detail &&
           logs == other.logs;
  }
};

struct VerdictStoreOptions {
  // Compact at open when dead records exceed this fraction of live ones.
  double compact_dead_ratio = 0.5;
  // ...but never bother compacting fewer dead records than this.
  size_t compact_min_dead = 64;
};

// Counters. Snapshot via stats(); all fields are cumulative for the
// lifetime of this handle except live_records (current index size).
struct VerdictStoreStats {
  uint64_t hits = 0;             // Lookups that found a record.
  uint64_t misses = 0;           // Lookups that found nothing.
  uint64_t appends = 0;          // Records durably appended by this handle.
  uint64_t dropped_appends = 0;  // Appends discarded (read-only handle).
  uint64_t live_records = 0;     // Verdicts currently in the index.
  uint64_t loaded_records = 0;   // Verdicts recovered from disk at open.
  uint64_t dropped_bytes = 0;    // Corrupt/truncated tail ignored at open.
  uint64_t compactions = 0;      // Open-time log rewrites.
  bool read_only = false;        // True when this handle cannot write.
};

// One pending write for AppendBatch().
struct VerdictAppend {
  uint64_t scope_id = 0;
  std::string key;
  StoredVerdict verdict;
};

class VerdictStore {
 public:
  // Opens (creating if needed) the store at `path`. Never fails hard: the
  // returned handle is always usable — worst case it behaves as an empty
  // read-only store. `status`, when non-null, reports the first
  // degradation (writer lock held elsewhere, corrupt tail dropped, bad
  // header reset) or Ok for a clean open.
  static std::shared_ptr<VerdictStore> Open(const std::string& path,
                                            VerdictStoreOptions options = {},
                                            Status* status = nullptr);
  ~VerdictStore();

  VerdictStore(const VerdictStore&) = delete;
  VerdictStore& operator=(const VerdictStore&) = delete;

  // Maps a scope fingerprint (arbitrary bytes) to a dense store-local id.
  // Ids are stable across reopen and compaction for the life of the file.
  // Thread-safe.
  uint64_t ResolveScope(std::string_view fingerprint);

  // Looks up a verdict. Lock-free; safe concurrently with appends.
  bool Lookup(uint64_t scope_id, std::string_view key, StoredVerdict* out) const;

  // Appends a batch of verdicts (last-wins on duplicate keys) and
  // publishes them for lookup. Returns how many records were durably
  // written — 0 on a read-only handle. Serialized internally; safe from
  // any thread.
  size_t AppendBatch(std::vector<VerdictAppend> appends);

  // Single-record convenience over AppendBatch.
  void Append(uint64_t scope_id, std::string_view key, StoredVerdict verdict);

  // fsync()s the log. Appends are otherwise buffered by the OS only.
  void Flush();

  VerdictStoreStats stats() const;
  size_t size() const;
  bool read_only() const { return !writable_; }
  const std::string& path() const { return path_; }

 private:
  // Keys are scope_id (8 bytes little-endian) + execution key bytes. Values
  // are shared so a copy-on-write index copy never copies verdicts.
  using Index =
      std::unordered_map<std::string, std::shared_ptr<const StoredVerdict>>;

  VerdictStore(std::string path, VerdictStoreOptions options);

  Status OpenInternal();
  // Parses [data, data+size), filling index/fingerprints. Returns the
  // offset just past the last valid record.
  size_t LoadRecords(const char* data, size_t size, Index* index);
  // Serializes pending fingerprint interns + appends under mutex_.
  bool WriteAll(const std::string& bytes);
  // Rewrites the log with only live records (scope ids preserved).
  Status CompactLocked();

  const std::string path_;
  const VerdictStoreOptions options_;

  // Reader-visible snapshot; swapped wholesale by writers.
  std::atomic<std::shared_ptr<const Index>> index_;

  // Writer state, all under mutex_.
  mutable std::mutex mutex_;
  int fd_ = -1;       // Data file (O_APPEND when writable).
  int lock_fd_ = -1;  // Sidecar lock file holding the flock.
  bool writable_ = false;
  std::vector<std::string> fingerprints_;          // id -> fingerprint.
  std::unordered_map<std::string, uint64_t> fingerprint_ids_;
  size_t durable_fingerprints_ = 0;  // Prefix of fingerprints_ on disk.
  size_t dead_records_ = 0;          // Overwritten log entries.

  // Stats (atomics: hits/misses are bumped from lock-free readers).
  mutable std::atomic<uint64_t> stat_hits_{0};
  mutable std::atomic<uint64_t> stat_misses_{0};
  std::atomic<uint64_t> stat_appends_{0};
  std::atomic<uint64_t> stat_dropped_appends_{0};
  std::atomic<uint64_t> stat_loaded_{0};
  std::atomic<uint64_t> stat_dropped_bytes_{0};
  std::atomic<uint64_t> stat_compactions_{0};
};

}  // namespace spex

#endif  // SPEX_SUPPORT_VERDICT_STORE_H_
