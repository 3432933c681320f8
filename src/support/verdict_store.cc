#include "src/support/verdict_store.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace spex {
namespace {

// File layout constants. The magic doubles as the format version: any
// layout change bumps the trailing digit and old files open as empty.
constexpr char kMagic[8] = {'S', 'P', 'E', 'X', 'V', 'S', 'T', '1'};
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderBytes = 16;  // magic + u32 version + u32 reserved.
// A single record larger than this is treated as corruption, not data:
// it bounds how far a flipped length field can make the parser reach.
constexpr uint32_t kMaxRecordBytes = 1u << 26;

constexpr uint8_t kRecordFingerprint = 1;  // Interns the next scope id.
constexpr uint8_t kRecordVerdict = 2;
// Type 3 is retired: it was a tombstone record that only tests ever wrote.
// It now loads as an unknown type (the log is trusted only up to it), and
// it must never be reused for a new record kind, so that a file holding an
// old type-3 frame can never be misread as that new kind.

// CRC32 (IEEE, reflected) with a lazily built table — no zlib dependency.
const uint32_t* Crc32Table() {
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

uint32_t Crc32(const char* data, size_t size) {
  const uint32_t* table = Crc32Table();
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ static_cast<unsigned char>(data[i])) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

void PutU32(std::string* out, uint32_t value) {
  char bytes[4];
  std::memcpy(bytes, &value, 4);
  out->append(bytes, 4);
}

void PutU64(std::string* out, uint64_t value) {
  char bytes[8];
  std::memcpy(bytes, &value, 8);
  out->append(bytes, 8);
}

void PutBytes(std::string* out, std::string_view bytes) {
  PutU32(out, static_cast<uint32_t>(bytes.size()));
  out->append(bytes.data(), bytes.size());
}

// Bounds-checked forward reader over a record payload. Every Read* call
// fails (returns false) instead of walking off the end, so a bit flip
// that survives the CRC (or a logic bug) degrades to "stop loading here".
struct Cursor {
  const char* data;
  size_t size;
  size_t off = 0;

  bool ReadU8(uint8_t* out) {
    if (off + 1 > size) return false;
    *out = static_cast<uint8_t>(data[off]);
    off += 1;
    return true;
  }
  bool ReadU32(uint32_t* out) {
    if (off + 4 > size) return false;
    std::memcpy(out, data + off, 4);
    off += 4;
    return true;
  }
  bool ReadU64(uint64_t* out) {
    if (off + 8 > size) return false;
    std::memcpy(out, data + off, 8);
    off += 8;
    return true;
  }
  bool ReadBytes(std::string* out) {
    uint32_t len = 0;
    if (!ReadU32(&len) || off + len > size) return false;
    out->assign(data + off, len);
    off += len;
    return true;
  }
};

std::string ComposeKey(uint64_t scope_id, std::string_view key) {
  std::string composed;
  composed.reserve(8 + key.size());
  PutU64(&composed, scope_id);
  composed.append(key.data(), key.size());
  return composed;
}

std::string HeaderBytes() {
  std::string header(kMagic, sizeof(kMagic));
  PutU32(&header, kVersion);
  PutU32(&header, 0);  // Reserved.
  return header;
}

// Frames a payload as [crc][len][payload].
void AppendFrame(std::string* out, const std::string& payload) {
  PutU32(out, Crc32(payload.data(), payload.size()));
  PutU32(out, static_cast<uint32_t>(payload.size()));
  out->append(payload);
}

std::string EncodeVerdict(uint64_t scope_id, std::string_view key,
                          const StoredVerdict& verdict) {
  std::string payload;
  payload.push_back(static_cast<char>(kRecordVerdict));
  PutU64(&payload, scope_id);
  PutBytes(&payload, key);
  payload.push_back(static_cast<char>(verdict.category));
  payload.push_back(verdict.pinpointed ? 1 : 0);
  PutU64(&payload, static_cast<uint64_t>(verdict.tests_run));
  PutBytes(&payload, verdict.detail);
  PutU32(&payload, static_cast<uint32_t>(verdict.logs.size()));
  for (const std::string& log : verdict.logs) PutBytes(&payload, log);
  return payload;
}

bool WriteFully(int fd, const char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

VerdictStore::VerdictStore(std::string path, VerdictStoreOptions options)
    : path_(std::move(path)), options_(options) {
  index_.store(std::make_shared<const Index>(), std::memory_order_release);
}

VerdictStore::~VerdictStore() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ >= 0) ::close(fd_);
  if (lock_fd_ >= 0) ::close(lock_fd_);  // Releases the flock.
}

std::shared_ptr<VerdictStore> VerdictStore::Open(const std::string& path,
                                                VerdictStoreOptions options,
                                                Status* status) {
  std::shared_ptr<VerdictStore> store(new VerdictStore(path, options));
  Status open_status = store->OpenInternal();
  if (status != nullptr) *status = open_status;
  return store;
}

Status VerdictStore::OpenInternal() {
  std::lock_guard<std::mutex> lock(mutex_);
  Status degradation = Status::Ok();

  lock_fd_ = ::open((path_ + ".lock").c_str(), O_CREAT | O_RDWR | O_CLOEXEC,
                    0644);
  if (lock_fd_ >= 0 && ::flock(lock_fd_, LOCK_EX | LOCK_NB) == 0) {
    writable_ = true;
  } else if (lock_fd_ >= 0) {
    ::close(lock_fd_);
    lock_fd_ = -1;
    degradation = Status::Unavailable(
        "verdict store writer lock is held elsewhere; opened read-only");
  } else {
    // The lock file could not even be created (unwritable directory,
    // missing parent, path is a directory, ...) — a different failure
    // from contention, and the operator's fix is different too: make
    // the path writable, don't hunt for the other writer.
    degradation = Status::Unavailable(
        std::string("verdict store path unwritable (") +
        std::strerror(errno) + "); opened read-only");
  }

  fd_ = ::open(path_.c_str(),
               writable_ ? (O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC)
                         : (O_RDONLY | O_CLOEXEC),
               0644);
  if (fd_ < 0) {
    // Read-only and no file yet (or unreadable): behave as empty.
    writable_ = false;
    return degradation.ok()
               ? Status::Unavailable("verdict store unreadable; acting empty")
               : degradation;
  }

  struct stat st{};
  if (::fstat(fd_, &st) != 0) st.st_size = 0;
  size_t file_size = static_cast<size_t>(st.st_size);

  if (file_size == 0) {
    if (writable_) {
      std::string header = HeaderBytes();
      WriteFully(fd_, header.data(), header.size());
    }
    return degradation;
  }

  // Validate the header; a mismatch means a different format/version and
  // the whole file is untrusted.
  bool header_ok = false;
  if (file_size >= kHeaderBytes) {
    char header[kHeaderBytes];
    if (::pread(fd_, header, kHeaderBytes, 0) ==
        static_cast<ssize_t>(kHeaderBytes)) {
      uint32_t version = 0;
      std::memcpy(&version, header + sizeof(kMagic), 4);
      header_ok =
          std::memcmp(header, kMagic, sizeof(kMagic)) == 0 && version == kVersion;
    }
  }
  if (!header_ok) {
    stat_dropped_bytes_.store(file_size, std::memory_order_relaxed);
    if (writable_) {
      ::ftruncate(fd_, 0);
      std::string header = HeaderBytes();
      WriteFully(fd_, header.data(), header.size());
    }
    return Status::InvalidArgument(
        "verdict store header/version mismatch; starting empty");
  }

  // Parse the record log via mmap (the "mmap-friendly" contract: records
  // are scanned in place, no read-buffer copies).
  auto index = std::make_unique<Index>();
  size_t valid_end = kHeaderBytes;
  void* mapped = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd_, 0);
  if (mapped != MAP_FAILED) {
    const char* base = static_cast<const char*>(mapped);
    valid_end = kHeaderBytes +
                LoadRecords(base + kHeaderBytes, file_size - kHeaderBytes,
                            index.get());
    ::munmap(mapped, file_size);
  }

  if (valid_end < file_size) {
    uint64_t dropped = file_size - valid_end;
    stat_dropped_bytes_.store(dropped, std::memory_order_relaxed);
    if (writable_) ::ftruncate(fd_, static_cast<off_t>(valid_end));
    if (degradation.ok()) {
      degradation = Status::InvalidArgument(
          "verdict store tail corrupt/truncated; dropped " +
          std::to_string(dropped) + " bytes");
    }
  }

  stat_loaded_.store(index->size(), std::memory_order_relaxed);
  durable_fingerprints_ = fingerprints_.size();
  index_.store(std::shared_ptr<const Index>(std::move(index)),
               std::memory_order_release);

  if (writable_ && dead_records_ >= options_.compact_min_dead) {
    std::shared_ptr<const Index> live =
        index_.load(std::memory_order_acquire);
    if (static_cast<double>(dead_records_) >
        options_.compact_dead_ratio * static_cast<double>(live->size())) {
      CompactLocked();
    }
  }
  return degradation;
}

size_t VerdictStore::LoadRecords(const char* data, size_t size, Index* index) {
  size_t off = 0;
  while (off + 8 <= size) {
    uint32_t crc = 0;
    uint32_t len = 0;
    std::memcpy(&crc, data + off, 4);
    std::memcpy(&len, data + off + 4, 4);
    if (len == 0 || len > kMaxRecordBytes || off + 8 + len > size) break;
    const char* payload = data + off + 8;
    if (Crc32(payload, len) != crc) break;

    Cursor cursor{payload, len};
    uint8_t type = 0;
    if (!cursor.ReadU8(&type)) break;
    if (type == kRecordFingerprint) {
      std::string fingerprint;
      if (!cursor.ReadBytes(&fingerprint)) break;
      // Ids are implicit: the Nth fingerprint record in the file is id N.
      auto [it, inserted] =
          fingerprint_ids_.emplace(fingerprint, fingerprints_.size());
      if (!inserted) break;  // Duplicate intern: corrupt log.
      fingerprints_.push_back(std::move(fingerprint));
      (void)it;
    } else if (type == kRecordVerdict) {
      uint64_t scope_id = 0;
      std::string key;
      auto verdict_ptr = std::make_shared<StoredVerdict>();
      StoredVerdict& verdict = *verdict_ptr;
      uint8_t category = 0;
      uint8_t pinpointed = 0;
      uint64_t tests_run = 0;
      uint32_t n_logs = 0;
      if (!cursor.ReadU64(&scope_id) || !cursor.ReadBytes(&key) ||
          !cursor.ReadU8(&category) || !cursor.ReadU8(&pinpointed) ||
          !cursor.ReadU64(&tests_run) || !cursor.ReadBytes(&verdict.detail) ||
          !cursor.ReadU32(&n_logs)) {
        break;
      }
      if (scope_id >= fingerprints_.size()) break;  // Dangling scope: corrupt.
      bool logs_ok = true;
      verdict.logs.reserve(n_logs);
      for (uint32_t i = 0; i < n_logs; ++i) {
        std::string log;
        if (!cursor.ReadBytes(&log)) {
          logs_ok = false;
          break;
        }
        verdict.logs.push_back(std::move(log));
      }
      if (!logs_ok) break;
      verdict.category = category;
      verdict.pinpointed = pinpointed != 0;
      verdict.tests_run = static_cast<int64_t>(tests_run);
      std::string composed = ComposeKey(scope_id, key);
      auto it = index->find(composed);
      if (it != index->end()) {
        it->second = std::move(verdict_ptr);
        ++dead_records_;  // The overwritten record is dead log weight.
      } else {
        index->emplace(std::move(composed), std::move(verdict_ptr));
      }
    } else {
      break;  // Unknown record type: future format, stop trusting here.
    }
    off += 8 + len;
  }
  return off;
}

uint64_t VerdictStore::ResolveScope(std::string_view fingerprint) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = fingerprint_ids_.find(std::string(fingerprint));
  if (it != fingerprint_ids_.end()) return it->second;
  uint64_t id = fingerprints_.size();
  fingerprints_.emplace_back(fingerprint);
  fingerprint_ids_.emplace(fingerprints_.back(), id);
  // The intern record is written lazily, with the first append that needs
  // it — a scope that never stores a verdict costs no disk.
  return id;
}

bool VerdictStore::Lookup(uint64_t scope_id, std::string_view key,
                          StoredVerdict* out) const {
  std::shared_ptr<const Index> index = index_.load(std::memory_order_acquire);
  auto it = index->find(ComposeKey(scope_id, key));
  if (it == index->end()) {
    stat_misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  *out = *it->second;
  stat_hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

size_t VerdictStore::AppendBatch(std::vector<VerdictAppend> appends) {
  if (appends.empty()) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  if (!writable_) {
    stat_dropped_appends_.fetch_add(appends.size(), std::memory_order_relaxed);
    return 0;
  }

  std::string bytes;
  // Intern records first, in id order, so file-local implicit ids match.
  uint64_t max_scope = 0;
  for (const VerdictAppend& append : appends) {
    if (append.scope_id > max_scope) max_scope = append.scope_id;
  }
  while (durable_fingerprints_ <= max_scope &&
         durable_fingerprints_ < fingerprints_.size()) {
    std::string payload;
    payload.push_back(static_cast<char>(kRecordFingerprint));
    PutBytes(&payload, fingerprints_[durable_fingerprints_]);
    AppendFrame(&bytes, payload);
    ++durable_fingerprints_;
  }

  // Copy-on-write: one index copy amortized over the whole batch.
  std::shared_ptr<const Index> current = index_.load(std::memory_order_acquire);
  auto next = std::make_unique<Index>(*current);
  size_t written = 0;
  for (VerdictAppend& append : appends) {
    if (append.scope_id >= durable_fingerprints_) continue;  // Unknown scope.
    std::string composed = ComposeKey(append.scope_id, append.key);
    auto it = next->find(composed);
    if (it != next->end() && *it->second == append.verdict) {
      continue;  // Identical record already stored; skip the log write.
    }
    AppendFrame(&bytes, EncodeVerdict(append.scope_id, append.key,
                                      append.verdict));
    auto verdict = std::make_shared<const StoredVerdict>(std::move(append.verdict));
    if (it != next->end()) {
      it->second = std::move(verdict);
      ++dead_records_;
    } else {
      next->emplace(std::move(composed), std::move(verdict));
    }
    ++written;
  }
  if (bytes.empty()) return 0;
  if (!WriteFully(fd_, bytes.data(), bytes.size())) {
    // Disk trouble: stop trusting the writer role; readers keep the old
    // snapshot, so nothing unverified is ever served.
    writable_ = false;
    stat_dropped_appends_.fetch_add(appends.size(), std::memory_order_relaxed);
    return 0;
  }
  stat_appends_.fetch_add(written, std::memory_order_relaxed);
  index_.store(std::shared_ptr<const Index>(std::move(next)),
               std::memory_order_release);
  return written;
}

void VerdictStore::Flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ >= 0 && writable_) ::fsync(fd_);
}

Status VerdictStore::CompactLocked() {
  std::string tmp_path = path_ + ".tmp";
  int tmp_fd =
      ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (tmp_fd < 0) return Status::Internal("compact: cannot create temp file");

  std::string bytes = HeaderBytes();
  // Every known fingerprint is rewritten in id order: index keys embed
  // scope ids, so ids must survive compaction unchanged.
  for (const std::string& fingerprint : fingerprints_) {
    std::string payload;
    payload.push_back(static_cast<char>(kRecordFingerprint));
    PutBytes(&payload, fingerprint);
    AppendFrame(&bytes, payload);
  }
  std::shared_ptr<const Index> index = index_.load(std::memory_order_acquire);
  for (const auto& [composed, verdict] : *index) {
    uint64_t scope_id = 0;
    std::memcpy(&scope_id, composed.data(), 8);
    AppendFrame(&bytes, EncodeVerdict(scope_id, composed.substr(8), *verdict));
  }
  bool ok = WriteFully(tmp_fd, bytes.data(), bytes.size()) &&
            ::fsync(tmp_fd) == 0;
  ::close(tmp_fd);
  if (!ok || ::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    ::unlink(tmp_path.c_str());
    return Status::Internal("compact: rewrite failed; keeping old log");
  }
  ::close(fd_);
  fd_ = ::open(path_.c_str(), O_RDWR | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0) writable_ = false;
  durable_fingerprints_ = fingerprints_.size();
  dead_records_ = 0;
  stat_compactions_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

VerdictStoreStats VerdictStore::stats() const {
  VerdictStoreStats stats;
  stats.hits = stat_hits_.load(std::memory_order_relaxed);
  stats.misses = stat_misses_.load(std::memory_order_relaxed);
  stats.appends = stat_appends_.load(std::memory_order_relaxed);
  stats.dropped_appends = stat_dropped_appends_.load(std::memory_order_relaxed);
  stats.live_records = size();
  stats.loaded_records = stat_loaded_.load(std::memory_order_relaxed);
  stats.dropped_bytes = stat_dropped_bytes_.load(std::memory_order_relaxed);
  stats.compactions = stat_compactions_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats.read_only = !writable_;
  }
  return stats;
}

size_t VerdictStore::size() const {
  return index_.load(std::memory_order_acquire)->size();
}

}  // namespace spex
