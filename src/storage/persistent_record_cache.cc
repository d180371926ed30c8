#include "storage/persistent_record_cache.h"

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <tuple>
#include <utility>

#include "common/logging.h"

namespace modis {

Result<std::unique_ptr<PersistentRecordCache>> PersistentRecordCache::Open(
    const std::string& path, CacheMode mode, uint64_t fingerprint,
    Options options) {
  MODIS_CHECK(mode != CacheMode::kOff)
      << "PersistentRecordCache::Open with CacheMode::kOff";
  std::vector<StoredRecord> records;
  MODIS_ASSIGN_OR_RETURN(
      RecordLog log,
      RecordLog::Open(path, /*read_only=*/mode == CacheMode::kRead,
                      &records));

  auto cache = std::unique_ptr<PersistentRecordCache>(
      new PersistentRecordCache(std::move(log), mode, fingerprint, options));
  cache->stats_.loaded_records = records.size();
  cache->stats_.discarded_tail_bytes = cache->log_.discarded_tail_bytes();

  // Last record wins per (fingerprint, key): replay order equals the order
  // a run would have ingested them. Load order seeds the recency clock, so
  // a byte-bounded host evicts the oldest cold cargo first. A read-only
  // open can never serve other fingerprints' records nor compact them, so
  // it indexes only its own task's — a kRead engine over a host-sized
  // multi-task file does not pay memory for every other task's cargo.
  const bool keep_all = mode == CacheMode::kReadWrite;
  size_t duplicates = 0;
  for (StoredRecord& r : records) {
    if (!keep_all && r.fingerprint != fingerprint) continue;
    Bucket& bucket = cache->index_[r.fingerprint];
    const uint64_t tick = ++cache->tick_;
    auto [it, inserted] = bucket.entries.try_emplace(r.key);
    if (!inserted) ++duplicates;
    it->second.record = std::move(r);
    it->second.last_hit = tick;
    bucket.last_hit = tick;
  }
  {
    auto it = cache->index_.find(fingerprint);
    cache->stats_.task_records =
        it == cache->index_.end() ? 0 : it->second.entries.size();
  }

  if (mode == CacheMode::kReadWrite) {
    // Auto-compact when at least half the log is dead duplicate weight.
    // (A torn tail needs no compaction: the writable RecordLog::Open above
    // already truncated it in place.)
    if (duplicates > 0 && duplicates * 2 >= records.size()) {
      const Status compacted = cache->CompactLocked();
      if (!compacted.ok()) return compacted;
      cache->stats_.compacted_away = duplicates;
    }
    const Status bounded = cache->EnforceByteBoundLocked();
    if (!bounded.ok()) return bounded;
  }
  return cache;
}

Result<std::unique_ptr<PersistentRecordCache>> PersistentRecordCache::OpenShared(
    const std::string& path, uint64_t fingerprint, Options options) {
  auto cache = std::unique_ptr<PersistentRecordCache>(
      new PersistentRecordCache(path, fingerprint, options));
  std::lock_guard<std::mutex> lock(cache->mu_);
  // Best effort: a live exclusive writer (or a missing file) just means
  // the attachment starts cold and warms at the next refresh.
  (void)cache->LoadSharedSnapshotLocked();
  return cache;
}

PersistentRecordCache::FileStamp PersistentRecordCache::StampOf(
    const std::string& path) {
  FileStamp stamp;
  struct stat st;
  if (::stat(path.c_str(), &st) == 0) {
    stamp.size = static_cast<int64_t>(st.st_size);
    stamp.mtime_ns = static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
                     st.st_mtim.tv_nsec;
    stamp.inode = static_cast<uint64_t>(st.st_ino);
  }
  return stamp;
}

void PersistentRecordCache::IndexSnapshotRecordsLocked(
    std::vector<StoredRecord>* records) {
  stats_.loaded_records += records->size();
  for (StoredRecord& r : *records) {
    Bucket& bucket = index_[r.fingerprint];
    const uint64_t tick = ++tick_;
    // Last write wins over the file, as at every load. A key this process
    // still holds in pending_ now serves the file's copy, which is
    // identical by content addressing.
    Entry& entry = bucket.entries[r.key];
    entry.record = std::move(r);
    entry.last_hit = tick;
    bucket.last_hit = tick;
  }
  auto it = index_.find(fingerprint_);
  stats_.task_records = it == index_.end() ? 0 : it->second.entries.size();
}

Status PersistentRecordCache::LoadSharedSnapshotLocked() {
  // Stamped before the read: a publish racing the read changes the file
  // after the stamp, so the next refresh looks again.
  const FileStamp stamp = StampOf(path_);
  std::vector<StoredRecord> records;
  size_t valid_end = 0;
  // A missing file means nothing was published yet: an empty snapshot is
  // correct. Anything else is opened as a log, which rejects foreign files.
  if (stamp.size >= 0) {
    auto opened = RecordLog::Open(path_, /*read_only=*/true, &records);
    if (!opened.ok()) return opened.status();
    valid_end = opened->size_bytes();
  }  // The read lock is released as `opened` dies.
  index_.clear();
  stats_.loaded_records = 0;
  IndexSnapshotRecordsLocked(&records);
  // This process's unpublished inserts stay visible (first write wins:
  // a record a sibling published meanwhile is identical by content
  // addressing, so whichever copy the index holds is the same answer).
  for (const StoredRecord& r : pending_) {
    Bucket& bucket = index_[r.fingerprint];
    auto [it, inserted] = bucket.entries.try_emplace(r.key);
    if (!inserted) continue;
    it->second.record = r;
    it->second.last_hit = ++tick_;
    bucket.last_hit = it->second.last_hit;
  }
  {
    auto it = index_.find(fingerprint_);
    stats_.task_records =
        it == index_.end() ? 0 : it->second.entries.size();
  }
  snapshot_stamp_ = stamp;
  snapshot_valid_end_ = valid_end;
  stats_.log_bytes = stamp.size < 0 ? 0 : static_cast<size_t>(stamp.size);
  return Status::OK();
}

Status PersistentRecordCache::ReadSharedTailLocked(const FileStamp& stamp) {
  std::vector<StoredRecord> records;
  size_t valid_end = 0;
  MODIS_RETURN_IF_ERROR(RecordLog::ReadFrom(path_, snapshot_stamp_.inode,
                                            snapshot_valid_end_, &records,
                                            &valid_end));
  // Appending the tail to the snapshot in file order is what a full
  // reload would index; pending_ entries are already in the index.
  IndexSnapshotRecordsLocked(&records);
  snapshot_stamp_ = stamp;
  snapshot_valid_end_ = valid_end;
  stats_.log_bytes = static_cast<size_t>(stamp.size);
  return Status::OK();
}

Status PersistentRecordCache::RefreshIfChanged() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!shared_) return Status::OK();
  const FileStamp now = StampOf(path_);
  if (now == snapshot_stamp_) return Status::OK();
  // Same file, not shorter than the scanned prefix: only frames appended
  // since can be new. A replaced file (Rewrite, compaction) or a shrunken
  // one is reloaded whole.
  const bool tail = snapshot_valid_end_ >= RecordLog::kHeaderSize &&
                    now.inode == snapshot_stamp_.inode &&
                    now.size >= static_cast<int64_t>(snapshot_valid_end_);
  Status refreshed = tail ? ReadSharedTailLocked(now) : Status::OK();
  if (!tail || refreshed.code() == StatusCode::kOutOfRange) {
    refreshed = LoadSharedSnapshotLocked();
  }
  if (refreshed.code() == StatusCode::kFailedPrecondition) {
    // A sibling's exclusive publish window (or a mid-write file) is
    // transient; keep serving the previous snapshot.
    return Status::OK();
  }
  return refreshed;
}

Status PersistentRecordCache::PublishPendingLocked() {
  if (pending_.empty()) return Status::OK();
  // Publish through the existing exclusive-writer path: a short-lived
  // kReadWrite open is a flock EX window, and every durability contract
  // (torn-tail truncation, byte-bound eviction)
  // rides along unchanged. Contention with a sibling's window is brief,
  // so retry with a small backoff before giving up.
  Status last;
  for (int attempt = 0; attempt < 100; ++attempt) {
    auto inner = Open(path_, CacheMode::kReadWrite, fingerprint_, options_);
    if (inner.ok()) {
      for (const StoredRecord& r : pending_) {
        inner.value()->Insert(r.fingerprint, r.key, r.features, r.eval);
      }
      MODIS_RETURN_IF_ERROR(inner.value()->Flush());
      stats_.appended += pending_.size();
      pending_.clear();
      return Status::OK();
    }
    last = inner.status();
    if (last.code() != StatusCode::kFailedPrecondition) return last;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // The lock stayed contended for the whole retry budget. Keep the
  // buffer for the next Flush() instead of failing the query — the
  // cache is an accelerator, never the answer.
  return Status::OK();
}

bool PersistentRecordCache::Contains(uint64_t fingerprint,
                                     const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(fingerprint);
  return it != index_.end() && it->second.entries.count(key) > 0;
}

bool PersistentRecordCache::Touch(uint64_t fingerprint,
                                  const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto bucket = index_.find(fingerprint);
  if (bucket == index_.end()) return false;
  auto it = bucket->second.entries.find(key);
  if (it == bucket->second.entries.end()) return false;
  const uint64_t tick = ++tick_;
  it->second.last_hit = tick;
  bucket->second.last_hit = tick;
  return true;
}

bool PersistentRecordCache::Get(uint64_t fingerprint, const std::string& key,
                                StoredRecord* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto bucket = index_.find(fingerprint);
  if (bucket == index_.end()) return false;
  auto it = bucket->second.entries.find(key);
  if (it == bucket->second.entries.end()) return false;
  const uint64_t tick = ++tick_;
  it->second.last_hit = tick;
  bucket->second.last_hit = tick;
  ++stats_.served;
  if (out != nullptr) *out = it->second.record;
  return true;
}

const StoredRecord* PersistentRecordCache::Find(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto bucket = index_.find(fingerprint_);
  if (bucket == index_.end()) return nullptr;
  auto it = bucket->second.entries.find(key);
  if (it == bucket->second.entries.end()) return nullptr;
  const uint64_t tick = ++tick_;
  it->second.last_hit = tick;
  bucket->second.last_hit = tick;
  ++stats_.served;
  return &it->second.record;
}

void PersistentRecordCache::Insert(uint64_t fingerprint,
                                   const std::string& key,
                                   const std::vector<double>& features,
                                   const Evaluation& eval) {
  std::lock_guard<std::mutex> lock(mu_);
  Bucket& bucket = index_[fingerprint];
  auto [it, inserted] = bucket.entries.try_emplace(key);
  if (!inserted) return;  // First write wins at runtime; see class comment.
  StoredRecord& record = it->second.record;
  record.fingerprint = fingerprint;
  record.key = key;
  record.features = features;
  record.eval = eval;
  const uint64_t tick = ++tick_;
  it->second.last_hit = tick;
  bucket.last_hit = tick;
  if (shared_) {
    pending_.push_back(record);
    return;
  }
  if (mode_ == CacheMode::kReadWrite) {
    const Status appended = log_.Append(record);
    if (appended.ok()) {
      ++stats_.appended;
    }
    // An append failure (disk full, ...) degrades to in-memory caching for
    // the rest of the run; the search result is unaffected.
  }
}

Status PersistentRecordCache::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (shared_) return PublishPendingLocked();
  MODIS_RETURN_IF_ERROR(log_.Flush());
  return EnforceByteBoundLocked();
}

Status PersistentRecordCache::Compact() {
  std::lock_guard<std::mutex> lock(mu_);
  if (shared_) {
    return Status::FailedPrecondition(
        "a shared cache attachment cannot compact; compaction runs inside "
        "the exclusive publish window");
  }
  return CompactLocked();
}

Status PersistentRecordCache::CompactLocked() {
  if (mode_ != CacheMode::kReadWrite) {
    return Status::FailedPrecondition("cannot compact a read-only cache");
  }
  std::vector<StoredRecord> live;
  for (const auto& [fp, bucket] : index_) {
    (void)fp;
    for (const auto& [key, entry] : bucket.entries) {
      (void)key;
      live.push_back(entry.record);
    }
  }
  return log_.Rewrite(live);
}

Status PersistentRecordCache::EnforceByteBoundLocked() {
  if (options_.max_bytes == 0 || mode_ != CacheMode::kReadWrite ||
      log_.size_bytes() <= options_.max_bytes) {
    return Status::OK();
  }
  // Live footprint (duplicates in the file die at the rewrite anyway).
  size_t live_bytes = RecordLog::kHeaderSize;
  for (const auto& [fp, bucket] : index_) {
    (void)fp;
    for (const auto& [key, entry] : bucket.entries) {
      (void)key;
      live_bytes += RecordLog::FrameBytes(entry.record);
    }
  }
  if (live_bytes > options_.max_bytes) {
    // Eviction order: least-recently-hit fingerprint first, then
    // least-recently-hit record within it — a whole cold task's cargo
    // goes before any record of a task that is being served.
    struct Victim {
      uint64_t bucket_hit;
      uint64_t record_hit;
      uint64_t fingerprint;
      const std::string* key;
      size_t bytes;
    };
    std::vector<Victim> order;
    for (const auto& [fp, bucket] : index_) {
      for (const auto& [key, entry] : bucket.entries) {
        order.push_back({bucket.last_hit, entry.last_hit, fp, &key,
                         RecordLog::FrameBytes(entry.record)});
      }
    }
    std::sort(order.begin(), order.end(), [](const Victim& a,
                                             const Victim& b) {
      return std::tie(a.bucket_hit, a.record_hit) <
             std::tie(b.bucket_hit, b.record_hit);
    });
    for (const Victim& v : order) {
      if (live_bytes <= options_.max_bytes) break;
      auto bucket = index_.find(v.fingerprint);
      bucket->second.entries.erase(*v.key);
      if (bucket->second.entries.empty()) index_.erase(bucket);
      live_bytes -= v.bytes;
      ++stats_.evicted;
    }
  }
  return CompactLocked();
}

PersistentRecordCache::Stats PersistentRecordCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats snapshot = stats_;
  if (!shared_) {  // Shared: the file size as last read.
    snapshot.log_bytes = log_.size_bytes();
    snapshot.reclaimed_bytes = log_.reclaimed_bytes();
  }
  return snapshot;
}

size_t PersistentRecordCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(fingerprint_);
  return it == index_.end() ? 0 : it->second.entries.size();
}

}  // namespace modis
