#include "storage/persistent_record_cache.h"

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
  cache->stats_.decoded_records = records.size();
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

void PersistentRecordCache::CatchUpLocked(std::vector<StoredRecord>* records,
                                          bool tail, size_t valid_end,
                                          const FileStamp& stamp) {
  if (!tail) {
    index_.clear();
    stats_.loaded_records = 0;
  }
  stats_.loaded_records += records->size();
  stats_.decoded_records += records->size();
  for (StoredRecord& r : *records) {
    Bucket& bucket = index_[r.fingerprint];
    const uint64_t tick = ++tick_;
    // Last write wins over the file, as at every load. A key this process
    // still holds in pending_ now serves the file's copy, which is
    // identical by content addressing, and is no longer published.
    Entry& entry = bucket.entries[r.key];
    entry.record = std::move(r);
    entry.last_hit = tick;
    entry.pending = false;
    bucket.last_hit = tick;
  }
  if (!tail) {
    // This process's unpublished inserts stay visible where the file
    // lacks them.
    for (const StoredRecord& r : pending_) {
      Bucket& bucket = index_[r.fingerprint];
      auto [it, inserted] = bucket.entries.try_emplace(r.key);
      if (!inserted) continue;
      it->second.record = r;
      it->second.last_hit = ++tick_;
      it->second.pending = true;
      bucket.last_hit = it->second.last_hit;
    }
  }
  auto it = index_.find(fingerprint_);
  stats_.task_records = it == index_.end() ? 0 : it->second.entries.size();
  snapshot_stamp_ = stamp;
  snapshot_valid_end_ = valid_end;
  stats_.log_bytes = stamp.size < 0 ? 0 : static_cast<size_t>(stamp.size);
}

Status PersistentRecordCache::LoadSharedSnapshotLocked() {
  // Stamped before the read: a publish racing the read changes the file
  // after the stamp, so the next refresh looks again.
  const FileStamp stamp = FileStamp::Of(path_);
  std::vector<StoredRecord> records;
  size_t valid_end = 0;
  // A missing file means nothing was published yet: an empty snapshot is
  // correct. Anything else is opened as a log, which rejects foreign files.
  if (stamp.size >= 0) {
    auto opened = RecordLog::Open(path_, /*read_only=*/true, &records);
    if (!opened.ok()) return opened.status();
    valid_end = opened->size_bytes();
  }  // The read lock is released as `opened` dies.
  CatchUpLocked(&records, /*tail=*/false, valid_end, stamp);
  return Status::OK();
}

Status PersistentRecordCache::RefreshIfChanged() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!shared_) return Status::OK();
  const FileStamp now = FileStamp::Of(path_);
  if (now == snapshot_stamp_) return Status::OK();
  // Only frames appended after the snapshot's valid end can be new. A
  // replaced file (Rewrite, compaction), a shrunken one or a tail that
  // does not scan cleanly is reloaded whole (ReadFrom says OutOfRange).
  std::vector<StoredRecord> records;
  size_t valid_end = 0;
  Status refreshed = RecordLog::ReadFrom(path_, snapshot_stamp_.inode,
                                         snapshot_valid_end_, &records,
                                         &valid_end);
  if (refreshed.ok()) {
    CatchUpLocked(&records, /*tail=*/true, valid_end, now);
  } else if (refreshed.code() == StatusCode::kOutOfRange) {
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
  // Contention with a sibling's window is brief, so retry with a small
  // backoff before giving up.
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::vector<StoredRecord> scanned;
    auto opened = RecordLog::OpenFrom(path_, snapshot_stamp_.inode,
                                      snapshot_valid_end_, &scanned);
    if (opened.ok()) {
      log_ = std::move(opened).value();
      const Status published = AppendPendingLocked(&scanned);
      log_ = RecordLog();  // Closing the handle releases the lock.
      return published;
    }
    if (opened.status().code() != StatusCode::kFailedPrecondition) {
      return opened.status();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // The lock stayed contended for the whole retry budget. Keep the
  // buffer for the next Flush() instead of failing the query — the
  // cache is an accelerator, never the answer.
  return Status::OK();
}

Status PersistentRecordCache::AppendPendingLocked(
    std::vector<StoredRecord>* scanned) {
  // Catch up on what siblings appended (a torn tail is already cut); a
  // pending key the file now holds is no longer pending.
  CatchUpLocked(scanned, log_.resumed(), log_.size_bytes(), log_.stamp());
  // Every pending record is indexed: only the byte bound evicts, and it
  // runs after pending_ is drained.
  auto entry_of = [this](const StoredRecord& r) -> Entry& {
    return index_.find(r.fingerprint)->second.entries.find(r.key)->second;
  };
  size_t written = 0;
  for (const StoredRecord& r : pending_) {
    if (!entry_of(r).pending) continue;  // First write wins across processes.
    MODIS_RETURN_IF_ERROR(log_.Append(r));
    ++written;
  }
  // On failure pending_ stays whole: the next publish's catch-up indexes
  // whatever frames did land, and appends the rest.
  MODIS_RETURN_IF_ERROR(log_.Flush());
  for (const StoredRecord& r : pending_) entry_of(r).pending = false;
  pending_.clear();
  stats_.appended += written;
  // Under the lock the index is the file's live set, so the byte bound
  // evicts over it and Rewrite carries the lock to the compacted file.
  const Status bounded = EnforceByteBoundLocked();
  stats_.reclaimed_bytes += log_.reclaimed_bytes();
  // Restamp from the open handle: the file now holds this attachment's
  // own frames, and the next refresh must not read them back.
  snapshot_stamp_ = log_.stamp();
  snapshot_valid_end_ = log_.size_bytes();
  stats_.log_bytes = log_.size_bytes();
  return bounded;
}

PersistentRecordCache::Entry* PersistentRecordCache::HitLocked(
    uint64_t fingerprint, const std::string& key) {
  auto bucket = index_.find(fingerprint);
  if (bucket == index_.end()) return nullptr;
  auto it = bucket->second.entries.find(key);
  if (it == bucket->second.entries.end()) return nullptr;
  const uint64_t tick = ++tick_;
  it->second.last_hit = tick;
  bucket->second.last_hit = tick;
  return &it->second;
}

bool PersistentRecordCache::Touch(uint64_t fingerprint,
                                  const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  return HitLocked(fingerprint, key) != nullptr;
}

bool PersistentRecordCache::Get(uint64_t fingerprint, const std::string& key,
                                StoredRecord* out) {
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* entry = HitLocked(fingerprint, key);
  if (entry == nullptr) return false;
  ++stats_.served;
  if (out != nullptr) *out = entry->record;
  return true;
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
    it->second.pending = true;
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
