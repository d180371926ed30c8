#include "storage/persistent_record_cache.h"

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <tuple>
#include <utility>

#include "common/logging.h"

namespace modis {

namespace {

/// What lives at `path` right now, by magic. Short or foreign content is
/// kOther: the selected backend opens it and reports its own typed error.
enum class FileKind { kMissing, kV1Log, kPaged, kOther };

FileKind SniffFormat(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return FileKind::kMissing;
  char magic[8] = {0};
  const size_t got = std::fread(magic, 1, sizeof(magic), f);
  std::fclose(f);
  if (got == sizeof(magic)) {
    if (std::memcmp(magic, RecordLog::kMagic, sizeof(magic)) == 0) {
      return FileKind::kV1Log;
    }
    if (std::memcmp(magic, PageFile::kMagic, sizeof(magic)) == 0) {
      return FileKind::kPaged;
    }
  }
  return FileKind::kOther;
}

PagedStore::Options StoreOptions(const PersistentRecordCache::Options& o) {
  PagedStore::Options s;
  s.page_size = o.page_size;
  s.buffer_frames = o.buffer_pool_frames;
  return s;
}

/// One-shot v1 -> paged migration. The v1 log is replayed under its
/// writer lock (torn tail truncated, last write per key wins — exactly
/// what a v1 load would have indexed), rebuilt into `path + ".migrate"`,
/// and renamed over the log with the replacement's lock already held; the
/// v1 lock on the dead inode is released only afterwards, so the
/// single-writer exclusion has no gap. A crash mid-migration leaves the
/// v1 file untouched and at most a stale tmp file behind.
Result<std::unique_ptr<PagedStore>> MigrateV1ToPaged(
    const std::string& path, const PersistentRecordCache::Options& options) {
  std::vector<StoredRecord> records;
  MODIS_ASSIGN_OR_RETURN(RecordLog log,
                         RecordLog::Open(path, /*read_only=*/false, &records));
  std::unordered_map<uint64_t, std::unordered_map<std::string, size_t>> seen;
  std::vector<StoredRecord> live;
  live.reserve(records.size());
  for (StoredRecord& r : records) {
    auto [it, inserted] = seen[r.fingerprint].try_emplace(r.key, live.size());
    if (inserted) {
      live.push_back(std::move(r));
    } else {
      live[it->second] = std::move(r);
    }
  }
  const std::string tmp = path + ".migrate";
  std::remove(tmp.c_str());
  MODIS_ASSIGN_OR_RETURN(
      std::unique_ptr<PagedStore> store,
      PagedStore::Open(tmp, /*read_only=*/false, StoreOptions(options)));
  for (const StoredRecord& r : live) {
    if (!store->Insert(r)) {
      std::remove(tmp.c_str());
      return Status::IoError("migration failed to insert a record: " + tmp);
    }
  }
  const Status flushed = store->Flush();
  if (!flushed.ok()) {
    std::remove(tmp.c_str());
    return flushed;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot swap migrated cache into place: " + path);
  }
  store->RenamedTo(path);
  return store;
}

}  // namespace

Result<std::unique_ptr<PersistentRecordCache>> PersistentRecordCache::Open(
    const std::string& path, CacheMode mode, uint64_t fingerprint,
    Options options) {
  MODIS_CHECK(mode != CacheMode::kOff)
      << "PersistentRecordCache::Open with CacheMode::kOff";
  const bool want_paged =
      options.engine == Engine::kPaged ||
      (options.engine == Engine::kAuto && options.page_size > 0);
  const FileKind kind = SniffFormat(path);
  bool use_paged = false;
  switch (kind) {
    case FileKind::kPaged:
      use_paged = true;  // An existing file's format always wins.
      break;
    case FileKind::kV1Log:
      use_paged = false;  // Except through migration, below.
      break;
    case FileKind::kMissing:
    case FileKind::kOther:
      use_paged = want_paged;
      break;
  }

  if (use_paged ||
      (kind == FileKind::kV1Log && want_paged &&
       mode == CacheMode::kReadWrite)) {
    std::unique_ptr<PagedStore> store;
    if (use_paged) {
      MODIS_ASSIGN_OR_RETURN(
          store, PagedStore::Open(path, /*read_only=*/mode == CacheMode::kRead,
                                  StoreOptions(options)));
    } else {
      MODIS_ASSIGN_OR_RETURN(store, MigrateV1ToPaged(path, options));
    }
    auto cache = std::unique_ptr<PersistentRecordCache>(
        new PersistentRecordCache(std::move(store), mode, fingerprint,
                                  options));
    PagedStore& s = *cache->store_;
    size_t total = 0, task = 0;
    MODIS_RETURN_IF_ERROR(s.CountRecords(fingerprint, &total, &task));
    cache->stats_.loaded_records = total;
    cache->stats_.task_records = task;
    cache->stats_.discarded_tail_bytes = s.stats().discarded_tail_bytes;
    if (mode == CacheMode::kReadWrite) {
      // Auto-GC at the same threshold as the v1 cache: when at least
      // half the records are dead weight.
      const PagedStore::Stats st = s.stats();
      if (st.dead_records > 0 && st.dead_records >= st.record_count) {
        size_t dropped = 0;
        MODIS_RETURN_IF_ERROR(s.Gc(&dropped));
        cache->stats_.compacted_away += dropped;
      }
      MODIS_RETURN_IF_ERROR(cache->EnforcePagedByteBoundLocked());
    }
    return cache;
  }

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
  const FileKind kind = SniffFormat(path_);
  switch (kind) {
    case FileKind::kMissing:
      break;  // Nothing published yet: an empty snapshot is correct.
    case FileKind::kV1Log: {
      auto opened = RecordLog::Open(path_, /*read_only=*/true, &records);
      if (!opened.ok()) return opened.status();
      valid_end = opened->size_bytes();
      break;  // The read lock is released as `opened` dies.
    }
    case FileKind::kPaged: {
      auto opened =
          PagedStore::Open(path_, /*read_only=*/true, StoreOptions(options_));
      if (!opened.ok()) return opened.status();
      MODIS_RETURN_IF_ERROR(opened.value()->ReadAllRecords(&records));
      break;  // valid_end stays 0: paged files are always reloaded whole.
    }
    case FileKind::kOther:
      return Status::FailedPrecondition("cache file has an unknown format: " +
                                        path_);
  }
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
  // Same v1 file, not shorter than the scanned prefix: only frames
  // appended since can be new. A replaced file (Rewrite, compaction), a
  // shrunken one, or a paged one is reloaded whole.
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
  // (torn-tail truncation, superblock ping-pong, byte-bound eviction)
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
  if (store_ != nullptr && store_->Contains(fingerprint, key)) return true;
  // Paged kRead falls through to the in-memory overlay of this session's
  // fresh inserts; v1 falls through to its whole index.
  auto it = index_.find(fingerprint);
  return it != index_.end() && it->second.entries.count(key) > 0;
}

bool PersistentRecordCache::Touch(uint64_t fingerprint,
                                  const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  if (store_ != nullptr && store_->Touch(fingerprint, key)) return true;
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
  if (store_ != nullptr && store_->Get(fingerprint, key, out)) {
    ++stats_.served;
    return true;
  }
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
  if (store_ != nullptr && store_->Get(fingerprint_, key, &find_scratch_)) {
    ++stats_.served;
    return &find_scratch_;
  }
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
  if (store_ != nullptr) {
    if (mode_ == CacheMode::kReadWrite) {
      StoredRecord record;
      record.fingerprint = fingerprint;
      record.key = key;
      record.features = features;
      record.eval = eval;
      if (store_->Insert(record)) ++stats_.appended;
      // false = already present (first write wins) or a failed write;
      // both degrade to a no-op, mirroring the v1 append contract.
      return;
    }
    // kRead: keep the session's fresh records in the overlay below —
    // unless the store already serves this key.
    if (store_->Contains(fingerprint, key)) return;
  }
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
  if (store_ == nullptr && mode_ == CacheMode::kReadWrite) {
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
  if (store_ != nullptr) {
    if (mode_ == CacheMode::kReadWrite) {
      MODIS_RETURN_IF_ERROR(store_->Flush());
    }
    return EnforcePagedByteBoundLocked();
  }
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
  if (store_ != nullptr) {
    if (mode_ != CacheMode::kReadWrite) {
      return Status::FailedPrecondition("cannot compact a read-only cache");
    }
    size_t dropped = 0;
    MODIS_RETURN_IF_ERROR(store_->Gc(&dropped));
    stats_.compacted_away += dropped;
    return Status::OK();
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

Status PersistentRecordCache::EnforcePagedByteBoundLocked() {
  if (options_.max_bytes == 0 || mode_ != CacheMode::kReadWrite ||
      store_->file_bytes() <= options_.max_bytes) {
    return Status::OK();
  }
  // Each round: pick the coldest victims until the projected post-GC file
  // fits, tombstone them, GC. The projection is exact (the rebuild packs
  // pages deterministically), so one round normally suffices; the loop
  // guards against estimate drift from quarantined pages. The file can
  // never shrink below the two-page floor (superblock + directory).
  for (int round = 0; round < 4; ++round) {
    if (store_->file_bytes() <= options_.max_bytes) return Status::OK();
    std::vector<PagedStore::EntryInfo> entries;
    MODIS_RETURN_IF_ERROR(store_->CollectEntries(&entries));
    size_t evicted_now = 0;
    if (!entries.empty()) {
      // Eviction order mirrors the v1 policy: least-recently-hit
      // fingerprint first (a fingerprint is as warm as its hottest
      // record), then least-recently-hit record within it.
      std::unordered_map<uint64_t, uint64_t> fp_recency;
      for (const auto& e : entries) {
        uint64_t& hit = fp_recency[e.fingerprint];
        hit = std::max(hit, e.last_hit);
      }
      std::sort(entries.begin(), entries.end(),
                [&](const PagedStore::EntryInfo& a,
                    const PagedStore::EntryInfo& b) {
                  return std::tie(fp_recency[a.fingerprint], a.last_hit,
                                  a.ipage, a.slot) <
                         std::tie(fp_recency[b.fingerprint], b.last_hit,
                                  b.ipage, b.slot);
                });
      const PagedStore::Stats st = store_->stats();
      const uint64_t page_size = st.page_size;
      const uint64_t cap = page_size - PageFile::kPageHeaderSize;
      const uint64_t epp = cap / PagedStore::kIndexEntrySize;
      std::unordered_map<uint32_t, uint64_t> per_bucket;
      uint64_t stream_bytes = 0;
      for (const auto& e : entries) {
        stream_bytes += e.stream_bytes;
        ++per_bucket[e.bucket];
      }
      auto projected = [&]() {
        uint64_t pages = 2 + (stream_bytes + cap - 1) / cap;
        for (const auto& [bucket, n] : per_bucket) {
          (void)bucket;
          pages += (n + epp - 1) / epp;
        }
        return pages * page_size;
      };
      std::vector<PagedStore::EntryInfo> victims;
      size_t i = 0;
      while (i < entries.size() && projected() > options_.max_bytes) {
        const PagedStore::EntryInfo& v = entries[i++];
        stream_bytes -= v.stream_bytes;
        auto it = per_bucket.find(v.bucket);
        if (it != per_bucket.end() && --it->second == 0) {
          per_bucket.erase(it);
        }
        victims.push_back(v);
      }
      if (!victims.empty()) {
        MODIS_RETURN_IF_ERROR(store_->Tombstone(victims));
        evicted_now = victims.size();
        stats_.evicted += victims.size();
      }
    }
    size_t dropped = 0;
    MODIS_RETURN_IF_ERROR(store_->Gc(&dropped));
    // Dead weight that predated this round's eviction was auto-compacted.
    stats_.compacted_away += dropped > evicted_now ? dropped - evicted_now : 0;
    if (evicted_now == 0 && dropped == 0) break;  // Floor reached.
  }
  return Status::OK();
}

PersistentRecordCache::Stats PersistentRecordCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats snapshot = stats_;
  if (store_ != nullptr) {
    const PagedStore::Stats s = store_->stats();
    snapshot.log_bytes = s.file_bytes;
    snapshot.reclaimed_bytes = s.reclaimed_bytes;
    snapshot.quarantined = s.quarantined;
    snapshot.discarded_tail_bytes = s.discarded_tail_bytes;
    snapshot.buffer_frames_in_use = s.pool.frames_in_use;
  } else if (!shared_) {  // Shared: the file size as last read.
    snapshot.log_bytes = log_.size_bytes();
    snapshot.reclaimed_bytes = log_.reclaimed_bytes();
  }
  return snapshot;
}

size_t PersistentRecordCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  if (store_ != nullptr) {
    size_t total = 0, task = 0;
    if (store_->CountRecords(fingerprint_, &total, &task).ok()) n = task;
  }
  auto it = index_.find(fingerprint_);
  if (it != index_.end()) n += it->second.entries.size();
  return n;
}

}  // namespace modis
