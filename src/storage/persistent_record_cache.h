#ifndef MODIS_STORAGE_PERSISTENT_RECORD_CACHE_H_
#define MODIS_STORAGE_PERSISTENT_RECORD_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "storage/record_log.h"

namespace modis {

/// Cross-run valuation-record cache over the v1 RecordLog: Open()
/// replays the whole log once and indexes every record in memory, so a
/// warm hit is one hash lookup. A file in any other format fails Open
/// with the log's own typed error.
///
/// One open cache can serve many tasks at once — the shape the
/// long-lived discovery service needs, where concurrent queries over
/// different task fingerprints share a single locked cache file. Every
/// lookup and insert therefore names its task fingerprint; the one given
/// at Open only scopes size() and Stats::task_records.
///
/// During a running the oracle Touch()es each state while planning a
/// batch — a hit means the state's exact training is skipped and the
/// recorded evaluation is replayed (fetched with Get) — and Insert()s
/// every freshly trained record during the batch commit; Flush() after
/// each commit makes the log crash-consistent at batch granularity.
///
/// Duplicate keys can appear in the log (two cold runs racing before
/// locking existed, or a run killed between commit and flush and re-run):
/// the last record wins at load, matching the order a replay would ingest
/// them. At runtime, inserting an already-present (fingerprint, key) is a
/// no-op — records are content-addressed results of deterministic
/// trainings, so the incumbent is identical, and skipping keeps concurrent
/// sessions from appending duplicate frames. When more than half of an
/// opened log is dead weight (duplicates or a torn tail), a writable open
/// compacts it in place.
///
/// Thread safety: every method locks an internal mutex, so one cache
/// object may be shared by concurrent in-process sessions (the discovery
/// service shares one per cache file); Get() copies a record out under
/// that lock, so no caller holds a pointer an eviction could invalidate.
/// Cross-process sharing is governed by the RecordLog flock contract:
/// single writer, many readers.
///
/// Bounded logs: Options::max_bytes caps the log file. When a Flush()
/// leaves the log over the cap, the cache evicts least-recently-hit
/// fingerprints first (then least-recently-hit records within a
/// fingerprint) until the live set fits, and compacts the log down to it.
/// Recency is session-local (ticks start at load order), which is exactly
/// the signal a long-lived host accumulates.
class PersistentRecordCache {
 public:
  struct Options {
    /// Byte budget of the cache file; 0 = unbounded. Enforced after
    /// every Flush() (and once at open) by recency eviction + a log
    /// rewrite.
    /// (Initialized in the constructor, not inline: an inline default
    /// would make `Options()` as a default argument of Open —
    /// syntactically inside the enclosing class — ill-formed.)
    uint64_t max_bytes;

    Options() : max_bytes(0) {}
  };

  struct Stats {
    /// All valid records in the file at open. Shared mode: records
    /// indexed from the file since the last whole-file load (its own
    /// publishes are never read back).
    size_t loaded_records = 0;
    /// Frames decoded from the file this session: the open's scan plus,
    /// in shared mode, every refresh and publish catch-up.
    size_t decoded_records = 0;
    size_t task_records = 0;     // Subset matching the Open fingerprint.
    size_t served = 0;           // Get() hits.
    size_t appended = 0;         // Insert()s written this session.
    size_t compacted_away = 0;   // Dead records dropped by auto-compaction.
    size_t evicted = 0;          // Live records dropped by the byte bound.
    size_t discarded_tail_bytes = 0;
    size_t log_bytes = 0;        // Valid file bytes at the snapshot.
    /// File bytes returned by log rewrites this session.
    size_t reclaimed_bytes = 0;
  };

  /// Opens `path` for the task identified by `fingerprint` (the one
  /// size() and Stats::task_records count; a multi-task host may pass
  /// 0). kRead fails if the file does not exist; kReadWrite creates it.
  /// Passing kOff is a programming error — callers gate on the mode
  /// before opening. A lock conflict (another live writer on the file)
  /// fails with FailedPrecondition.
  static Result<std::unique_ptr<PersistentRecordCache>> Open(
      const std::string& path, CacheMode mode, uint64_t fingerprint,
      Options options = Options());

  /// Opens `path` in *shared* mode: a writable attachment that holds no
  /// file handle and no lock between operations, so any number of
  /// processes (the worker pool; docs/MULTIPROCESS.md) can share one
  /// cache file under the unchanged single-writer flock contract.
  ///
  /// Reads serve from an in-memory snapshot (loaded via a short-lived
  /// read-only open; RefreshIfChanged() catches it up when the file grew
  /// under a sibling's publish). Insert() buffers records in memory;
  /// Flush() publishes the buffer by append, in one short exclusive
  /// window (RecordLog::OpenFrom at the snapshot's valid end): decode only
  /// the frames siblings appended since the snapshot, truncate a torn
  /// tail, append the buffered records the file does not already hold
  /// (first write wins across processes, so re-publishing after a crash
  /// is idempotent), enforce Options::max_bytes over this attachment's
  /// index — under the lock it is the file's live set — and restamp the
  /// snapshot before the lock is released, so the attachment never reads
  /// its own publish back. A publish costs what it and its siblings
  /// appended, not the file size. Retries briefly when a sibling holds
  /// the window; never fails a query on lock contention: an
  /// unpublishable buffer is kept for the next Flush(), and a snapshot
  /// that cannot be refreshed serves the previous view (degrading to
  /// cold, exactly like the in-process host does when its open loses the
  /// lock race).
  static Result<std::unique_ptr<PersistentRecordCache>> OpenShared(
      const std::string& path, uint64_t fingerprint,
      Options options = Options());

  /// Shared mode only (no-op otherwise): brings the snapshot up to date
  /// when the file changed on disk since it was last read or published.
  /// A log that only grew is tail-read: just the frames appended after
  /// the snapshot's valid end (RecordLog::ReadFrom). A replaced file (a
  /// Rewrite rename or byte-bound compaction), a shrunken one, or one
  /// whose tail does not scan cleanly to the end is reloaded whole. A
  /// conflicting live writer is not an error — the current snapshot is
  /// kept.
  Status RefreshIfChanged();

  bool shared() const { return shared_; }

  /// True when a record exists for (fingerprint, key); refreshes its
  /// recency without counting stats.served. The oracle probes with this
  /// at plan time so a record it is about to replay becomes
  /// most-recently-hit — a concurrent session's eviction pass then
  /// prefers any other victim. (Eviction between plan and commit is still
  /// possible; the oracle degrades that to a fresh training.)
  bool Touch(uint64_t fingerprint, const std::string& key);

  /// Copies the record for (fingerprint, key) into `*out` (either may be
  /// skipped by passing nullptr). Counts stats.served and refreshes the
  /// recency of both the record and its fingerprint.
  bool Get(uint64_t fingerprint, const std::string& key, StoredRecord* out);

  /// Records a fresh valuation: indexed immediately; appended to the log
  /// in kReadWrite mode (no-op write in kRead). Inserting an existing
  /// (fingerprint, key) is a no-op — see the class comment.
  void Insert(uint64_t fingerprint, const std::string& key,
              const std::vector<double>& features, const Evaluation& eval);

  /// Persists appends buffered since the last flush, then enforces the
  /// byte bound (eviction + compaction) if one is configured.
  Status Flush();

  /// Rewrites the log keeping one live record per (fingerprint, key) —
  /// all fingerprints survive.
  Status Compact();

  Stats stats() const;
  /// Records of the fingerprint given at Open.
  size_t size() const;

 private:
  struct Entry {
    StoredRecord record;
    uint64_t last_hit = 0;
    /// Shared mode: inserted here and not yet in the file.
    bool pending = false;
  };
  struct Bucket {
    std::unordered_map<std::string, Entry> entries;
    uint64_t last_hit = 0;
  };

  PersistentRecordCache(RecordLog log, CacheMode mode, uint64_t fingerprint,
                        Options options)
      : log_(std::move(log)),
        mode_(mode),
        fingerprint_(fingerprint),
        options_(options),
        path_(log_.path()) {}

  /// Shared mode: no log owned; log_ stays unopened.
  PersistentRecordCache(std::string path, uint64_t fingerprint,
                        Options options)
      : mode_(CacheMode::kReadWrite),
        fingerprint_(fingerprint),
        options_(options),
        path_(std::move(path)),
        shared_(true) {}

  /// Shared mode: replaces the snapshot from the file (read-only short
  /// open). Caller holds mu_.
  Status LoadSharedSnapshotLocked();
  /// Shared mode, the one catch-up of refresh, load and publish: indexes
  /// `records` — scanned from the file `stamp` describes, up to
  /// `valid_end` — in file order (last write wins). A `tail` scan resumed
  /// at the snapshot's valid end adds to the index; a whole-file scan
  /// replaces it and re-overlays pending_. Then restamps the snapshot.
  /// Caller holds mu_.
  void CatchUpLocked(std::vector<StoredRecord>* records, bool tail,
                     size_t valid_end, const FileStamp& stamp);
  /// Shared mode: publishes pending_ by append in one short exclusive
  /// window (see OpenShared), retrying while a sibling holds it. Caller
  /// holds mu_.
  Status PublishPendingLocked();
  /// The body of that window: log_ holds the exclusive lock and `scanned`
  /// the frames its open decoded. Caller holds mu_.
  Status AppendPendingLocked(std::vector<StoredRecord>* scanned);

  /// The entry for (fingerprint, key) with its and its bucket's recency
  /// refreshed, or nullptr. Caller holds mu_.
  Entry* HitLocked(uint64_t fingerprint, const std::string& key);

  /// Rewrites the log from the live index. Caller holds mu_.
  Status CompactLocked();
  /// Evicts + compacts until the live set fits Options::max_bytes.
  /// Caller holds mu_.
  Status EnforceByteBoundLocked();

  mutable std::mutex mu_;
  /// The open log; in shared mode open only inside a publish window.
  RecordLog log_;
  CacheMode mode_;
  uint64_t fingerprint_;
  Options options_;
  std::string path_;
  Stats stats_;
  /// Logical clock for recency: bumped on every hit and insert.
  uint64_t tick_ = 0;

  /// Live records, fingerprint -> (key -> entry), last-write-wins at
  /// load, first-write-wins at runtime. Shared mode: the whole snapshot +
  /// this process's fresh inserts.
  std::unordered_map<uint64_t, Bucket> index_;

  /// Shared mode state. pending_ holds inserts not yet published to the
  /// file; the stamp is the file as last read or written, the change
  /// signal RefreshIfChanged() compares against; the valid end is where
  /// that file's last valid frame ended, where the next refresh or
  /// publish resumes (0: none — missing or headerless file).
  bool shared_ = false;
  std::vector<StoredRecord> pending_;
  FileStamp snapshot_stamp_;
  size_t snapshot_valid_end_ = 0;
};

}  // namespace modis

#endif  // MODIS_STORAGE_PERSISTENT_RECORD_CACHE_H_
