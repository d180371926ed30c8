#ifndef MODIS_STORAGE_RECORD_LOG_H_
#define MODIS_STORAGE_RECORD_LOG_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/status.h"
#include "estimator/measure.h"

namespace modis {

/// One persisted valuation record: the on-disk mirror of a
/// TestRecordStore entry, qualified by the task fingerprint so a single
/// log file can hold records of many dataset/task combinations.
/// `key` is the canonical state signature (StateBitmap::Signature()).
struct StoredRecord {
  uint64_t fingerprint = 0;
  std::string key;
  std::vector<double> features;
  Evaluation eval;
};

/// CRC-32 (IEEE 802.3 polynomial, the zlib/gzip one) over a byte span.
/// Used to frame log records; exposed for tests.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

/// Accumulates a stable 64-bit FNV-1a hash over typed fields. Used to
/// derive the dataset/task fingerprint that scopes cached records: any
/// drift in the hashed inputs (schema, unit layout, measure set) yields a
/// new fingerprint, so stale records are ignored rather than served.
class FingerprintBuilder {
 public:
  FingerprintBuilder& Add(const std::string& s);
  FingerprintBuilder& Add(uint64_t v);
  FingerprintBuilder& Add(double v);
  uint64_t Digest() const { return hash_; }

 private:
  void Mix(const void* data, size_t size);

  uint64_t hash_ = 1469598103934665603ull;  // FNV-1a offset basis.
};

/// Identity and change signal of a log file: (size, mtime) say whether it
/// changed, the inode whether it is still the same file (0 where the
/// platform has no inode identity).
struct FileStamp {
  int64_t size = -1;  // -1: missing.
  int64_t mtime_ns = -1;
  uint64_t inode = 0;
  bool operator==(const FileStamp& o) const {
    return size == o.size && mtime_ns == o.mtime_ns && inode == o.inode;
  }
  /// stat(2) of `path`; the default (missing) stamp when it does not exist.
  static FileStamp Of(const std::string& path);
};

/// A versioned, append-only binary log of StoredRecords.
///
/// Layout: an 16-byte header (magic "MODISRLG", u32 format version, u32
/// reserved) followed by length-prefixed, CRC-framed records:
///
///   u32 payload_size | u32 crc32(payload) | payload
///
/// where payload = fingerprint(u64) | key(u32 + bytes) | features(u32 +
/// f64...) | raw(u32 + f64...) | normalized(u32 + f64...), all
/// little-endian. See docs/PERSISTENCE.md for the full format contract.
///
/// A torn tail (partial final record after a crash, or a CRC mismatch) is
/// not an error: ReadAll stops at the first bad frame and reports how many
/// bytes of valid prefix it consumed; opening for append truncates the
/// file to that prefix so the next Append never writes after garbage.
/// Version mismatches ARE an error — the format owns no migration story,
/// the cache is derived data and can always be regenerated.
///
/// Locking (POSIX): a log file has a single-writer / many-reader advisory
/// contract enforced with flock(2). A writable Open acquires LOCK_EX
/// (non-blocking) *before* scanning and holds it for the log's lifetime,
/// so two writers can never interleave scan-truncate-append sequences
/// (a lock won on a file a Rewrite has just renamed away also fails, as
/// a conflict to retry); a read-only Open holds LOCK_SH only for the
/// duration of its scan (the returned log keeps no file handle). A second writer — another process,
/// or another open in the same process — fails fast with
/// FailedPrecondition instead of corrupting the tail. Readers that arrive
/// while a writer is live also fail fast (the host owning the file is the
/// one to ask; see docs/SERVING.md); callers such as ModisEngine degrade
/// to a cold run. Rewrite is lock-aware: the replacement file is locked
/// before it is renamed over the log, so the writer lock has no gap.
///
/// Methods of one RecordLog instance are not thread-safe; callers
/// serialize access (PersistentRecordCache wraps every log touch in its
/// own mutex).
class RecordLog {
 public:
  static constexpr char kMagic[8] = {'M', 'O', 'D', 'I', 'S', 'R', 'L', 'G'};
  static constexpr uint32_t kFormatVersion = 1;
  static constexpr size_t kHeaderSize = 16;
  /// Frames larger than this are treated as corruption, not records.
  static constexpr uint32_t kMaxPayloadSize = 64u << 20;

  RecordLog() = default;
  ~RecordLog();
  RecordLog(RecordLog&&) noexcept;
  RecordLog& operator=(RecordLog&&) noexcept;
  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  /// Opens (creating if absent unless `read_only`) and scans the log.
  /// Valid records are appended to `*out`. In writable mode the file is
  /// truncated to the valid prefix, positioned for appending, and held
  /// under an exclusive advisory lock (a writable Open is OpenFrom with
  /// nothing scanned yet). A lock conflict (live writer, or — for
  /// writable opens — a live reader mid-scan) fails with
  /// FailedPrecondition.
  static Result<RecordLog> Open(const std::string& path, bool read_only,
                                std::vector<StoredRecord>* out);

  /// The writable open, resuming an earlier scan: takes the exclusive
  /// lock, then scans only the frames from byte `offset` on when `path`
  /// is still inode `inode` and at least `offset` bytes long — `offset`
  /// being the valid end of an earlier scan of the same file, so a writer
  /// that already holds the prefix decodes only what others appended
  /// since (resumed() is true). Otherwise — `offset` inside the header, a
  /// replaced or shrunken file, a resumed scan that stops short of the end
  /// (see ReadFrom), or no inode identity on this platform — it scans the
  /// whole file, exactly as a writable Open. Either way a torn tail is
  /// truncated and the log is positioned for appending under the lock.
  static Result<RecordLog> OpenFrom(const std::string& path, uint64_t inode,
                                    size_t offset,
                                    std::vector<StoredRecord>* out);

  /// Read-only scan of the frames from byte `offset` on: the valid end of
  /// an earlier scan of the same file, so a reader that already holds the
  /// prefix reads only what was appended since. Same LOCK_SH contract as a
  /// read-only Open (FailedPrecondition while a writer holds the file).
  /// Valid records are appended to `*out` and `*valid_end` is set just
  /// past the last valid frame. Fails with OutOfRange when `path` is no
  /// longer inode `inode` (a Rewrite renamed a new file over it), is
  /// shorter than `offset`, or holds bytes past the last valid frame read
  /// from `offset`: a torn frame, or an offset that no longer falls on a
  /// frame boundary because a recycled inode number names another file.
  /// Only a whole-file scan can tell those apart; the caller rescans from
  /// the start.
  static Status ReadFrom(const std::string& path, uint64_t inode,
                         size_t offset, std::vector<StoredRecord>* out,
                         size_t* valid_end);

  /// Serializes one record at the tail. Buffered; call Flush to persist.
  Status Append(const StoredRecord& record);

  /// Flushes buffered appends to the OS.
  Status Flush();

  /// Atomically rewrites the log to contain exactly `records` (write to
  /// `path + ".compact"`, lock it, then rename over — the writer lock is
  /// carried to the new file with no unlocked gap). The log stays open for
  /// appending afterwards. Writable logs only.
  Status Rewrite(const std::vector<StoredRecord>& records);

  const std::string& path() const { return path_; }
  bool read_only() const { return read_only_; }
  /// True when the open's scan resumed at OpenFrom's offset; false when
  /// it read the whole file.
  bool resumed() const { return resumed_; }
  /// The file as it stands now, from the open handle (fstat) while the
  /// log holds one — a writer restamps under its own lock.
  FileStamp stamp() const;
  /// Bytes of corrupt/torn tail discarded by Open (0 for a clean log).
  size_t discarded_tail_bytes() const { return discarded_tail_bytes_; }
  /// Valid bytes currently in the log: header + every frame scanned at
  /// Open plus every frame appended (or written by Rewrite) since. This
  /// is the file size the byte-bounded eviction policy budgets against.
  size_t size_bytes() const { return size_bytes_; }
  /// Bytes returned to the filesystem by Rewrite() this session (the sum
  /// of every rewrite's shrinkage).
  size_t reclaimed_bytes() const { return reclaimed_bytes_; }

  /// Serialization of one record into/out of a payload buffer; exposed for
  /// tests (corruption crafting) and the compactor.
  static std::vector<uint8_t> EncodePayload(const StoredRecord& record);
  static bool DecodePayload(const uint8_t* data, size_t size,
                            StoredRecord* out);

  /// On-disk bytes one record occupies (8-byte frame header + payload),
  /// computed without encoding. Used by the eviction budgeter.
  static size_t FrameBytes(const StoredRecord& record);

 private:
  /// The read-only half of Open: scan under a shared lock, keep no
  /// handle.
  static Result<RecordLog> OpenReadOnly(const std::string& path,
                                        std::vector<StoredRecord>* out);

  Status WriteFrame(std::FILE* f, const StoredRecord& record);

  std::string path_;
  std::FILE* file_ = nullptr;  // Null for read-only logs.
  bool read_only_ = false;
  bool resumed_ = false;
  size_t discarded_tail_bytes_ = 0;
  size_t size_bytes_ = 0;
  size_t reclaimed_bytes_ = 0;
};

}  // namespace modis

#endif  // MODIS_STORAGE_RECORD_LOG_H_
