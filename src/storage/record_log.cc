#include "storage/record_log.h"

#include <sys/stat.h>

#include <cstring>
#include <utility>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

namespace modis {

namespace {

/// Lazily built table for the reflected CRC-32 (poly 0xEDB88320).
const uint32_t* Crc32Table() {
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

void PutU32(std::vector<uint8_t>* buf, uint32_t v) {
  for (int i = 0; i < 4; ++i) buf->push_back((v >> (8 * i)) & 0xFF);
}

void PutU64(std::vector<uint8_t>* buf, uint64_t v) {
  for (int i = 0; i < 8; ++i) buf->push_back((v >> (8 * i)) & 0xFF);
}

void PutF64(std::vector<uint8_t>* buf, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(buf, bits);
}

void PutDoubles(std::vector<uint8_t>* buf, const std::vector<double>& v) {
  PutU32(buf, static_cast<uint32_t>(v.size()));
  for (double d : v) PutF64(buf, d);
}

void PutString(std::vector<uint8_t>* buf, const std::string& s) {
  PutU32(buf, static_cast<uint32_t>(s.size()));
  buf->insert(buf->end(), s.begin(), s.end());
}

/// Bounds-checked little-endian reader over a payload span.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool U32(uint32_t* out) {
    if (pos_ + 4 > size_) return false;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= uint32_t(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    *out = v;
    return true;
  }

  bool U64(uint64_t* out) {
    if (pos_ + 8 > size_) return false;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= uint64_t(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    *out = v;
    return true;
  }

  bool F64(double* out) {
    uint64_t bits;
    if (!U64(&bits)) return false;
    std::memcpy(out, &bits, sizeof(*out));
    return true;
  }

  bool Doubles(std::vector<double>* out) {
    uint32_t n;
    if (!U32(&n)) return false;
    if (size_t(n) * 8 > size_ - pos_) return false;
    out->resize(n);
    for (uint32_t i = 0; i < n; ++i) {
      if (!F64(&(*out)[i])) return false;
    }
    return true;
  }

  bool String(std::string* out) {
    uint32_t n;
    if (!U32(&n)) return false;
    if (size_t(n) > size_ - pos_) return false;
    out->assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return true;
  }

  bool exhausted() const { return pos_ == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

void FillHeader(uint8_t (&header)[RecordLog::kHeaderSize]) {
  std::memset(header, 0, RecordLog::kHeaderSize);
  std::memcpy(header, RecordLog::kMagic, sizeof(RecordLog::kMagic));
  for (int i = 0; i < 4; ++i) {
    header[8 + i] = (RecordLog::kFormatVersion >> (8 * i)) & 0xFF;
  }
}

/// Header classification of an open log stream (positioned at offset 0 on
/// entry; positioned just past the header on kValid).
enum class HeaderState {
  kValid,          // Full, current-version header; records may follow.
  kEmpty,          // Zero bytes: a freshly created file.
  kTornOwnPrefix,  // A prefix of our own header (crash mid-create).
};

Result<HeaderState> CheckHeader(std::FILE* f, const std::string& path,
                                bool read_only) {
  uint8_t header[RecordLog::kHeaderSize];
  const size_t got = std::fread(header, 1, RecordLog::kHeaderSize, f);
  uint8_t expected[RecordLog::kHeaderSize];
  FillHeader(expected);
  if (got == 0) return HeaderState::kEmpty;
  if (got < RecordLog::kHeaderSize) {
    // A file shorter than the header can hold no records; if its bytes
    // are a prefix of our header (a crash between create and the header
    // write), a writable open may safely rewrite it as fresh — but a
    // short *foreign* file is still rejected, not clobbered.
    if (read_only || std::memcmp(header, expected, got) != 0) {
      return Status::IoError("truncated record log header: " + path);
    }
    return HeaderState::kTornOwnPrefix;
  }
  if (std::memcmp(header, RecordLog::kMagic, sizeof(RecordLog::kMagic)) !=
      0) {
    return Status::IoError("not a MODis record log: " + path);
  }
  uint32_t version = 0;
  for (int i = 0; i < 4; ++i) version |= uint32_t(header[8 + i]) << (8 * i);
  if (version != RecordLog::kFormatVersion) {
    return Status::FailedPrecondition(
        path + ": record log format version " + std::to_string(version) +
        " != supported " + std::to_string(RecordLog::kFormatVersion) +
        " (delete the file; the cache is derived data)");
  }
  return HeaderState::kValid;
}

/// Scans record frames from the stream position `start` (just past the
/// header for a full scan) until EOF or the first torn/corrupt frame.
/// Returns the offset just past the last valid frame.
size_t ScanRecords(std::FILE* f, size_t start,
                   std::vector<StoredRecord>* out) {
  size_t valid_bytes = start;
  std::vector<uint8_t> payload;
  for (;;) {
    uint8_t frame[8];
    if (std::fread(frame, 1, 8, f) != 8) break;
    uint32_t payload_size = 0, crc = 0;
    for (int i = 0; i < 4; ++i) {
      payload_size |= uint32_t(frame[i]) << (8 * i);
      crc |= uint32_t(frame[4 + i]) << (8 * i);
    }
    if (payload_size == 0 || payload_size > RecordLog::kMaxPayloadSize) break;
    payload.resize(payload_size);
    if (std::fread(payload.data(), 1, payload_size, f) != payload_size) {
      break;
    }
    if (Crc32(payload.data(), payload_size) != crc) break;
    StoredRecord record;
    if (!RecordLog::DecodePayload(payload.data(), payload_size, &record)) {
      break;
    }
    if (out != nullptr) out->push_back(std::move(record));
    valid_bytes += 8 + payload_size;
  }
  return valid_bytes;
}

/// Bytes of the file beyond `valid_bytes` (0 when the log ends cleanly).
size_t TailBytes(std::FILE* f, size_t valid_bytes) {
  std::fseek(f, 0, SEEK_END);
  const long end = std::ftell(f);
  if (end > 0 && size_t(end) > valid_bytes) return size_t(end) - valid_bytes;
  return 0;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const uint32_t* table = Crc32Table();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

FingerprintBuilder& FingerprintBuilder::Add(const std::string& s) {
  const uint64_t n = s.size();
  Mix(&n, sizeof(n));
  Mix(s.data(), s.size());
  return *this;
}

FingerprintBuilder& FingerprintBuilder::Add(uint64_t v) {
  Mix(&v, sizeof(v));
  return *this;
}

FingerprintBuilder& FingerprintBuilder::Add(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return Add(bits);
}

void FingerprintBuilder::Mix(const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash_ ^= p[i];
    hash_ *= 1099511628211ull;  // FNV-1a prime.
  }
}

std::vector<uint8_t> RecordLog::EncodePayload(const StoredRecord& record) {
  std::vector<uint8_t> payload;
  payload.reserve(24 + record.key.size() +
                  8 * (record.features.size() + record.eval.raw.size() +
                       record.eval.normalized.size()));
  PutU64(&payload, record.fingerprint);
  PutString(&payload, record.key);
  PutDoubles(&payload, record.features);
  PutDoubles(&payload, record.eval.raw);
  PutDoubles(&payload, record.eval.normalized);
  return payload;
}

bool RecordLog::DecodePayload(const uint8_t* data, size_t size,
                              StoredRecord* out) {
  Reader reader(data, size);
  return reader.U64(&out->fingerprint) && reader.String(&out->key) &&
         reader.Doubles(&out->features) && reader.Doubles(&out->eval.raw) &&
         reader.Doubles(&out->eval.normalized) && reader.exhausted();
}

size_t RecordLog::FrameBytes(const StoredRecord& record) {
  return 8 /* frame header */ + 8 /* fingerprint */ +
         (4 + record.key.size()) + (4 + 8 * record.features.size()) +
         (4 + 8 * record.eval.raw.size()) +
         (4 + 8 * record.eval.normalized.size());
}

RecordLog::~RecordLog() {
  if (file_ != nullptr) std::fclose(file_);
}

RecordLog::RecordLog(RecordLog&& other) noexcept { *this = std::move(other); }

RecordLog& RecordLog::operator=(RecordLog&& other) noexcept {
  if (this == &other) return *this;
  if (file_ != nullptr) std::fclose(file_);
  path_ = std::move(other.path_);
  file_ = other.file_;
  read_only_ = other.read_only_;
  resumed_ = other.resumed_;
  discarded_tail_bytes_ = other.discarded_tail_bytes_;
  size_bytes_ = other.size_bytes_;
  reclaimed_bytes_ = other.reclaimed_bytes_;
  other.file_ = nullptr;
  return *this;
}

Result<RecordLog> RecordLog::Open(const std::string& path, bool read_only,
                                  std::vector<StoredRecord>* out) {
  if (read_only) return OpenReadOnly(path, out);
  return OpenFrom(path, /*inode=*/0, /*offset=*/0, out);
}

namespace {

/// Resumes a scan of the locked stream `f` at `offset`, the valid end of
/// an earlier scan of inode `inode`. Returns false, with `*out` as it was,
/// when that prefix no longer describes the file: another inode, shorter
/// than `offset`, or bytes left past the last valid frame read from there
/// (a torn frame, or misaligned frames when a recycled inode number names
/// a different file) — only a whole-file scan is trusted to judge those.
bool ResumeScan(std::FILE* f, uint64_t inode, size_t offset,
                std::vector<StoredRecord>* out, size_t* valid_end) {
  struct stat st;
  if (offset < RecordLog::kHeaderSize || ::fstat(::fileno(f), &st) != 0 ||
      static_cast<uint64_t>(st.st_ino) != inode ||
      static_cast<uint64_t>(st.st_size) < offset ||
      std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0) {
    return false;
  }
  const size_t kept = out != nullptr ? out->size() : 0;
  const size_t end = ScanRecords(f, offset, out);
  if (TailBytes(f, end) > 0) {
    if (out != nullptr) out->resize(kept);
    return false;
  }
  *valid_end = end;
  return true;
}

FileStamp StampOf(const struct stat& st) {
  FileStamp stamp;
  stamp.size = static_cast<int64_t>(st.st_size);
  stamp.mtime_ns = static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
                   st.st_mtim.tv_nsec;
  stamp.inode = static_cast<uint64_t>(st.st_ino);
  return stamp;
}

}  // namespace

FileStamp FileStamp::Of(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? StampOf(st) : FileStamp();
}

FileStamp RecordLog::stamp() const {
  struct stat st;
  if (file_ == nullptr || ::fstat(::fileno(file_), &st) != 0) {
    return FileStamp::Of(path_);
  }
  return StampOf(st);
}

Result<RecordLog> RecordLog::OpenReadOnly(const std::string& path,
                                          std::vector<StoredRecord>* out) {
  RecordLog log;
  log.path_ = path;
  log.read_only_ = true;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound("record log not found: " + path);
  }
  // Readers share; a live writer excludes them (the process hosting the
  // file answers queries instead — callers degrade to a cold run).
  if (::flock(fd, LOCK_SH | LOCK_NB) != 0) {
    ::close(fd);
    return Status::FailedPrecondition(
        "record log is write-locked by a live host: " + path);
  }
  std::FILE* f = ::fdopen(fd, "rb");
  if (f == nullptr) {
    ::close(fd);
    return Status::IoError("cannot open record log: " + path);
  }
  auto header = CheckHeader(f, path, /*read_only=*/true);
  if (!header.ok()) {
    std::fclose(f);
    return header.status();
  }
  if (header.value() == HeaderState::kValid) {
    const size_t valid_bytes = ScanRecords(f, kHeaderSize, out);
    log.discarded_tail_bytes_ = TailBytes(f, valid_bytes);
    log.size_bytes_ = valid_bytes;
  }
  std::fclose(f);  // Releases the shared lock.
  return log;
}

Result<RecordLog> RecordLog::OpenFrom(const std::string& path, uint64_t inode,
                                      size_t offset,
                                      std::vector<StoredRecord>* out) {
  RecordLog log;
  log.path_ = path;
  // Take the exclusive lock BEFORE scanning, so no other writer can
  // append between our scan and our truncate/append — the scan result
  // stays authoritative for the log's whole open lifetime.
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open record log: " + path);
  }
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    ::close(fd);
    return Status::FailedPrecondition(
        "record log is locked by another writer (single-writer "
        "contract): " +
        path);
  }
  // A Rewrite may have renamed a new file over `path` between our open
  // and our lock; appending to the unlinked inode would lose the frames.
  struct stat locked, named;
  if (::fstat(fd, &locked) != 0 || ::stat(path.c_str(), &named) != 0 ||
      locked.st_ino != named.st_ino) {
    ::close(fd);
    return Status::FailedPrecondition(
        "record log was replaced while locking: " + path);
  }
  std::FILE* f = ::fdopen(fd, "r+b");
  if (f == nullptr) {
    ::close(fd);
    return Status::IoError("cannot open record log: " + path);
  }
  size_t valid_bytes = kHeaderSize;
  log.resumed_ = ResumeScan(f, inode, offset, out, &valid_bytes);
  if (!log.resumed_) {
    std::rewind(f);
    auto header = CheckHeader(f, path, /*read_only=*/false);
    if (!header.ok()) {
      std::fclose(f);
      return header.status();
    }
    if (header.value() == HeaderState::kValid) {
      valid_bytes = ScanRecords(f, kHeaderSize, out);
      log.discarded_tail_bytes_ = TailBytes(f, valid_bytes);
    } else {
      // Empty or torn-header file: (re)write the header, drop the rest.
      uint8_t fresh[kHeaderSize];
      FillHeader(fresh);
      if (std::fseek(f, 0, SEEK_SET) != 0 ||
          std::fwrite(fresh, 1, kHeaderSize, f) != kHeaderSize ||
          std::fflush(f) != 0) {
        std::fclose(f);
        return Status::IoError("cannot write record log header: " + path);
      }
    }
  }
  // Cut the torn tail (or the torn header's residue) through the POSIX
  // layer, then position for appending.
  if (std::fflush(f) != 0 ||
      ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0 ||
      std::fseek(f, static_cast<long>(valid_bytes), SEEK_SET) != 0) {
    std::fclose(f);
    return Status::IoError("cannot truncate/seek record log: " + path);
  }
  log.file_ = f;
  log.size_bytes_ = valid_bytes;
  return log;
}

Status RecordLog::ReadFrom(const std::string& path, uint64_t inode,
                           size_t offset, std::vector<StoredRecord>* out,
                           size_t* valid_end) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::OutOfRange("record log is gone: " + path);
  }
  // The read-only Open contract: share with readers, never overlap a
  // writer's window (its frames may be half written).
  if (::flock(fd, LOCK_SH | LOCK_NB) != 0) {
    ::close(fd);
    return Status::FailedPrecondition(
        "record log is write-locked by a live host: " + path);
  }
  std::FILE* f = ::fdopen(fd, "rb");
  if (f == nullptr) {
    ::close(fd);
    return Status::IoError("cannot open record log: " + path);
  }
  // Checked under the lock: a rename over `path` (compaction) or a
  // truncation below `offset` means the earlier scan no longer describes
  // this file's prefix.
  const bool resumed = ResumeScan(f, inode, offset, out, valid_end);
  std::fclose(f);  // Releases the shared lock.
  if (!resumed) {
    return Status::OutOfRange("record log was replaced or truncated: " +
                              path);
  }
  return Status::OK();
}

Status RecordLog::WriteFrame(std::FILE* f, const StoredRecord& record) {
  const std::vector<uint8_t> payload = EncodePayload(record);
  const uint32_t payload_size = static_cast<uint32_t>(payload.size());
  const uint32_t crc = Crc32(payload.data(), payload.size());
  uint8_t frame[8];
  for (int i = 0; i < 4; ++i) {
    frame[i] = (payload_size >> (8 * i)) & 0xFF;
    frame[4 + i] = (crc >> (8 * i)) & 0xFF;
  }
  if (std::fwrite(frame, 1, 8, f) != 8 ||
      std::fwrite(payload.data(), 1, payload.size(), f) != payload.size()) {
    return Status::IoError("record log append failed: " + path_);
  }
  return Status::OK();
}

Status RecordLog::Append(const StoredRecord& record) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("record log not open for writing");
  }
  MODIS_RETURN_IF_ERROR(WriteFrame(file_, record));
  size_bytes_ += FrameBytes(record);
  return Status::OK();
}

Status RecordLog::Flush() {
  if (file_ == nullptr) return Status::OK();
  if (std::fflush(file_) != 0) {
    return Status::IoError("record log flush failed: " + path_);
  }
  return Status::OK();
}

Status RecordLog::Rewrite(const std::vector<StoredRecord>& records) {
  if (read_only_) {
    return Status::FailedPrecondition("cannot rewrite a read-only log");
  }
  const std::string tmp = path_ + ".compact";

  const int tfd =
      ::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (tfd < 0) {
    return Status::IoError("cannot create compaction file: " + tmp);
  }
  // Lock the replacement before it becomes visible under path_, so the
  // single-writer exclusion has no gap across the rename.
  if (::flock(tfd, LOCK_EX | LOCK_NB) != 0) {
    ::close(tfd);
    std::remove(tmp.c_str());
    return Status::FailedPrecondition("compaction file is locked: " + tmp);
  }
  std::FILE* w = ::fdopen(tfd, "r+b");
  if (w == nullptr) {
    ::close(tfd);
    std::remove(tmp.c_str());
    return Status::IoError("cannot open compaction file: " + tmp);
  }

  uint8_t header[kHeaderSize];
  FillHeader(header);
  Status status = Status::OK();
  size_t new_bytes = kHeaderSize;
  if (std::fwrite(header, 1, kHeaderSize, w) != kHeaderSize) {
    status = Status::IoError("cannot write compaction header: " + tmp);
  }
  for (const StoredRecord& r : records) {
    if (!status.ok()) break;
    status = WriteFrame(w, r);
    new_bytes += FrameBytes(r);
  }
  if (status.ok() && std::fflush(w) != 0) {
    status = Status::IoError("compaction flush failed: " + tmp);
  }
  if (!status.ok()) {
    std::fclose(w);
    std::remove(tmp.c_str());
    return status;
  }

  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::fclose(w);
    std::remove(tmp.c_str());
    return Status::IoError("cannot swap compacted log into place: " + path_);
  }
  // The locked tmp stream (positioned at the tail) becomes the log's
  // stream; closing the old stream releases the lock on the dead inode.
  if (file_ != nullptr) std::fclose(file_);
  file_ = w;

  // The rewrite's shrinkage is the compaction's yield; growth (never
  // expected — Rewrite only drops records) reclaims nothing.
  if (size_bytes_ > new_bytes) reclaimed_bytes_ += size_bytes_ - new_bytes;
  size_bytes_ = new_bytes;
  discarded_tail_bytes_ = 0;
  return Status::OK();
}

}  // namespace modis
