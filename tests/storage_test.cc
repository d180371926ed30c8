#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "core/algorithms.h"
#include "datagen/tasks.h"
#include "estimator/supervised_evaluator.h"
#include "service/discovery_service.h"
#include "storage/persistent_record_cache.h"
#include "storage/record_log.h"

namespace modis {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- helpers

/// A fresh path under the test temp dir (removed eagerly so each test
/// starts from a missing file).
std::string TempLogPath(const std::string& name) {
  const fs::path path = fs::path(::testing::TempDir()) / name;
  fs::remove(path);
  fs::remove(fs::path(path.string() + ".compact"));
  return path.string();
}

StoredRecord MakeRecord(uint64_t fingerprint, const std::string& key,
                        double salt) {
  StoredRecord r;
  r.fingerprint = fingerprint;
  r.key = key;
  r.features = {salt, salt + 1.0, 0.25};
  r.eval.raw = {salt * 2.0, -salt};
  r.eval.normalized = {0.5 + salt / 100.0, 0.125};
  return r;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void ExpectRecordEq(const StoredRecord& a, const StoredRecord& b) {
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.features, b.features);
  EXPECT_EQ(a.eval.raw, b.eval.raw);
  EXPECT_EQ(a.eval.normalized, b.eval.normalized);
}

// ---------------------------------------------------------------- crc / fp

TEST(Crc32Test, MatchesKnownVector) {
  // The classic IEEE 802.3 check value.
  const char data[] = "123456789";
  EXPECT_EQ(Crc32(data, 9), 0xCBF43926u);
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::vector<uint8_t> payload(64, 0xA5);
  const uint32_t clean = Crc32(payload.data(), payload.size());
  payload[17] ^= 0x01;
  EXPECT_NE(clean, Crc32(payload.data(), payload.size()));
}

TEST(FingerprintBuilderTest, SensitiveToContentOrderAndType) {
  const uint64_t a = FingerprintBuilder().Add("x").Add(uint64_t{1}).Digest();
  const uint64_t b = FingerprintBuilder().Add("x").Add(uint64_t{2}).Digest();
  const uint64_t c = FingerprintBuilder().Add(uint64_t{1}).Add("x").Digest();
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  // Deterministic across builders.
  EXPECT_EQ(a, FingerprintBuilder().Add("x").Add(uint64_t{1}).Digest());
}

// ---------------------------------------------------------------- log

TEST(RecordLogTest, PayloadRoundTrip) {
  const StoredRecord record = MakeRecord(42, "10110", 3.0);
  const std::vector<uint8_t> payload = RecordLog::EncodePayload(record);
  StoredRecord decoded;
  ASSERT_TRUE(RecordLog::DecodePayload(payload.data(), payload.size(),
                                       &decoded));
  ExpectRecordEq(record, decoded);
  // Truncated payloads never decode.
  for (size_t cut : {size_t{0}, size_t{1}, payload.size() - 1}) {
    EXPECT_FALSE(RecordLog::DecodePayload(payload.data(), cut, &decoded));
  }
}

TEST(RecordLogTest, FileRoundTrip) {
  const std::string path = TempLogPath("roundtrip.rlog");
  {
    std::vector<StoredRecord> loaded;
    auto log = RecordLog::Open(path, /*read_only=*/false, &loaded);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    EXPECT_TRUE(loaded.empty());
    for (int i = 0; i < 5; ++i) {
      MODIS_CHECK_OK(log->Append(MakeRecord(7, "key" + std::to_string(i),
                                            double(i))));
    }
    MODIS_CHECK_OK(log->Flush());
  }
  std::vector<StoredRecord> loaded;
  auto log = RecordLog::Open(path, /*read_only=*/true, &loaded);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_EQ(loaded.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    ExpectRecordEq(loaded[i], MakeRecord(7, "key" + std::to_string(i),
                                         double(i)));
  }
  EXPECT_EQ(log->discarded_tail_bytes(), 0u);
}

TEST(RecordLogTest, ReadOnlyOpenOfMissingFileFails) {
  auto log = RecordLog::Open(TempLogPath("missing.rlog"),
                             /*read_only=*/true, nullptr);
  EXPECT_FALSE(log.ok());
}

TEST(RecordLogTest, RecoversFromTornTail) {
  const std::string path = TempLogPath("torn.rlog");
  {
    std::vector<StoredRecord> loaded;
    auto log = RecordLog::Open(path, false, &loaded);
    ASSERT_TRUE(log.ok());
    MODIS_CHECK_OK(log->Append(MakeRecord(1, "a", 1.0)));
    MODIS_CHECK_OK(log->Append(MakeRecord(1, "b", 2.0)));
    MODIS_CHECK_OK(log->Flush());
  }
  // Simulate a crash mid-append: a frame header promising more bytes than
  // were written.
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const uint8_t torn[6] = {0xFF, 0x00, 0x00, 0x00, 0xDE, 0xAD};
    ASSERT_EQ(std::fwrite(torn, 1, sizeof(torn), f), sizeof(torn));
    std::fclose(f);
  }
  // Writable reopen: valid prefix recovered, tail truncated, appends land
  // cleanly after the last good record.
  {
    std::vector<StoredRecord> loaded;
    auto log = RecordLog::Open(path, false, &loaded);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_EQ(log->discarded_tail_bytes(), 6u);
    MODIS_CHECK_OK(log->Append(MakeRecord(1, "c", 3.0)));
    MODIS_CHECK_OK(log->Flush());
  }
  std::vector<StoredRecord> loaded;
  auto log = RecordLog::Open(path, true, &loaded);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded[2].key, "c");
  EXPECT_EQ(log->discarded_tail_bytes(), 0u);
}

TEST(RecordLogTest, CrcMismatchStopsTheScan) {
  const std::string path = TempLogPath("crc.rlog");
  {
    std::vector<StoredRecord> loaded;
    auto log = RecordLog::Open(path, false, &loaded);
    ASSERT_TRUE(log.ok());
    MODIS_CHECK_OK(log->Append(MakeRecord(1, "first", 1.0)));
    MODIS_CHECK_OK(log->Append(MakeRecord(1, "second", 2.0)));
    MODIS_CHECK_OK(log->Flush());
  }
  // Flip one payload byte of the second record (the final byte of the
  // file), leaving its frame header intact.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, -1, SEEK_END), 0);
    const int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, -1, SEEK_END), 0);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }
  std::vector<StoredRecord> loaded;
  auto log = RecordLog::Open(path, true, &loaded);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].key, "first");
  EXPECT_GT(log->discarded_tail_bytes(), 0u);
}

TEST(RecordLogTest, RejectsVersionMismatch) {
  const std::string path = TempLogPath("version.rlog");
  {
    std::vector<StoredRecord> loaded;
    auto log = RecordLog::Open(path, false, &loaded);
    ASSERT_TRUE(log.ok());
    MODIS_CHECK_OK(log->Append(MakeRecord(1, "a", 1.0)));
    MODIS_CHECK_OK(log->Flush());
  }
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 8, SEEK_SET), 0);  // Version field.
    std::fputc(RecordLog::kFormatVersion + 1, f);
    std::fclose(f);
  }
  auto log = RecordLog::Open(path, false, nullptr);
  ASSERT_FALSE(log.ok());
  EXPECT_NE(log.status().ToString().find("version"), std::string::npos);
}

TEST(RecordLogTest, TornHeaderIsRewrittenOnWritableOpen) {
  // A crash between create and the 16-byte header write leaves a short
  // prefix of our header; it can hold no records, so a writable open
  // treats it as fresh. Read-only opens and short *foreign* files fail.
  const std::string path = TempLogPath("torn_header.rlog");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(RecordLog::kMagic, 1, 5, f), 5u);
    std::fclose(f);
  }
  EXPECT_FALSE(RecordLog::Open(path, /*read_only=*/true, nullptr).ok());
  {
    std::vector<StoredRecord> loaded;
    auto log = RecordLog::Open(path, /*read_only=*/false, &loaded);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    EXPECT_TRUE(loaded.empty());
    MODIS_CHECK_OK(log->Append(MakeRecord(1, "a", 1.0)));
    MODIS_CHECK_OK(log->Flush());
  }
  std::vector<StoredRecord> loaded;
  ASSERT_TRUE(RecordLog::Open(path, true, &loaded).ok());
  ASSERT_EQ(loaded.size(), 1u);

  // Same-length file with foreign content is rejected, not clobbered.
  const std::string foreign = TempLogPath("short_foreign.bin");
  {
    std::FILE* f = std::fopen(foreign.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("MODIX", f);
    std::fclose(f);
  }
  EXPECT_FALSE(RecordLog::Open(foreign, /*read_only=*/false, nullptr).ok());
}

TEST(RecordLogTest, RejectsForeignFiles) {
  const std::string path = TempLogPath("foreign.bin");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("definitely not a record log, but long enough", f);
    std::fclose(f);
  }
  EXPECT_FALSE(RecordLog::Open(path, false, nullptr).ok());

  // A file of the retired paged engine (magic "MODISPG2") is foreign too:
  // both cache modes refuse it without touching its bytes, and a service
  // query pointed at it degrades to a cold answer instead of failing.
  const std::string retired = TempLogPath("retired_paged.cache");
  const std::string content =
      std::string("MODISPG2") + std::string(4088, '\x5a');
  {
    std::ofstream out(retired, std::ios::binary);
    out << content;
  }
  for (CacheMode mode : {CacheMode::kRead, CacheMode::kReadWrite}) {
    auto opened = PersistentRecordCache::Open(retired, mode, 7);
    ASSERT_FALSE(opened.ok());
    EXPECT_NE(opened.status().ToString().find("not a MODis record log"),
              std::string::npos)
        << opened.status().ToString();
  }
  EXPECT_EQ(FileBytes(retired), content);

  DiscoveryService::Options options;
  options.sessions = 1;
  options.valuation_threads = 2;
  options.task_row_scale = 0.4;
  options.default_cache_path = retired;
  DiscoveryService service(options);
  DiscoveryRequest request;
  request.task = "T2";
  request.budget = 20;
  request.maxl = 2;
  request.measures = {"f1", "acc", "fisher", "mi"};
  ::testing::internal::CaptureStderr();
  auto answered = service.Answer(request);
  const std::string log = ::testing::internal::GetCapturedStderr();
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  EXPECT_FALSE(answered->cache_active);
  EXPECT_GT(answered->exact_evals, 0u);
  EXPECT_EQ(answered->persistent_hits, 0u);
  EXPECT_FALSE(answered->skyline.empty());
  EXPECT_NE(log.find("record cache disabled"), std::string::npos) << log;
  EXPECT_EQ(FileBytes(retired), content);
}

// ---------------------------------------------------------------- cache

TEST(PersistentRecordCacheTest, InsertGetAndReload) {
  const std::string path = TempLogPath("cache.rlog");
  Evaluation eval;
  eval.raw = {0.9, 12.0};
  eval.normalized = {0.1, 0.6};
  StoredRecord hit;
  {
    auto cache =
        PersistentRecordCache::Open(path, CacheMode::kReadWrite, 99);
    ASSERT_TRUE(cache.ok());
    EXPECT_FALSE((*cache)->Get(99, "110", &hit));
    (*cache)->Insert(99, "110", {1.0, 1.0, 0.0}, eval);
    ASSERT_TRUE((*cache)->Get(99, "110", &hit));
    EXPECT_EQ(hit.eval.normalized, eval.normalized);
    MODIS_CHECK_OK((*cache)->Flush());
  }
  auto cache = PersistentRecordCache::Open(path, CacheMode::kRead, 99);
  ASSERT_TRUE(cache.ok());
  EXPECT_EQ((*cache)->stats().task_records, 1u);
  ASSERT_TRUE((*cache)->Get(99, "110", &hit));
  EXPECT_EQ(hit.eval.raw, eval.raw);
  EXPECT_EQ((*cache)->stats().served, 1u);
}

TEST(PersistentRecordCacheTest, FingerprintScopesServing) {
  const std::string path = TempLogPath("cache_scope.rlog");
  Evaluation eval;
  eval.raw = {1.0};
  eval.normalized = {0.5};
  {
    auto cache =
        PersistentRecordCache::Open(path, CacheMode::kReadWrite, 1);
    ASSERT_TRUE(cache.ok());
    (*cache)->Insert(1, "101", {1.0}, eval);
    MODIS_CHECK_OK((*cache)->Flush());
  }
  // A different task sees nothing, but its own inserts coexist in the
  // same file.
  {
    auto cache =
        PersistentRecordCache::Open(path, CacheMode::kReadWrite, 2);
    ASSERT_TRUE(cache.ok());
    EXPECT_EQ((*cache)->stats().loaded_records, 1u);
    EXPECT_EQ((*cache)->stats().task_records, 0u);
    EXPECT_FALSE((*cache)->Get(2, "101", nullptr));
    (*cache)->Insert(2, "101", {2.0}, eval);
    MODIS_CHECK_OK((*cache)->Flush());
  }
  auto cache = PersistentRecordCache::Open(path, CacheMode::kRead, 1);
  ASSERT_TRUE(cache.ok());
  EXPECT_EQ((*cache)->stats().loaded_records, 2u);
  EXPECT_EQ((*cache)->stats().task_records, 1u);
  StoredRecord hit;
  ASSERT_TRUE((*cache)->Get(1, "101", &hit));
  EXPECT_EQ(hit.features, (std::vector<double>{1.0}));
}

TEST(PersistentRecordCacheTest, DuplicateKeysLastWriteWinsAndCompact) {
  const std::string path = TempLogPath("cache_dup.rlog");
  {
    std::vector<StoredRecord> loaded;
    auto log = RecordLog::Open(path, false, &loaded);
    ASSERT_TRUE(log.ok());
    // Three generations of the same key plus one live record: 2 of 4 are
    // dead, which crosses the >=50% auto-compaction threshold.
    MODIS_CHECK_OK(log->Append(MakeRecord(5, "k", 1.0)));
    MODIS_CHECK_OK(log->Append(MakeRecord(5, "k", 2.0)));
    MODIS_CHECK_OK(log->Append(MakeRecord(5, "k", 3.0)));
    MODIS_CHECK_OK(log->Append(MakeRecord(6, "other", 9.0)));
    MODIS_CHECK_OK(log->Flush());
  }
  const auto size_before = fs::file_size(path);
  {
    auto cache =
        PersistentRecordCache::Open(path, CacheMode::kReadWrite, 5);
    ASSERT_TRUE(cache.ok());
    StoredRecord hit;
    ASSERT_TRUE((*cache)->Get(5, "k", &hit));
    ExpectRecordEq(hit, MakeRecord(5, "k", 3.0));  // Last write won.
    EXPECT_EQ((*cache)->stats().compacted_away, 2u);
  }
  EXPECT_LT(fs::file_size(path), size_before);
  // Compaction preserved the latest generation and the foreign record.
  std::vector<StoredRecord> loaded;
  auto log = RecordLog::Open(path, true, &loaded);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(loaded.size(), 2u);
  std::sort(loaded.begin(), loaded.end(),
            [](const StoredRecord& a, const StoredRecord& b) {
              return a.fingerprint < b.fingerprint;
            });
  ExpectRecordEq(loaded[0], MakeRecord(5, "k", 3.0));
  ExpectRecordEq(loaded[1], MakeRecord(6, "other", 9.0));
}

// ---------------------------------------------------------------- locking

TEST(RecordLogLockTest, SingleWriterContractFailsFast) {
  const std::string path = TempLogPath("lock_writer.rlog");
  {
    auto writer = RecordLog::Open(path, /*read_only=*/false, nullptr);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();

    // A second writer — same process, different open file description —
    // must fail fast instead of interleaving scan/truncate/append.
    auto second = RecordLog::Open(path, /*read_only=*/false, nullptr);
    ASSERT_FALSE(second.ok());
    EXPECT_NE(second.status().ToString().find("locked"), std::string::npos);

    // Readers are excluded while a writer is live: the host owning the
    // file answers queries; late readers degrade to a cold run.
    auto reader = RecordLog::Open(path, /*read_only=*/true, nullptr);
    ASSERT_FALSE(reader.ok());
    EXPECT_NE(reader.status().ToString().find("locked"), std::string::npos);
  }
  // The lock dies with the writer: both opens succeed afterwards.
  EXPECT_TRUE(RecordLog::Open(path, /*read_only=*/true, nullptr).ok());
  EXPECT_TRUE(RecordLog::Open(path, /*read_only=*/false, nullptr).ok());
}

TEST(RecordLogLockTest, RewriteCarriesTheWriterLock) {
  const std::string path = TempLogPath("lock_rewrite.rlog");
  auto writer = RecordLog::Open(path, /*read_only=*/false, nullptr);
  ASSERT_TRUE(writer.ok());
  MODIS_CHECK_OK(writer->Append(MakeRecord(1, "a", 1.0)));
  MODIS_CHECK_OK(writer->Rewrite({MakeRecord(1, "a", 1.0)}));
  // Still the single writer after the compaction swap.
  EXPECT_FALSE(RecordLog::Open(path, /*read_only=*/false, nullptr).ok());
  MODIS_CHECK_OK(writer->Append(MakeRecord(1, "b", 2.0)));
  MODIS_CHECK_OK(writer->Flush());
}

TEST(PersistentRecordCacheTest, WriterLockExcludesSecondCache) {
  const std::string path = TempLogPath("lock_cache.rlog");
  auto host = PersistentRecordCache::Open(path, CacheMode::kReadWrite, 1);
  ASSERT_TRUE(host.ok());
  auto intruder =
      PersistentRecordCache::Open(path, CacheMode::kReadWrite, 1);
  EXPECT_FALSE(intruder.ok());
}

TEST(PersistentRecordCacheTest, TornTailRecoveryUnderLock) {
  const std::string path = TempLogPath("lock_torn.rlog");
  Evaluation eval;
  eval.raw = {1.0};
  eval.normalized = {0.5};
  {
    auto cache = PersistentRecordCache::Open(path, CacheMode::kReadWrite, 3);
    ASSERT_TRUE(cache.ok());
    (*cache)->Insert(3, "111", {1.0}, eval);
    MODIS_CHECK_OK((*cache)->Flush());
  }
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const uint8_t torn[5] = {0x40, 0x00, 0x00, 0x00, 0xAB};
    ASSERT_EQ(std::fwrite(torn, 1, sizeof(torn), f), sizeof(torn));
    std::fclose(f);
  }
  // The writable (locked) open truncates the torn tail in place and
  // appends after the valid prefix, exactly as before locking existed.
  {
    auto cache = PersistentRecordCache::Open(path, CacheMode::kReadWrite, 3);
    ASSERT_TRUE(cache.ok()) << cache.status().ToString();
    EXPECT_EQ((*cache)->stats().discarded_tail_bytes, 5u);
    EXPECT_EQ((*cache)->stats().task_records, 1u);
    (*cache)->Insert(3, "110", {2.0}, eval);
    MODIS_CHECK_OK((*cache)->Flush());
  }
  std::vector<StoredRecord> records;
  auto log = RecordLog::Open(path, /*read_only=*/true, &records);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(records.size(), 2u);
  EXPECT_EQ(log->discarded_tail_bytes(), 0u);
}

// --------------------------------------------------------------- bounding

TEST(PersistentRecordCacheTest, EvictionKeepsMostRecentlyHitRecords) {
  const std::string path = TempLogPath("evict_records.rlog");
  const size_t frame = RecordLog::FrameBytes(MakeRecord(7, "k1", 0.0));
  PersistentRecordCache::Options options;
  options.max_bytes = RecordLog::kHeaderSize + 4 * frame;
  auto cache =
      PersistentRecordCache::Open(path, CacheMode::kReadWrite, 7, options);
  ASSERT_TRUE(cache.ok());
  for (int i = 1; i <= 6; ++i) {
    const StoredRecord r = MakeRecord(7, "k" + std::to_string(i), double(i));
    (*cache)->Insert(7, r.key, r.features, r.eval);
  }
  // Refresh k1 and k2: the least-recently-hit records are now k3 and k4.
  EXPECT_TRUE((*cache)->Get(7, "k1", nullptr));
  EXPECT_TRUE((*cache)->Get(7, "k2", nullptr));

  MODIS_CHECK_OK((*cache)->Flush());
  EXPECT_EQ((*cache)->stats().evicted, 2u);
  EXPECT_LE((*cache)->stats().log_bytes, options.max_bytes);
  EXPECT_LE(fs::file_size(path), options.max_bytes);
  for (const char* kept : {"k1", "k2", "k5", "k6"}) {
    EXPECT_TRUE((*cache)->Touch(7, kept)) << kept;
  }
  for (const char* gone : {"k3", "k4"}) {
    EXPECT_FALSE((*cache)->Touch(7, gone)) << gone;
  }
}

TEST(PersistentRecordCacheTest, ByteBoundRewriteReportsReclaimedBytes) {
  // The compaction counter behind the service's cache_reclaimed_bytes.
  const std::string path = TempLogPath("reclaim.rlog");
  PersistentRecordCache::Options options;
  options.max_bytes = 2048;
  auto cache =
      PersistentRecordCache::Open(path, CacheMode::kReadWrite, 7, options);
  ASSERT_TRUE(cache.ok());
  for (int i = 0; i < 60; ++i) {
    const StoredRecord r = MakeRecord(7, "v" + std::to_string(i), i);
    (*cache)->Insert(7, r.key, r.features, r.eval);
  }
  ASSERT_TRUE((*cache)->Flush().ok());
  const PersistentRecordCache::Stats stats = (*cache)->stats();
  ASSERT_EQ(FileBytes(path).compare(0, 8, RecordLog::kMagic, 8), 0);
  EXPECT_GT(stats.evicted, 0u);
  EXPECT_GT(stats.reclaimed_bytes, 0u);
  EXPECT_LE(stats.log_bytes, options.max_bytes);
}

TEST(PersistentRecordCacheTest, EvictionDropsLeastRecentlyHitFingerprintFirst) {
  const std::string path = TempLogPath("evict_fps.rlog");
  const size_t frame = RecordLog::FrameBytes(MakeRecord(1, "k1", 0.0));
  PersistentRecordCache::Options options;
  options.max_bytes = RecordLog::kHeaderSize + 2 * frame;
  auto cache =
      PersistentRecordCache::Open(path, CacheMode::kReadWrite, 1, options);
  ASSERT_TRUE(cache.ok());
  const StoredRecord a1 = MakeRecord(1, "k1", 1.0);
  const StoredRecord a2 = MakeRecord(1, "k2", 2.0);
  const StoredRecord b1 = MakeRecord(2, "k1", 3.0);
  const StoredRecord b2 = MakeRecord(2, "k2", 4.0);
  (*cache)->Insert(1, a1.key, a1.features, a1.eval);
  (*cache)->Insert(1, a2.key, a2.features, a2.eval);
  (*cache)->Insert(2, b1.key, b1.features, b1.eval);
  (*cache)->Insert(2, b2.key, b2.features, b2.eval);
  // Task 1 was hit most recently: ALL of task 2's records go first, even
  // though task 2's inserts are newer than task 1's.
  EXPECT_TRUE((*cache)->Get(1, "k1", nullptr));

  MODIS_CHECK_OK((*cache)->Flush());
  EXPECT_EQ((*cache)->stats().evicted, 2u);
  EXPECT_TRUE((*cache)->Touch(1, "k1"));
  EXPECT_TRUE((*cache)->Touch(1, "k2"));
  EXPECT_FALSE((*cache)->Touch(2, "k1"));
  EXPECT_FALSE((*cache)->Touch(2, "k2"));
  EXPECT_LE(fs::file_size(path), options.max_bytes);
}

// ------------------------------------------------------------ concurrency

TEST(PersistentRecordCacheTest, ConcurrentReadersAndOneWriterStayConsistent) {
  const std::string path = TempLogPath("concurrent.rlog");
  auto opened = PersistentRecordCache::Open(path, CacheMode::kReadWrite, 9);
  ASSERT_TRUE(opened.ok());
  PersistentRecordCache* cache = opened->get();

  Evaluation eval;
  eval.raw = {1.0, 2.0};
  eval.normalized = {0.25, 0.5};
  constexpr int kBase = 32;
  constexpr int kFresh = 64;
  for (int i = 0; i < kBase; ++i) {
    cache->Insert(9, "base" + std::to_string(i), {double(i)}, eval);
  }
  MODIS_CHECK_OK(cache->Flush());

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([cache] {
      for (int round = 0; round < 200; ++round) {
        const std::string key = "base" + std::to_string(round % kBase);
        StoredRecord record;
        EXPECT_TRUE(cache->Get(9, key, &record));
        EXPECT_EQ(record.key, key);
        EXPECT_EQ(record.eval.normalized.size(), 2u);
        cache->Touch(9, "fresh" + std::to_string(round % kFresh));
      }
    });
  }
  std::thread writer([cache, &eval] {
    for (int i = 0; i < kFresh; ++i) {
      cache->Insert(9, "fresh" + std::to_string(i), {double(i), 1.0}, eval);
      if (i % 8 == 7) MODIS_CHECK_OK(cache->Flush());
    }
  });
  for (std::thread& r : readers) r.join();
  writer.join();
  MODIS_CHECK_OK(cache->Flush());
  EXPECT_EQ(cache->size(), size_t(kBase + kFresh));
  opened->reset();  // Release the writer lock before reloading.

  std::vector<StoredRecord> records;
  auto log = RecordLog::Open(path, /*read_only=*/true, &records);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(records.size(), size_t(kBase + kFresh));
  EXPECT_EQ(log->discarded_tail_bytes(), 0u);
}

// ------------------------------------------------------------ end-to-end

/// Fixture of the cache determinism tests: the T2 house task with its
/// wall-clock measure removed (train_time would make the cache-off vs
/// cache-on comparison flaky by definition — see docs/PERSISTENCE.md).
struct DeterminismFixture {
  TabularBench bench;
  SearchUniverse universe;
  SupervisedTask task;

  static DeterminismFixture Make() {
    auto bench = MakeTabularBench(BenchTaskId::kHouse, 0.4);
    EXPECT_TRUE(bench.ok());
    auto universe =
        SearchUniverse::Build(bench->universal, bench->universe_options);
    EXPECT_TRUE(universe.ok());
    SupervisedTask task = bench->task;
    task.measures.clear();
    for (const MeasureSpec& m : bench->task.measures) {
      if (m.name != "train_time") task.measures.push_back(m);
    }
    EXPECT_GE(task.measures.size(), 2u);
    return {std::move(bench).value(), std::move(universe).value(),
            std::move(task)};
  }

  ModisConfig Config(const std::string& cache_path) const {
    ModisConfig cfg;
    cfg.epsilon = 0.25;
    cfg.max_states = 90;
    cfg.max_level = 3;
    cfg.record_cache_path = cache_path;
    return cfg;
  }

  ModisResult Run(const ModisConfig& cfg, bool surrogate) {
    SupervisedEvaluator evaluator(task, bench.model->Clone());
    std::optional<SurrogateOptions> surrogate_options;
    if (surrogate) surrogate_options.emplace();
    PerformanceOracle oracle(&evaluator, surrogate_options);
    auto result = RunBiModis(universe, &oracle, cfg);
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  }
};

void ExpectSameSkyline(ModisResult a, ModisResult b) {
  EXPECT_EQ(a.valuated_states, b.valuated_states);
  EXPECT_EQ(a.generated_states, b.generated_states);
  EXPECT_EQ(a.pruned_states, b.pruned_states);
  ASSERT_EQ(a.skyline.size(), b.skyline.size());
  ASSERT_FALSE(a.skyline.empty());
  auto by_signature = [](const SkylineEntry& x, const SkylineEntry& y) {
    return x.state.Signature() < y.state.Signature();
  };
  std::sort(a.skyline.begin(), a.skyline.end(), by_signature);
  std::sort(b.skyline.begin(), b.skyline.end(), by_signature);
  for (size_t i = 0; i < a.skyline.size(); ++i) {
    const SkylineEntry& x = a.skyline[i];
    const SkylineEntry& y = b.skyline[i];
    EXPECT_EQ(x.state.Signature(), y.state.Signature());
    EXPECT_EQ(x.level, y.level);
    ASSERT_EQ(x.eval.normalized.size(), y.eval.normalized.size());
    for (size_t j = 0; j < x.eval.normalized.size(); ++j) {
      EXPECT_DOUBLE_EQ(x.eval.normalized[j], y.eval.normalized[j]);
      EXPECT_DOUBLE_EQ(x.eval.raw[j], y.eval.raw[j]);
    }
  }
}

TEST(CacheDeterminismTest, ExactModeOffColdWarmAllAgree) {
  auto f = DeterminismFixture::Make();
  const std::string path = TempLogPath("exact_determinism.rlog");

  ModisResult off = f.Run(f.Config(""), /*surrogate=*/false);
  ModisResult cold = f.Run(f.Config(path), /*surrogate=*/false);
  ModisResult warm = f.Run(f.Config(path), /*surrogate=*/false);

  // Cold run: cache engaged but empty, so it trains everything and only
  // writes. Off vs cold must be byte-identical.
  EXPECT_FALSE(off.record_cache_active);
  EXPECT_TRUE(cold.record_cache_active);
  EXPECT_TRUE(warm.record_cache_active);
  EXPECT_EQ(cold.record_cache_stats.loaded_records, 0u);
  EXPECT_EQ(cold.oracle_stats.persistent_hits, 0u);
  EXPECT_GT(cold.record_cache_stats.appended, 0u);
  EXPECT_EQ(cold.oracle_stats.exact_evals, off.oracle_stats.exact_evals);

  // Warm run: every previously seen state replays from the log — zero
  // exact trainings.
  EXPECT_EQ(warm.oracle_stats.exact_evals, 0u);
  EXPECT_EQ(warm.oracle_stats.persistent_hits,
            cold.oracle_stats.exact_evals);
  EXPECT_EQ(warm.record_cache_stats.loaded_records,
            cold.record_cache_stats.appended);

  ExpectSameSkyline(off, std::move(cold));
  ExpectSameSkyline(f.Run(f.Config(""), false), std::move(warm));
}

TEST(CacheDeterminismTest, SurrogateOracleReplaysTheColdPlan) {
  // The MO-GBM oracle consumes policy randomness while planning; the
  // persistent substitution happens after each policy decision, so a warm
  // run replays the cold run's plan verbatim: same surrogate count, zero
  // trainings, identical skyline.
  auto f = DeterminismFixture::Make();
  const std::string path = TempLogPath("surrogate_determinism.rlog");

  ModisResult off = f.Run(f.Config(""), /*surrogate=*/true);
  ModisResult cold = f.Run(f.Config(path), /*surrogate=*/true);
  ModisResult warm = f.Run(f.Config(path), /*surrogate=*/true);

  EXPECT_EQ(cold.oracle_stats.exact_evals, off.oracle_stats.exact_evals);
  EXPECT_EQ(cold.oracle_stats.surrogate_evals,
            off.oracle_stats.surrogate_evals);

  EXPECT_EQ(warm.oracle_stats.exact_evals, 0u);
  EXPECT_EQ(warm.oracle_stats.persistent_hits,
            cold.oracle_stats.exact_evals);
  EXPECT_EQ(warm.oracle_stats.surrogate_evals,
            cold.oracle_stats.surrogate_evals);

  ExpectSameSkyline(off, std::move(cold));
  ExpectSameSkyline(f.Run(f.Config(""), true), std::move(warm));
}

TEST(CacheDeterminismTest, TaskFingerprintSeparatesMeasureSets) {
  auto f = DeterminismFixture::Make();
  const uint64_t a =
      ModisEngine::TaskFingerprint(f.universe, f.task.measures, "");
  const uint64_t b =
      ModisEngine::TaskFingerprint(f.universe, f.bench.task.measures, "");
  EXPECT_NE(a, b);  // With vs without train_time.
  const uint64_t salted =
      ModisEngine::TaskFingerprint(f.universe, f.task.measures, "model-v2");
  EXPECT_NE(a, salted);
  EXPECT_EQ(a, ModisEngine::TaskFingerprint(f.universe, f.task.measures, ""));
}

TEST(CacheDeterminismTest, TaskFingerprintSeesCellContent) {
  // Same schema, same shape, different data (another generator scale →
  // different values but identical columns) must not share records.
  auto bench_a = MakeTabularBench(BenchTaskId::kHouse, 0.4);
  auto bench_b = MakeTabularBench(BenchTaskId::kHouse, 0.4);
  ASSERT_TRUE(bench_a.ok() && bench_b.ok());
  // Perturb one cell of an otherwise identical universal table.
  Table perturbed = bench_b->universal;
  auto universe_a = SearchUniverse::Build(bench_a->universal,
                                          bench_a->universe_options);
  ASSERT_TRUE(universe_a.ok());
  const uint64_t fp_same = ModisEngine::TaskFingerprint(
      *universe_a, bench_a->task.measures, "");
  {
    auto universe_b =
        SearchUniverse::Build(perturbed, bench_b->universe_options);
    ASSERT_TRUE(universe_b.ok());
    // Identical generation → identical fingerprint.
    EXPECT_EQ(fp_same, ModisEngine::TaskFingerprint(
                           *universe_b, bench_b->task.measures, ""));
  }
  perturbed.Set(0, 0, Value(int64_t{987654}));
  auto universe_c =
      SearchUniverse::Build(perturbed, bench_b->universe_options);
  ASSERT_TRUE(universe_c.ok());
  EXPECT_NE(fp_same, ModisEngine::TaskFingerprint(
                         *universe_c, bench_b->task.measures, ""));
}

TEST(CacheDeterminismTest, BrokenCachePathDegradesToColdRun) {
  auto f = DeterminismFixture::Make();
  // A directory is not a valid log file; the engine must warn and search
  // without persistence rather than fail.
  ModisConfig cfg = f.Config(::testing::TempDir());
  ModisResult result = f.Run(cfg, /*surrogate=*/false);
  EXPECT_GT(result.oracle_stats.exact_evals, 0u);
  EXPECT_FALSE(result.record_cache_active);
  EXPECT_EQ(result.record_cache_stats.loaded_records, 0u);
  EXPECT_EQ(result.record_cache_stats.appended, 0u);
  ExpectSameSkyline(f.Run(f.Config(""), false), std::move(result));
}

/// The cross-process cache contract, both halves (docs/MULTIPROCESS.md):
///
///  1. Fail-fast half (unchanged): while a classic host holds the
///     LIFETIME writer lock on a cache file, a raw open in another
///     process neither hangs nor corrupts anything — it fails fast with
///     FailedPrecondition.
///  2. Positive half (the worker-pool contract): processes that attach
///     in *shared* mode (OpenShared — how every member of a `--workers`
///     pool opens the cache) read each other's published records WARM
///     while all of them are live. No degraded-to-cold fallback.
TEST(CacheDeterminismTest, CrossProcessReadersShareALiveCacheWarm) {
  const std::string path = TempLogPath("xproc_live_host.rlog");
  int ready[2] = {-1, -1}, release[2] = {-1, -1};
  ASSERT_EQ(::pipe(ready), 0);
  ASSERT_EQ(::pipe(release), 0);

  // --- Half 1: a lifetime-writer host still repels raw opens. -----------
  // fork() is safe here: gtest runs this process single-threaded
  // between tests, and the child only opens a file.
  const pid_t locker = ::fork();
  ASSERT_GE(locker, 0);
  if (locker == 0) {
    auto host_cache =
        PersistentRecordCache::Open(path, CacheMode::kReadWrite, 7);
    char byte = host_cache.ok() ? '1' : '0';
    (void)!::write(ready[1], &byte, 1);
    (void)!::read(release[0], &byte, 1);
    ::_exit(0);
  }
  char byte = 0;
  ASSERT_EQ(::read(ready[0], &byte, 1), 1);
  ASSERT_EQ(byte, '1') << "child failed to take the writer lock";

  // A raw read-only open from this process fails fast — no hang (flock
  // is taken with LOCK_NB), no partial scan.
  std::vector<StoredRecord> records;
  auto reader = RecordLog::Open(path, /*read_only=*/true, &records);
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(records.empty());

  ASSERT_EQ(::write(release[1], "x", 1), 1);
  int status = 0;
  ASSERT_EQ(::waitpid(locker, &status, 0), locker);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  for (int fd : {ready[0], ready[1], release[0], release[1]}) ::close(fd);

  // --- Half 2: shared-mode attachments read each other warm, live. ------
  // This process plays one pool member: attach shared, publish records.
  auto writer = PersistentRecordCache::OpenShared(path, /*fingerprint=*/7);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  EXPECT_TRUE((*writer)->shared());
  const StoredRecord warm_a = MakeRecord(7, "warm-a", 1.0);
  const StoredRecord warm_b = MakeRecord(7, "warm-b", 2.0);
  (*writer)->Insert(warm_a.fingerprint, warm_a.key, warm_a.features,
                    warm_a.eval);
  (*writer)->Insert(warm_b.fingerprint, warm_b.key, warm_b.features,
                    warm_b.eval);
  ASSERT_TRUE((*writer)->Flush().ok());  // Publish through a short window.

  // A sibling process attaches shared WHILE this attachment is live and
  // must see the published records immediately — the warm answer.
  const pid_t sibling = ::fork();
  ASSERT_GE(sibling, 0);
  if (sibling == 0) {
    auto reader_cache = PersistentRecordCache::OpenShared(path, 7);
    if (!reader_cache.ok()) ::_exit(2);
    StoredRecord got;
    if (!(*reader_cache)->Get(7, "warm-a", &got)) ::_exit(3);
    if (got.features != MakeRecord(7, "warm-a", 1.0).features) ::_exit(4);
    if (!(*reader_cache)->Get(7, "warm-b", &got)) ::_exit(5);
    // And the sibling can publish its own record into the live file.
    const StoredRecord warm_c = MakeRecord(7, "warm-c", 3.0);
    (*reader_cache)->Insert(warm_c.fingerprint, warm_c.key, warm_c.features,
                            warm_c.eval);
    if (!(*reader_cache)->Flush().ok()) ::_exit(6);
    ::_exit(0);
  }
  status = 0;
  ASSERT_EQ(::waitpid(sibling, &status, 0), sibling);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "shared-mode sibling was cold or could not publish";

  // The first attachment picks the sibling's publish up on refresh —
  // the same path a pool worker takes between queries.
  ASSERT_TRUE((*writer)->RefreshIfChanged().ok());
  StoredRecord theirs;
  EXPECT_TRUE((*writer)->Get(7, "warm-c", &theirs));

  // Once every attachment is gone the file reloads cleanly raw.
  writer->reset();
  records.clear();
  auto reload = RecordLog::Open(path, /*read_only=*/true, &records);
  ASSERT_TRUE(reload.ok()) << reload.status().ToString();
  EXPECT_EQ(reload->discarded_tail_bytes(), 0u);
  EXPECT_EQ(records.size(), 3u);
}

// ------------------------------------------------ shared-attachment refresh

/// Publishes `records` through a second shared attachment — a sibling
/// worker's flush.
void SiblingPublish(const std::string& path,
                    const std::vector<StoredRecord>& records) {
  auto sibling = PersistentRecordCache::OpenShared(path, 0);
  ASSERT_TRUE(sibling.ok());
  for (const StoredRecord& r : records) {
    (*sibling)->Insert(r.fingerprint, r.key, r.features, r.eval);
  }
  ASSERT_TRUE((*sibling)->Flush().ok());
}

/// One record's on-disk frame: u32 size | u32 crc | payload.
std::vector<uint8_t> FrameOf(const StoredRecord& record) {
  const std::vector<uint8_t> payload = RecordLog::EncodePayload(record);
  std::vector<uint8_t> frame(8);
  const uint32_t size = static_cast<uint32_t>(payload.size());
  const uint32_t crc = Crc32(payload.data(), payload.size());
  for (int i = 0; i < 4; ++i) {
    frame[i] = (size >> (8 * i)) & 0xFF;
    frame[4 + i] = (crc >> (8 * i)) & 0xFF;
  }
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

/// Appends raw bytes at the end of the file, bypassing every lock.
void AppendRaw(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

TEST(RecordLogLockTest, OpenFromResumesOnlyWhereThePrefixStillHolds) {
  const std::string path = TempLogPath("open_from.rlog");
  uint64_t inode = 0;
  size_t valid_end = 0;
  {
    auto writer = RecordLog::Open(path, /*read_only=*/false, nullptr);
    ASSERT_TRUE(writer.ok());
    MODIS_CHECK_OK(writer->Append(MakeRecord(1, "a", 1.0)));
    MODIS_CHECK_OK(writer->Append(MakeRecord(1, "b", 2.0)));
    MODIS_CHECK_OK(writer->Flush());
    inode = writer->stamp().inode;
    valid_end = writer->size_bytes();
    EXPECT_EQ(writer->stamp().size, static_cast<int64_t>(valid_end));
  }
  AppendRaw(path, FrameOf(MakeRecord(1, "c", 3.0)));
  // Same file, grown: only the appended frame is decoded, under the
  // writer lock, and the log appends after it.
  {
    std::vector<StoredRecord> scanned;
    auto resumed = RecordLog::OpenFrom(path, inode, valid_end, &scanned);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_TRUE(resumed->resumed());
    ASSERT_EQ(scanned.size(), 1u);
    ExpectRecordEq(scanned[0], MakeRecord(1, "c", 3.0));
    EXPECT_FALSE(RecordLog::Open(path, /*read_only=*/true, nullptr).ok());
    MODIS_CHECK_OK(resumed->Append(MakeRecord(1, "d", 4.0)));
    MODIS_CHECK_OK(resumed->Flush());
    EXPECT_EQ(resumed->stamp().size,
              static_cast<int64_t>(resumed->size_bytes()));
  }
  // Another inode, or an offset inside the header: the whole file.
  for (const auto& [id, offset] :
       {std::pair<uint64_t, size_t>{inode + 1, valid_end},
        std::pair<uint64_t, size_t>{inode, 0}}) {
    std::vector<StoredRecord> scanned;
    auto whole = RecordLog::OpenFrom(path, id, offset, &scanned);
    ASSERT_TRUE(whole.ok());
    EXPECT_FALSE(whole->resumed());
    EXPECT_EQ(scanned.size(), 4u);
  }
  // The same inode rewritten in place with other, longer frames (what a
  // recycled inode number looks like): the old offset falls mid-frame.
  // The resumed scan stops short of the end, so the open rescans whole
  // instead of truncating the file's records there.
  fs::resize_file(path, RecordLog::kHeaderSize);
  for (int i = 0; i < 4; ++i) {
    AppendRaw(path, FrameOf(MakeRecord(2, "longer-key-" + std::to_string(i),
                                       i)));
  }
  const uintmax_t rewritten = fs::file_size(path);
  ASSERT_GT(rewritten, valid_end);
  std::vector<StoredRecord> scanned;
  auto misaligned = RecordLog::OpenFrom(path, inode, valid_end, &scanned);
  ASSERT_TRUE(misaligned.ok());
  EXPECT_FALSE(misaligned->resumed());
  EXPECT_EQ(scanned.size(), 4u);
  EXPECT_EQ(misaligned->discarded_tail_bytes(), 0u);
  EXPECT_EQ(fs::file_size(path), rewritten);
}

/// What a full reload of `path` with `pending` overlaid serves: last write
/// wins over the file, pending fills only the keys the file lacks.
std::map<std::pair<uint64_t, std::string>, StoredRecord> FullReloadView(
    const std::string& path, const std::vector<StoredRecord>& pending) {
  std::map<std::pair<uint64_t, std::string>, StoredRecord> view;
  std::vector<StoredRecord> records;
  EXPECT_TRUE(RecordLog::Open(path, /*read_only=*/true, &records).ok());
  for (const StoredRecord& r : records) view[{r.fingerprint, r.key}] = r;
  for (const StoredRecord& r : pending) {
    view.emplace(std::make_pair(r.fingerprint, r.key), r);
  }
  return view;
}

void ExpectServes(
    PersistentRecordCache* cache,
    const std::map<std::pair<uint64_t, std::string>, StoredRecord>& view) {
  for (const auto& [id, want] : view) {
    StoredRecord got;
    ASSERT_TRUE(cache->Get(id.first, id.second, &got)) << id.second;
    ExpectRecordEq(got, want);
  }
}

TEST(SharedRefreshTest, TailRefreshServesWhatAFullReloadServes) {
  const std::string path = TempLogPath("shared_tail.rlog");
  SiblingPublish(path, {MakeRecord(7, "a", 1.0), MakeRecord(9, "b", 2.0)});
  auto reader = PersistentRecordCache::OpenShared(path, 7);
  ASSERT_TRUE(reader.ok());
  // Unpublished inserts of the reader: one the file never gets, one a
  // sibling publishes with other content (the file's copy must win).
  const std::vector<StoredRecord> pending = {MakeRecord(7, "mine", 3.0),
                                             MakeRecord(9, "both", 4.0)};
  for (const StoredRecord& r : pending) {
    (*reader)->Insert(r.fingerprint, r.key, r.features, r.eval);
  }
  for (int round = 0; round < 4; ++round) {
    const std::string tag = std::to_string(round);
    std::vector<StoredRecord> batch = {MakeRecord(7, "r7-" + tag, round),
                                       MakeRecord(9, "r9-" + tag, -round),
                                       MakeRecord(7, "a", 10.0 + round)};
    if (round == 2) batch.push_back(MakeRecord(9, "both", 40.0));
    SiblingPublish(path, batch);
    ASSERT_TRUE((*reader)->RefreshIfChanged().ok());
    ExpectServes(reader->get(), FullReloadView(path, pending));
  }
  std::vector<StoredRecord> records;
  ASSERT_TRUE(RecordLog::Open(path, /*read_only=*/true, &records).ok());
  EXPECT_EQ((*reader)->stats().loaded_records, records.size());
  EXPECT_EQ((*reader)->stats().log_bytes, fs::file_size(path));

  // The refresh reads only what was appended: garbage written over the
  // already-scanned prefix (same size, so only mtime changes) is never
  // looked at again, while a full reload would stop at it.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, RecordLog::kHeaderSize + 4, SEEK_SET), 0);
    const char junk[4] = {'\x5a', '\x5a', '\x5a', '\x5a'};
    ASSERT_EQ(std::fwrite(junk, 1, 4, f), 4u);
    std::fclose(f);
  }
  AppendRaw(path, FrameOf(MakeRecord(7, "after-junk", 5.0)));
  ASSERT_TRUE((*reader)->RefreshIfChanged().ok());
  StoredRecord got;
  EXPECT_TRUE((*reader)->Get(7, "after-junk", &got));
  EXPECT_TRUE((*reader)->Get(9, "b", &got));
}

TEST(SharedRefreshTest, PartialFrameIsSkippedThenPickedUp) {
  const std::string path = TempLogPath("shared_partial.rlog");
  SiblingPublish(path, {MakeRecord(7, "a", 1.0)});
  auto reader = PersistentRecordCache::OpenShared(path, 7);
  ASSERT_TRUE(reader.ok());

  // A publish caught half written: the frame's first bytes only.
  const StoredRecord half = MakeRecord(7, "half", 2.0);
  const std::vector<uint8_t> frame = FrameOf(half);
  const size_t cut = frame.size() / 2;
  auto append = [&](size_t from, size_t to) {
    AppendRaw(path, std::vector<uint8_t>(frame.begin() + from,
                                         frame.begin() + to));
  };
  append(0, cut);
  ASSERT_TRUE((*reader)->RefreshIfChanged().ok());
  StoredRecord got;
  EXPECT_FALSE((*reader)->Get(7, "half", &got));
  EXPECT_TRUE((*reader)->Get(7, "a", &got));
  append(cut, frame.size());
  ASSERT_TRUE((*reader)->RefreshIfChanged().ok());
  ASSERT_TRUE((*reader)->Get(7, "half", &got));
  ExpectRecordEq(got, half);

  // A publisher killed mid-frame leaves a torn tail; the next publish
  // truncates it in place and appends — the tail read resumes at the
  // same valid end.
  append(0, cut);
  ASSERT_TRUE((*reader)->RefreshIfChanged().ok());
  SiblingPublish(path, {MakeRecord(7, "next", 3.0)});
  ASSERT_TRUE((*reader)->RefreshIfChanged().ok());
  ExpectServes(reader->get(), FullReloadView(path, {}));
  EXPECT_TRUE((*reader)->Get(7, "next", &got));
}

TEST(SharedRefreshTest, ReplacedOrShrunkenFileIsReloadedWhole) {
  const std::string path = TempLogPath("shared_replaced.rlog");
  std::vector<StoredRecord> published;
  for (int i = 0; i < 10; ++i) {
    published.push_back(MakeRecord(7, "k" + std::to_string(i), i));
  }
  SiblingPublish(path, published);
  auto reader = PersistentRecordCache::OpenShared(path, 7);
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ((*reader)->size(), 10u);

  // Byte-bound compaction renames a smaller file over the log (a new
  // inode): records it evicted must disappear from the reader's view.
  {
    PersistentRecordCache::Options options;
    options.max_bytes = RecordLog::kHeaderSize +
                        4 * RecordLog::FrameBytes(published.front());
    auto compactor =
        PersistentRecordCache::Open(path, CacheMode::kReadWrite, 7, options);
    ASSERT_TRUE(compactor.ok());
    ASSERT_GT((*compactor)->stats().evicted, 0u);
  }
  ASSERT_TRUE((*reader)->RefreshIfChanged().ok());
  EXPECT_EQ((*reader)->size(), 4u);
  ExpectServes(reader->get(), FullReloadView(path, {}));

  // Same inode, shorter than the scanned prefix: reloaded whole too.
  const uintmax_t one_frame =
      RecordLog::kHeaderSize + RecordLog::FrameBytes(published.front());
  fs::resize_file(path, one_frame);
  ASSERT_TRUE((*reader)->RefreshIfChanged().ok());
  EXPECT_EQ((*reader)->size(), 1u);
  ExpectServes(reader->get(), FullReloadView(path, {}));
}

TEST(SharedRefreshTest, LockedFileKeepsTheOldSnapshot) {
  const std::string path = TempLogPath("shared_locked.rlog");
  SiblingPublish(path, {MakeRecord(7, "a", 1.0)});
  auto reader = PersistentRecordCache::OpenShared(path, 7);
  ASSERT_TRUE(reader.ok());
  StoredRecord got;
  {
    // A live exclusive writer grows the file and keeps its lock.
    auto writer = PersistentRecordCache::Open(path, CacheMode::kReadWrite, 7);
    ASSERT_TRUE(writer.ok());
    const StoredRecord b = MakeRecord(7, "b", 2.0);
    (*writer)->Insert(7, b.key, b.features, b.eval);
    ASSERT_TRUE((*writer)->Flush().ok());
    EXPECT_TRUE((*reader)->RefreshIfChanged().ok());  // Not an error.
    EXPECT_TRUE((*reader)->Get(7, "a", &got));
    EXPECT_FALSE((*reader)->Get(7, "b", &got));
  }
  ASSERT_TRUE((*reader)->RefreshIfChanged().ok());
  EXPECT_TRUE((*reader)->Get(7, "a", &got));
  EXPECT_TRUE((*reader)->Get(7, "b", &got));
}

// ------------------------------------------------- shared publish by append

/// How many frames the file holds per (fingerprint, key).
std::map<std::pair<uint64_t, std::string>, int> FrameCounts(
    const std::string& path) {
  std::map<std::pair<uint64_t, std::string>, int> counts;
  std::vector<StoredRecord> records;
  auto log = RecordLog::Open(path, /*read_only=*/true, &records);
  EXPECT_TRUE(log.ok()) << log.status().ToString();
  if (log.ok()) {
    EXPECT_EQ(log->discarded_tail_bytes(), 0u);
  }
  for (const StoredRecord& r : records) ++counts[{r.fingerprint, r.key}];
  return counts;
}

void InsertAll(PersistentRecordCache* cache,
               const std::vector<StoredRecord>& records) {
  for (const StoredRecord& r : records) {
    cache->Insert(r.fingerprint, r.key, r.features, r.eval);
  }
}

std::vector<StoredRecord> Batch(const std::string& prefix, int n) {
  std::vector<StoredRecord> batch;
  for (int i = 0; i < n; ++i) {
    batch.push_back(MakeRecord(7, prefix + std::to_string(i), i));
  }
  return batch;
}

TEST(SharedPublishTest, AnAttachmentNeverReadsItsOwnPublishBack) {
  const std::string path = TempLogPath("publish_restamp.rlog");
  SiblingPublish(path, Batch("base-", 3));
  auto cache = PersistentRecordCache::OpenShared(path, 7);
  ASSERT_TRUE(cache.ok());
  for (int round = 0; round < 3; ++round) {
    InsertAll(cache->get(), Batch("own-" + std::to_string(round) + "-", 5));
    ASSERT_TRUE((*cache)->Flush().ok());
    const size_t loaded = (*cache)->stats().loaded_records;
    ASSERT_TRUE((*cache)->RefreshIfChanged().ok());
    EXPECT_EQ((*cache)->stats().loaded_records, loaded)
        << "round " << round << ": the refresh re-indexed its own frames";
    EXPECT_EQ((*cache)->stats().log_bytes, fs::file_size(path));
  }
  EXPECT_EQ((*cache)->stats().decoded_records, 3u);
  EXPECT_EQ((*cache)->stats().appended, 15u);
}

TEST(SharedPublishTest, PublishCostFollowsTheTailNotTheFile) {
  const std::string path = TempLogPath("publish_tail.rlog");
  const std::vector<StoredRecord> preload = Batch("pre-", 2000);
  SiblingPublish(path, preload);
  auto first = PersistentRecordCache::OpenShared(path, 7);
  auto second = PersistentRecordCache::OpenShared(path, 7);
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_EQ((*second)->stats().decoded_records, 2000u);

  InsertAll(first->get(), Batch("first-", 10));
  const size_t first_before = (*first)->stats().decoded_records;
  ASSERT_TRUE((*first)->Flush().ok());
  EXPECT_EQ((*first)->stats().decoded_records, first_before);

  // The second publisher decodes the first one's 10 frames, not the
  // 2,010 the file holds.
  InsertAll(second->get(), Batch("second-", 10));
  const size_t second_before = (*second)->stats().decoded_records;
  ASSERT_TRUE((*second)->Flush().ok());
  EXPECT_EQ((*second)->stats().decoded_records - second_before, 10u);
  StoredRecord got;
  EXPECT_TRUE((*second)->Get(7, "first-3", &got));

  const auto counts = FrameCounts(path);
  EXPECT_EQ(counts.size(), 2020u);
  for (const auto& [id, n] : counts) EXPECT_EQ(n, 1) << id.second;
}

TEST(SharedPublishTest, EdgeCasesUnderTheWriterLock) {
  struct Case {
    const char* name;
    /// What happens to the file between the publisher's snapshot and
    /// its Flush; returns the keys it added.
    std::function<std::vector<StoredRecord>(const std::string& path)>
        disturb;
  };
  const std::vector<Case> cases = {
      {"killed sibling left half a frame",
       [](const std::string& path) {
         const std::vector<uint8_t> frame =
             FrameOf(MakeRecord(7, "torn", 9.0));
         AppendRaw(path, std::vector<uint8_t>(
                             frame.begin(), frame.begin() + frame.size() / 2));
         return std::vector<StoredRecord>{};
       }},
      {"sibling compaction replaced the inode",
       [](const std::string& path) {
         const uint64_t inode = FileStamp::Of(path).inode;
         const std::vector<StoredRecord> added = {MakeRecord(7, "sib", 5.0)};
         SiblingPublish(path, added);
         auto host = PersistentRecordCache::Open(path, CacheMode::kReadWrite,
                                                 7);
         if (host.ok()) {
           EXPECT_TRUE((*host)->Compact().ok());
         } else {
           ADD_FAILURE() << host.status().ToString();
         }
         EXPECT_NE(FileStamp::Of(path).inode, inode);
         return added;
       }},
      {"sibling published the same key first",
       [](const std::string& path) {
         SiblingPublish(path, {MakeRecord(7, "mine-1", 1.0)});
         return std::vector<StoredRecord>{};
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string path = TempLogPath("publish_edge.rlog");
    const std::vector<StoredRecord> base = Batch("base-", 4);
    SiblingPublish(path, base);
    auto publisher = PersistentRecordCache::OpenShared(path, 7);
    ASSERT_TRUE(publisher.ok());
    const std::vector<StoredRecord> mine = Batch("mine-", 3);
    InsertAll(publisher->get(), mine);

    const std::vector<StoredRecord> added = c.disturb(path);
    ASSERT_TRUE((*publisher)->Flush().ok());

    // The file reloads clean, holding each key exactly once: nothing
    // lost, nothing duplicated, the torn half frame gone.
    std::map<std::pair<uint64_t, std::string>, int> want;
    for (const auto* set : {&base, &mine, &added}) {
      for (const StoredRecord& r : *set) want[{r.fingerprint, r.key}] = 1;
    }
    EXPECT_EQ(FrameCounts(path), want);
    ExpectServes(publisher->get(), FullReloadView(path, {}));
    // And the publisher's snapshot is the file it wrote.
    const size_t decoded = (*publisher)->stats().decoded_records;
    ASSERT_TRUE((*publisher)->RefreshIfChanged().ok());
    EXPECT_EQ((*publisher)->stats().decoded_records, decoded);
  }
}

TEST(SharedPublishTest, ByteBoundHoldsAcrossAlternatingPublishers) {
  const std::string path = TempLogPath("publish_bound.rlog");
  PersistentRecordCache::Options options;
  options.max_bytes = RecordLog::kHeaderSize +
                      5 * RecordLog::FrameBytes(MakeRecord(7, "a-0-0", 0.0));
  std::unique_ptr<PersistentRecordCache> attachments[2];
  for (auto& a : attachments) {
    auto opened = PersistentRecordCache::OpenShared(path, 7, options);
    ASSERT_TRUE(opened.ok());
    a = std::move(opened).value();
  }
  for (int round = 0; round < 4; ++round) {
    for (int who = 0; who < 2; ++who) {
      SCOPED_TRACE("round " + std::to_string(round) + ", attachment " +
                   std::to_string(who));
      PersistentRecordCache* cache = attachments[who].get();
      InsertAll(cache, Batch(std::string(1, char('a' + who)) + "-" +
                                 std::to_string(round) + "-",
                             3));
      ASSERT_TRUE(cache->Flush().ok());
      EXPECT_LE(fs::file_size(path), options.max_bytes);
      const auto counts = FrameCounts(path);
      for (const auto& [id, n] : counts) EXPECT_EQ(n, 1) << id.second;
      // Under the lock the attachment's index was the file's live set,
      // so after its eviction it serves exactly what the file holds.
      EXPECT_EQ(cache->size(), counts.size());
      ExpectServes(cache, FullReloadView(path, {}));
    }
  }
  for (const auto& a : attachments) EXPECT_GT(a->stats().evicted, 0u);
}

}  // namespace
}  // namespace modis
