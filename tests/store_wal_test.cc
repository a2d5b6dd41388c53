#include "store/wal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "crypto/keys.h"
#include "zerber/posting_element.h"

namespace zr::store {
namespace {

namespace fs = std::filesystem;

std::string HexOf(std::string_view bytes) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (char c : bytes) {
    out.push_back(kHex[static_cast<uint8_t>(c) >> 4]);
    out.push_back(kHex[static_cast<uint8_t>(c) & 0xf]);
  }
  return out;
}

class WalTest : public ::testing::Test {
 protected:
  WalTest() : keys_("wal-test") {
    EXPECT_TRUE(keys_.CreateGroup(1).ok());
    dir_ = fs::temp_directory_path() /
           ("zr_wal_test_" +
            std::to_string(::testing::UnitTest::GetInstance()
                               ->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~WalTest() override { fs::remove_all(dir_); }

  std::string Path(const char* name) { return (dir_ / name).string(); }

  zerber::EncryptedPostingElement MakeElement(uint64_t handle, double trs) {
    auto element = zerber::SealPostingElement(
        zerber::PostingPayload{1, static_cast<text::DocId>(handle), 0.5},
        1, trs, &keys_);
    EXPECT_TRUE(element.ok());
    element->handle = handle;
    return *element;
  }

  WalRecord InsertRecord(uint32_t list, uint64_t handle, double trs = 0.5) {
    WalRecord record;
    record.type = WalRecord::Type::kInsert;
    record.list = list;
    record.element = MakeElement(handle, trs);
    return record;
  }

  crypto::KeyStore keys_;
  fs::path dir_;
};

TEST_F(WalTest, EncodeDecodeRoundTripsEveryRecordType) {
  std::vector<WalRecord> records;
  records.push_back(InsertRecord(3, 42, 0.25));
  WalRecord del;
  del.type = WalRecord::Type::kDelete;
  del.list = 7;
  del.handle = 99;
  records.push_back(del);
  WalRecord add;
  add.type = WalRecord::Type::kAddGroup;
  add.group = 5;
  records.push_back(add);
  WalRecord grant;
  grant.type = WalRecord::Type::kGrantMembership;
  grant.user = 11;
  grant.group = 5;
  records.push_back(grant);
  WalRecord revoke;
  revoke.type = WalRecord::Type::kRevokeMembership;
  revoke.user = 11;
  revoke.group = 5;
  records.push_back(revoke);

  std::string log;
  for (const WalRecord& r : records) log += EncodeWalRecord(r);

  WalReadResult scanned = ScanWal(log);
  EXPECT_TRUE(scanned.clean);
  EXPECT_EQ(scanned.valid_bytes, log.size());
  ASSERT_EQ(scanned.records.size(), records.size());
  EXPECT_EQ(scanned.records[0].type, WalRecord::Type::kInsert);
  EXPECT_EQ(scanned.records[0].list, 3u);
  EXPECT_EQ(scanned.records[0].element.handle, 42u);
  EXPECT_EQ(scanned.records[0].element.sealed, records[0].element.sealed);
  EXPECT_DOUBLE_EQ(scanned.records[0].element.trs, 0.25);
  EXPECT_EQ(scanned.records[1].type, WalRecord::Type::kDelete);
  EXPECT_EQ(scanned.records[1].list, 7u);
  EXPECT_EQ(scanned.records[1].handle, 99u);
  EXPECT_EQ(scanned.records[2].type, WalRecord::Type::kAddGroup);
  EXPECT_EQ(scanned.records[2].group, 5u);
  EXPECT_EQ(scanned.records[3].type, WalRecord::Type::kGrantMembership);
  EXPECT_EQ(scanned.records[3].user, 11u);
  EXPECT_EQ(scanned.records[4].type, WalRecord::Type::kRevokeMembership);
}

// Golden bytes of one insert record: its sealed element (AES-CTR, HMAC)
// and its SHA-256 checksum. Captured with the portable block routines
// alone; every host must reproduce them, so a WAL written on a host without
// AES-NI and SHA-NI replays on one with them, and the reverse.
TEST_F(WalTest, EncodedInsertRecordIsByteIdentical) {
  EXPECT_EQ(HexOf(EncodeWalRecord(InsertRecord(3, 42, 0.25))),
            "270103012a000000000000d03f1a7555e49d9a0541211886b3ba42b2625ca106"
            "f84c6a63ee2e2f7e23bbcf5354d4943f");
}

// Golden bytes of the records without an element: each field takes a
// value of a different varint length.
TEST_F(WalTest, EncodedDeleteAndAclRecordsAreByteIdentical) {
  WalRecord del;
  del.type = WalRecord::Type::kDelete;
  del.list = 300;
  del.handle = uint64_t{1} << 35;
  WalRecord add;
  add.type = WalRecord::Type::kAddGroup;
  add.group = 0xFFFFFFFFu;
  WalRecord grant;
  grant.type = WalRecord::Type::kGrantMembership;
  grant.user = 11;
  grant.group = 16384;
  WalRecord revoke;
  revoke.type = WalRecord::Type::kRevokeMembership;
  revoke.user = uint32_t{1} << 21;
  revoke.group = 5;
  // Frame length, type, fields, then the truncated SHA-256 of the frame.
  EXPECT_EQ(HexOf(EncodeWalRecord(del)),
            "09" "02" "ac02" "808080808001" "f45f42947bd1a1c3");
  EXPECT_EQ(HexOf(EncodeWalRecord(add)),
            "06" "03" "ffffffff0f" "4160cb0cdb2379a9");
  EXPECT_EQ(HexOf(EncodeWalRecord(grant)),
            "05" "04" "0b" "808001" "5861fdee1f97e2cb");
  EXPECT_EQ(HexOf(EncodeWalRecord(revoke)),
            "06" "05" "80808001" "05" "b73e28a448b3c07b");
}

TEST_F(WalTest, ScanStopsCleanlyAtEveryTruncationPoint) {
  std::string log;
  std::vector<uint64_t> ends;
  for (int i = 0; i < 4; ++i) {
    log += EncodeWalRecord(InsertRecord(0, static_cast<uint64_t>(i + 1)));
    ends.push_back(log.size());
  }
  for (size_t keep = 0; keep <= log.size(); ++keep) {
    WalReadResult scanned = ScanWal(log.substr(0, keep));
    size_t expected =
        static_cast<size_t>(std::count_if(ends.begin(), ends.end(),
                                          [&](uint64_t e) { return e <= keep; }));
    EXPECT_EQ(scanned.records.size(), expected) << "keep " << keep;
    EXPECT_EQ(scanned.clean,
              keep == 0 || (expected > 0 && ends[expected - 1] == keep))
        << "keep " << keep;
    for (size_t i = 0; i < expected; ++i) {
      EXPECT_EQ(scanned.records[i].element.handle, i + 1);
    }
  }
}

TEST_F(WalTest, ScanStopsAtCorruptRecordAndDropsSuffix) {
  std::string first = EncodeWalRecord(InsertRecord(0, 1));
  std::string second = EncodeWalRecord(InsertRecord(0, 2));
  std::string third = EncodeWalRecord(InsertRecord(0, 3));
  std::string log = first + second + third;
  // Flip one byte inside the second record: scan keeps record 1, drops the
  // corrupt record AND the (individually valid) records after it — replay
  // must not resurrect mutations beyond a corruption.
  log[first.size() + second.size() / 2] ^= 0x01;
  WalReadResult scanned = ScanWal(log);
  EXPECT_FALSE(scanned.clean);
  ASSERT_EQ(scanned.records.size(), 1u);
  EXPECT_EQ(scanned.records[0].element.handle, 1u);
  EXPECT_EQ(scanned.valid_bytes, first.size());
}

TEST_F(WalTest, ScanRejectsUnknownRecordType) {
  WalRecord record = InsertRecord(0, 1);
  std::string log = EncodeWalRecord(record);
  std::string bogus = log;
  bogus[1] = 77;  // type byte inside the frame; checksum now mismatches
  EXPECT_EQ(ScanWal(bogus).records.size(), 0u);
}

TEST_F(WalTest, WriterRoundTripsThroughFileInEverySyncMode) {
  for (WalSyncMode mode : {WalSyncMode::kNone, WalSyncMode::kGroupCommit}) {
    std::string path = Path(WalSyncModeName(mode));
    auto writer = WalWriter::Open(path, mode);
    ASSERT_TRUE(writer.ok()) << writer.status();
    for (uint64_t h = 1; h <= 5; ++h) {
      ASSERT_TRUE((*writer)->Append(InsertRecord(2, h)).ok());
    }
    ASSERT_TRUE((*writer)->Close().ok());
    auto scanned = ReadWal(path);
    ASSERT_TRUE(scanned.ok()) << scanned.status();
    EXPECT_TRUE(scanned->clean);
    ASSERT_EQ(scanned->records.size(), 5u);
    for (uint64_t h = 1; h <= 5; ++h) {
      EXPECT_EQ(scanned->records[h - 1].element.handle, h);
    }
  }
}

TEST_F(WalTest, SizeBytesMatchesFileSize) {
  std::string path = Path("size.log");
  auto writer = WalWriter::Open(path, WalSyncMode::kGroupCommit);
  ASSERT_TRUE(writer.ok());
  EXPECT_EQ((*writer)->SizeBytes(), 0u);
  for (uint64_t h = 1; h <= 3; ++h) {
    ASSERT_TRUE((*writer)->Append(InsertRecord(0, h)).ok());
  }
  uint64_t tracked = (*writer)->SizeBytes();
  ASSERT_TRUE((*writer)->Close().ok());
  EXPECT_EQ(tracked, fs::file_size(path));
}

TEST_F(WalTest, ReopenAppendsAfterExistingRecords) {
  std::string path = Path("reopen.log");
  {
    auto writer = WalWriter::Open(path, WalSyncMode::kGroupCommit);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(InsertRecord(0, 1)).ok());
    ASSERT_TRUE((*writer)->Append(InsertRecord(0, 2)).ok());
  }
  {
    auto writer = WalWriter::Open(path, WalSyncMode::kGroupCommit);
    ASSERT_TRUE(writer.ok());
    EXPECT_GT((*writer)->SizeBytes(), 0u);
    ASSERT_TRUE((*writer)->Append(InsertRecord(0, 3)).ok());
  }
  auto scanned = ReadWal(path);
  ASSERT_TRUE(scanned.ok());
  ASSERT_EQ(scanned->records.size(), 3u);
  EXPECT_EQ(scanned->records[2].element.handle, 3u);
}

TEST_F(WalTest, MissingFileIsNotFound) {
  EXPECT_TRUE(ReadWal(Path("nope.log")).status().IsNotFound());
}

TEST_F(WalTest, GroupCommitKeepsEveryConcurrentAppend) {
  std::string path = Path("concurrent.log");
  auto writer = WalWriter::Open(path, WalSyncMode::kGroupCommit);
  ASSERT_TRUE(writer.ok());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;

  // Pre-seal elements outside the threads (KeyStore is not thread-safe).
  std::vector<std::vector<WalRecord>> batches(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      batches[t].push_back(InsertRecord(
          static_cast<uint32_t>(t),
          static_cast<uint64_t>(t * kPerThread + i + 1)));
    }
  }

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const WalRecord& record : batches[t]) {
        if (!(*writer)->Append(record).ok()) ++failures;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE((*writer)->Close().ok());

  auto scanned = ReadWal(path);
  ASSERT_TRUE(scanned.ok());
  EXPECT_TRUE(scanned->clean);
  ASSERT_EQ(scanned->records.size(),
            static_cast<size_t>(kThreads * kPerThread));
  std::set<uint64_t> handles;
  for (const WalRecord& record : scanned->records) {
    handles.insert(record.element.handle);
  }
  EXPECT_EQ(handles.size(), static_cast<size_t>(kThreads * kPerThread));
}

TEST_F(WalTest, AppendAfterCloseFails) {
  auto writer = WalWriter::Open(Path("closed.log"), WalSyncMode::kNone);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Close().ok());
  EXPECT_FALSE((*writer)->Append(InsertRecord(0, 1)).ok());
}

}  // namespace
}  // namespace zr::store
