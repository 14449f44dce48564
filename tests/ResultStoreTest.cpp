//===-- tests/ResultStoreTest.cpp - Crash-safe store tests ----------------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Durability and containment tests for support/ResultStore: round
/// trips (binary keys/payloads included), persistence across reopen,
/// every-prefix truncation of an on-disk record, bit-flip corruption,
/// schema-version quarantine, crashed-write sweep-up, injected store
/// faults (torn write, corrupt read, lock timeout, read failure), and
/// the retry-with-backoff read path. The standing invariant in every
/// case: a fault produces a miss or a degraded no-op — never a wrong
/// payload, never a crash, and nothing is ever silently deleted.
///
//===----------------------------------------------------------------------===//

#include "support/FaultInjector.h"
#include "support/ResultStore.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace hfuse;
namespace fs = std::filesystem;

namespace {

/// A unique store directory per test, removed on teardown.
struct TempDir {
  fs::path Path;
  explicit TempDir(const std::string &Tag) {
    Path = fs::temp_directory_path() /
           ("hfuse-store-test-" + Tag + "-" +
            std::to_string(::getpid()));
    fs::remove_all(Path);
  }
  ~TempDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
  std::string str() const { return Path.string(); }
};

struct InjectorGuard {
  ~InjectorGuard() { FaultInjector::instance().reset(); }
};

/// Quiet retry policy for fault tests: deterministic schedule, no
/// real sleeping.
ResultStore::Options quietOptions(int MaxAttempts = 3) {
  ResultStore::Options O;
  O.Retry.MaxAttempts = MaxAttempts;
  O.Retry.BackoffBaseMs = 5;
  O.Retry.Sleep = [](uint64_t) {};
  return O;
}

std::string readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

void writeFileBytes(const std::string &Path, std::string_view Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  ASSERT_TRUE(Out.good()) << Path;
}

size_t quarantineCount(const ResultStore &S) {
  size_t N = 0;
  for (const auto &E : fs::directory_iterator(S.quarantineDir())) {
    (void)E;
    ++N;
  }
  return N;
}

} // namespace

TEST(ResultStoreTest, PutGetRoundTripWithBinaryKeysAndPayloads) {
  TempDir D("roundtrip");
  Status Err;
  auto S = ResultStore::open(D.str(), /*SchemaVersion=*/1, &Err);
  ASSERT_TRUE(S) << Err.str();

  const std::string Key("sim\0key\xff", 8);
  const std::string Payload("\x00\x01\x02payload\xfe\xff", 12);
  ASSERT_TRUE(S->put(Key, Payload).ok());
  auto Got = S->get(Key);
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(*Got, Payload);

  // Replacement is atomic and last-writer-wins.
  ASSERT_TRUE(S->put(Key, "v2").ok());
  EXPECT_EQ(S->get(Key).value(), "v2");

  // An unknown key is a plain miss with an ok status.
  Status MissErr;
  EXPECT_FALSE(S->get("no such key", &MissErr).has_value());
  EXPECT_TRUE(MissErr.ok());

  ResultStore::Stats St = S->stats();
  EXPECT_EQ(St.Writes, 2u);
  EXPECT_EQ(St.Hits, 2u);
  EXPECT_EQ(St.Misses, 1u);
  EXPECT_EQ(St.Quarantined, 0u);
  EXPECT_FALSE(S->degraded());
}

TEST(ResultStoreTest, RecordsPersistAcrossReopen) {
  TempDir D("reopen");
  {
    auto S = ResultStore::open(D.str(), 1);
    ASSERT_TRUE(S);
    ASSERT_TRUE(S->put("k1", "v1").ok());
    ASSERT_TRUE(S->put("k2", "v2").ok());
  }
  auto S = ResultStore::open(D.str(), 1);
  ASSERT_TRUE(S);
  EXPECT_EQ(S->get("k1").value(), "v1");
  EXPECT_EQ(S->get("k2").value(), "v2");
  EXPECT_EQ(S->stats().Quarantined, 0u);
}

TEST(ResultStoreTest, EveryPrefixTruncationQuarantinesAndMisses) {
  TempDir D("truncate");
  auto S = ResultStore::open(D.str(), 1);
  ASSERT_TRUE(S);
  ASSERT_TRUE(S->put("the key", "the payload bytes").ok());
  const std::string Path = S->recordPathFor("the key");
  const std::string Full = readFileBytes(Path);
  ASSERT_GT(Full.size(), 24u);

  // A crash may leave any prefix of a record on disk (only possible
  // through a torn rename — which is exactly what store-write-torn
  // injects — but the reader must hold regardless of how the bytes got
  // there). Every prefix must be detected, quarantined, and reported
  // as a miss; re-putting must fully recover.
  for (size_t Len = 0; Len < Full.size(); ++Len) {
    writeFileBytes(Path, std::string_view(Full).substr(0, Len));
    Status Err;
    auto Got = S->get("the key", &Err);
    EXPECT_FALSE(Got.has_value()) << "prefix length " << Len;
    EXPECT_TRUE(Err.ok()) << "prefix length " << Len << ": " << Err.str();
    EXPECT_FALSE(fs::exists(Path)) << "prefix " << Len << " not quarantined";
    ASSERT_TRUE(S->put("the key", "the payload bytes").ok());
    EXPECT_EQ(S->get("the key").value(), "the payload bytes");
  }
  EXPECT_EQ(S->stats().Quarantined, Full.size());
  EXPECT_EQ(quarantineCount(*S), Full.size());
  EXPECT_FALSE(S->degraded());
}

TEST(ResultStoreTest, EveryBitFlipIsDetected) {
  TempDir D("bitflip");
  auto S = ResultStore::open(D.str(), 1);
  ASSERT_TRUE(S);
  ASSERT_TRUE(S->put("key", "payload").ok());
  const std::string Path = S->recordPathFor("key");
  const std::string Full = readFileBytes(Path);

  // Flip one bit per byte position. No flipped record may ever be
  // served: it is either quarantined (magic/size/checksum/schema) or,
  // for a flip inside the stored key, an honest hash-collision miss.
  for (size_t I = 0; I < Full.size(); ++I) {
    std::string Bad = Full;
    Bad[I] = static_cast<char>(Bad[I] ^ 0x10);
    writeFileBytes(Path, Bad);
    auto Got = S->get("key");
    EXPECT_FALSE(Got.has_value()) << "byte " << I;
    // Restore for the next position (get() may have quarantined it).
    writeFileBytes(Path, Full);
  }
  EXPECT_EQ(S->get("key").value(), "payload");
}

TEST(ResultStoreTest, SchemaMismatchQuarantinesOnOpen) {
  TempDir D("schema");
  {
    auto S = ResultStore::open(D.str(), 1);
    ASSERT_TRUE(S);
    ASSERT_TRUE(S->put("key", "old-schema payload").ok());
  }
  // Reopen under a bumped schema: the old record must be moved aside
  // (never deleted, never served), and the store must keep working.
  auto S = ResultStore::open(D.str(), 2);
  ASSERT_TRUE(S);
  EXPECT_EQ(S->stats().Quarantined, 1u);
  EXPECT_FALSE(S->get("key").has_value());
  ASSERT_TRUE(S->put("key", "new-schema payload").ok());
  EXPECT_EQ(S->get("key").value(), "new-schema payload");

  bool SawSchemaReason = false;
  for (const auto &E : fs::directory_iterator(S->quarantineDir()))
    SawSchemaReason |= E.path().string().find(".schema") != std::string::npos;
  EXPECT_TRUE(SawSchemaReason);
}

TEST(ResultStoreTest, StrayTmpAndForeignFilesAreSweptOnOpen) {
  TempDir D("sweep");
  {
    auto S = ResultStore::open(D.str(), 1);
    ASSERT_TRUE(S);
    ASSERT_TRUE(S->put("key", "payload").ok());
    // Simulate a crash mid-write (temp file survived) and a foreign
    // file dropped into records/.
    writeFileBytes(S->tmpDir() + "/deadbeef.123.1.tmp", "half a rec");
    writeFileBytes(S->recordsDir() + "/notes.txt", "not a record");
  }
  auto S = ResultStore::open(D.str(), 1);
  ASSERT_TRUE(S);
  EXPECT_EQ(S->stats().Quarantined, 2u);
  EXPECT_EQ(S->get("key").value(), "payload") << "valid record survived";
  for (const auto &E : fs::directory_iterator(S->tmpDir())) {
    ADD_FAILURE() << "tmp/ not swept: " << E.path();
  }
}

TEST(ResultStoreTest, InjectedTornWriteIsTransientAndNextReadQuarantines) {
  TempDir D("torn");
  InjectorGuard G;
  auto S = ResultStore::open(D.str(), 1, nullptr, quietOptions());
  ASSERT_TRUE(S);

  // Every attempt of this put tears: the put must fail transiently
  // after the bounded retries, leaving a torn record under the final
  // name (the injected model of a crash inside rename).
  ASSERT_TRUE(FaultInjector::instance().configure("store-write-torn"));
  Status PutErr = S->put("key", "full payload");
  EXPECT_FALSE(PutErr.ok());
  EXPECT_TRUE(PutErr.transient());
  EXPECT_EQ(PutErr.code(), ErrorCode::StoreError);
  EXPECT_TRUE(fs::exists(S->recordPathFor("key")));

  // The torn record is never served: quarantined on the next get.
  FaultInjector::instance().reset();
  EXPECT_FALSE(S->get("key").has_value());
  EXPECT_FALSE(fs::exists(S->recordPathFor("key")));
  EXPECT_GE(S->stats().Quarantined, 1u);

  // A tear on only the first attempt is healed by the retry.
  ASSERT_TRUE(FaultInjector::instance().configure("store-write-torn:nth=1"));
  ASSERT_TRUE(S->put("key", "full payload").ok());
  EXPECT_EQ(S->get("key").value(), "full payload");
  EXPECT_FALSE(S->degraded());
}

TEST(ResultStoreTest, InjectedCorruptReadQuarantinesAndMisses) {
  TempDir D("corrupt");
  InjectorGuard G;
  auto S = ResultStore::open(D.str(), 1, nullptr, quietOptions());
  ASSERT_TRUE(S);
  ASSERT_TRUE(S->put("key", "payload").ok());

  ASSERT_TRUE(FaultInjector::instance().configure("store-corrupt:nth=1"));
  EXPECT_FALSE(S->get("key").has_value());
  EXPECT_EQ(S->stats().Quarantined, 1u);
  EXPECT_FALSE(fs::exists(S->recordPathFor("key")));

  // Containment ends at the record: re-put, and the store serves again.
  ASSERT_TRUE(S->put("key", "payload").ok());
  EXPECT_EQ(S->get("key").value(), "payload");
  EXPECT_FALSE(S->degraded());
}

TEST(ResultStoreTest, InjectedReadFailureIsRetriedDeterministically) {
  TempDir D("readfail");
  InjectorGuard G;
  std::vector<uint64_t> Delays;
  ResultStore::Options O = quietOptions(3);
  O.Retry.Sleep = [&](uint64_t Ms) { Delays.push_back(Ms); };
  auto S = ResultStore::open(D.str(), 1, nullptr, O);
  ASSERT_TRUE(S);
  ASSERT_TRUE(S->put("key", "payload").ok());

  // One transient read failure: the bounded retry turns it into a hit.
  ASSERT_TRUE(FaultInjector::instance().configure("store-read-fail:nth=1"));
  auto Got = S->get("key");
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(*Got, "payload");
  EXPECT_EQ(S->stats().Retries, 1u);
  ASSERT_EQ(Delays.size(), 1u);
  EXPECT_EQ(Delays[0], 5u);

  // Failing every attempt exhausts the schedule into an error-shaped
  // miss; the sweep-level caller just re-simulates.
  ASSERT_TRUE(FaultInjector::instance().configure("store-read-fail"));
  Status Err;
  EXPECT_FALSE(S->get("key", &Err).has_value());
  EXPECT_FALSE(Err.ok());
  EXPECT_TRUE(Err.transient());
  EXPECT_EQ(S->stats().Retries, 3u); // 1 + 2 more from this get
  EXPECT_FALSE(S->degraded());

  // The record itself was never blamed: it still serves.
  FaultInjector::instance().reset();
  EXPECT_EQ(S->get("key").value(), "payload");
}

TEST(ResultStoreTest, InjectedLockTimeoutDegradesStickilyToNoOps) {
  TempDir D("locktimeout");
  InjectorGuard G;
  auto S = ResultStore::open(D.str(), 1, nullptr, quietOptions());
  ASSERT_TRUE(S);
  ASSERT_TRUE(S->put("key", "payload").ok());

  ASSERT_TRUE(
      FaultInjector::instance().configure("store-lock-timeout:nth=1"));
  EXPECT_FALSE(S->get("key").has_value());
  EXPECT_TRUE(S->degraded());
  EXPECT_EQ(S->stats().LockTimeouts, 1u);

  // Sticky: every later op is a counted no-op even with the fault gone.
  FaultInjector::instance().reset();
  EXPECT_FALSE(S->get("key").has_value());
  EXPECT_FALSE(S->put("key2", "v").ok());
  EXPECT_GE(S->stats().DegradedOps, 2u);

  // Degradation is per-handle, not on-disk state: a fresh open serves
  // the untouched record.
  auto S2 = ResultStore::open(D.str(), 1);
  ASSERT_TRUE(S2);
  EXPECT_EQ(S2->get("key").value(), "payload");

  // A handle that degrades during open() skips its recovery pass and
  // stays degraded: it serves nothing and quarantines nothing, however
  // long it lives.
  writeFileBytes((fs::path(S2->recordsDir()) / "feedface.rec").string(),
                 "not a record");
  ASSERT_TRUE(
      FaultInjector::instance().configure("store-lock-timeout:nth=1"));
  auto S3 = ResultStore::open(D.str(), 1);
  ASSERT_TRUE(S3);
  EXPECT_TRUE(S3->degraded());
  FaultInjector::instance().reset();
  for (int I = 0; I < 100; ++I)
    EXPECT_FALSE(S3->get("key").has_value());
  EXPECT_FALSE(S3->put("key3", "v").ok());
  EXPECT_TRUE(S3->degraded());
  EXPECT_EQ(S3->stats().DegradedOps, 101u);
  EXPECT_EQ(quarantineCount(*S3), 0u);

  // The next open runs recovery: it quarantines the garbage file and
  // serves the record.
  auto S4 = ResultStore::open(D.str(), 1);
  ASSERT_TRUE(S4);
  EXPECT_FALSE(S4->degraded());
  EXPECT_EQ(quarantineCount(*S4), 1u);
  EXPECT_EQ(S4->get("key").value(), "payload");
}

TEST(ResultStoreTest, QuarantineNeverDeletes) {
  TempDir D("keepbytes");
  auto S = ResultStore::open(D.str(), 1);
  ASSERT_TRUE(S);
  ASSERT_TRUE(S->put("key", "precious evidence").ok());
  const std::string Path = S->recordPathFor("key");
  const std::string Full = readFileBytes(Path);
  const std::string Torn = Full.substr(0, Full.size() / 2);
  writeFileBytes(Path, Torn);
  EXPECT_FALSE(S->get("key").has_value());

  // The torn bytes survive, byte for byte, under quarantine/.
  std::vector<std::string> Files;
  for (const auto &E : fs::directory_iterator(S->quarantineDir()))
    Files.push_back(E.path().string());
  ASSERT_EQ(Files.size(), 1u);
  EXPECT_EQ(readFileBytes(Files[0]), Torn);
}

TEST(ResultStoreTest, ConcurrentPutsAndGetsAreSafe) {
  TempDir D("concurrent");
  auto S = ResultStore::open(D.str(), 1);
  ASSERT_TRUE(S);

  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T) {
    Threads.emplace_back([&S, T] {
      for (int I = 0; I < 25; ++I) {
        std::string Key = "key-" + std::to_string(I % 7);
        std::string Val = "val-" + std::to_string(I % 7);
        ASSERT_TRUE(S->put(Key, Val).ok());
        auto Got = S->get(Key);
        ASSERT_TRUE(Got.has_value());
        EXPECT_EQ(*Got, Val) << "thread " << T;
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_FALSE(S->degraded());
  EXPECT_EQ(S->stats().Quarantined, 0u);
}

TEST(ResultStoreTest, TwoHandlesCoordinateThroughTheSameDirectory) {
  TempDir D("twohandles");
  auto A = ResultStore::open(D.str(), 1);
  auto B = ResultStore::open(D.str(), 1);
  ASSERT_TRUE(A);
  ASSERT_TRUE(B);
  ASSERT_TRUE(A->put("key", "from A").ok());
  EXPECT_EQ(B->get("key").value(), "from A");
  ASSERT_TRUE(B->put("key", "from B").ok());
  EXPECT_EQ(A->get("key").value(), "from B");
}
