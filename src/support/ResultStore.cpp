//===-- support/ResultStore.cpp - Crash-safe on-disk result store ---------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ResultStore.h"

#include "support/BinaryCodec.h"
#include "support/FaultInjector.h"
#include "support/Hashing.h"
#include "support/Log.h"
#include "support/Telemetry.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <sys/file.h>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>

using namespace hfuse;
namespace fs = std::filesystem;

namespace {

constexpr char Magic[4] = {'H', 'F', 'R', 'S'};
constexpr size_t HeaderSize = 24;
/// How long to spin on the advisory lock before degrading.
constexpr auto LockTimeout = std::chrono::milliseconds(2000);

std::string hex16(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// Reads a whole file into \p Out. ENOENT is a miss (returns false,
/// ok Status); anything else is a transient StoreError.
bool readFile(const std::string &Path, std::string &Out, Status &Err) {
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0) {
    if (errno != ENOENT)
      Err = Status::transient(ErrorCode::StoreError,
                              "open '" + Path + "': " + std::strerror(errno));
    return false;
  }
  Out.clear();
  char Buf[1 << 16];
  for (;;) {
    ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Err = Status::transient(ErrorCode::StoreError,
                              "read '" + Path + "': " + std::strerror(errno));
      ::close(Fd);
      return false;
    }
    if (N == 0)
      break;
    Out.append(Buf, static_cast<size_t>(N));
  }
  ::close(Fd);
  return true;
}

/// Writes \p Bytes to \p Path and fsyncs it. Transient StoreError on
/// any failure (the temp file is unlinked so nothing leaks).
Status writeFileSynced(const std::string &Path, std::string_view Bytes) {
  int Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (Fd < 0)
    return Status::transient(ErrorCode::StoreError,
                             "create '" + Path + "': " +
                                 std::strerror(errno));
  size_t Off = 0;
  while (Off < Bytes.size()) {
    ssize_t N = ::write(Fd, Bytes.data() + Off, Bytes.size() - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Status S = Status::transient(ErrorCode::StoreError,
                                   "write '" + Path + "': " +
                                       std::strerror(errno));
      ::close(Fd);
      ::unlink(Path.c_str());
      return S;
    }
    Off += static_cast<size_t>(N);
  }
  if (::fsync(Fd) != 0) {
    Status S = Status::transient(ErrorCode::StoreError,
                                 "fsync '" + Path + "': " +
                                     std::strerror(errno));
    ::close(Fd);
    ::unlink(Path.c_str());
    return S;
  }
  ::close(Fd);
  return Status::success();
}

/// Best-effort fsync of a directory so a rename is durable before the
/// caller reports success. Failure is ignored: the rename is already
/// atomic, durability of the directory entry is the only thing at
/// stake, and a store that can rename but not fsync its directory
/// should keep working.
void fsyncDirBestEffort(const std::string &Dir) {
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (Fd < 0)
    return;
  (void)::fsync(Fd);
  ::close(Fd);
}

std::string encodeRecord(uint32_t Schema, std::string_view Key,
                         std::string_view Payload) {
  ByteWriter Body; // the checksummed region: [4,16) of the header
  Body.u32(Schema);
  Body.u32(static_cast<uint32_t>(Key.size()));
  Body.u32(static_cast<uint32_t>(Payload.size()));
  uint64_t Sum = Fnv1a64()
                     .str(Body.data())
                     .str(Key)
                     .str(Payload)
                     .digest();
  ByteWriter W;
  W.raw(std::string_view(Magic, sizeof(Magic)));
  W.raw(Body.data());
  W.u64(Sum);
  W.raw(Key);
  W.raw(Payload);
  return W.take();
}

} // namespace

std::shared_ptr<ResultStore> ResultStore::open(const std::string &Dir,
                                               uint32_t SchemaVersion,
                                               Status *Err) {
  return open(Dir, SchemaVersion, Err, Options());
}

std::shared_ptr<ResultStore> ResultStore::open(const std::string &Dir,
                                               uint32_t SchemaVersion,
                                               Status *Err,
                                               const Options &Opts) {
  if (Err)
    *Err = Status::success();
  std::error_code EC;
  for (const char *Sub : {"", "/records", "/tmp", "/quarantine"}) {
    fs::create_directories(Dir + Sub, EC);
    if (EC) {
      if (Err)
        *Err = Status(ErrorCode::StoreError, "cannot create store directory '" +
                                                 Dir + Sub +
                                                 "': " + EC.message());
      return nullptr;
    }
  }
  std::shared_ptr<ResultStore> Store(
      new ResultStore(Dir, SchemaVersion, Opts));
  std::string LockPath = Dir + "/store.lock";
  Store->LockFd =
      ::open(LockPath.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (Store->LockFd < 0) {
    if (Err)
      *Err = Status(ErrorCode::StoreError, "cannot open '" + LockPath +
                                               "': " + std::strerror(errno));
    return nullptr;
  }
  {
    // Every process start reads every record once; the span shows what
    // that costs against the store's size.
    telemetry::TraceSpan OpenSpan("store", "open");
    std::lock_guard<std::mutex> Lock(Store->Mu);
    if (Store->acquireLockLocked(/*Exclusive=*/true)) {
      size_t Records = Store->recoverLocked();
      Store->releaseLockLocked();
      if (telemetry::traceOn())
        OpenSpan.setEndArgs("{\"records\":" + std::to_string(Records) + "}");
    }
    // else: lock timeout during recovery — the store is already
    // degraded and every op will no-op; the caller's run continues
    // correct, just in-memory.
  }
  return Store;
}

ResultStore::ResultStore(std::string Dir, uint32_t SchemaVersion,
                         Options Options_)
    : Root(std::move(Dir)), Schema(SchemaVersion),
      Opts(std::move(Options_)) {}

ResultStore::~ResultStore() {
  if (LockFd >= 0)
    ::close(LockFd);
}

std::string ResultStore::recordsDir() const { return Root + "/records"; }
std::string ResultStore::quarantineDir() const {
  return Root + "/quarantine";
}
std::string ResultStore::tmpDir() const { return Root + "/tmp"; }

std::string ResultStore::recordPathFor(std::string_view Key) const {
  return recordsDir() + "/" + hex16(fnv1a64(Key)) + ".rec";
}

const char *ResultStore::validateRecord(std::string_view Bytes,
                                        std::string_view *Key,
                                        std::string_view *Payload) const {
  if (Bytes.size() < HeaderSize)
    return "short";
  if (std::memcmp(Bytes.data(), Magic, sizeof(Magic)) != 0)
    return "magic";
  ByteReader R(Bytes.substr(4));
  uint32_t RecSchema = R.u32();
  uint32_t KeyLen = R.u32();
  uint32_t PayloadLen = R.u32();
  uint64_t Sum = R.u64();
  // Size first: with a torn tail the length fields may themselves be
  // garbage, and "the file is not the size it claims" is the honest
  // diagnosis.
  uint64_t Expect = HeaderSize + static_cast<uint64_t>(KeyLen) + PayloadLen;
  if (Bytes.size() != Expect)
    return "size";
  if (RecSchema != Schema)
    return "schema";
  std::string_view K = Bytes.substr(HeaderSize, KeyLen);
  std::string_view P = Bytes.substr(HeaderSize + KeyLen, PayloadLen);
  uint64_t Actual =
      Fnv1a64().str(Bytes.substr(4, 12)).str(K).str(P).digest();
  if (Actual != Sum)
    return "checksum";
  if (Key)
    *Key = K;
  if (Payload)
    *Payload = P;
  return nullptr;
}

void ResultStore::quarantineLocked(const std::string &Path,
                                   const char *Reason) {
  fs::path Src(Path);
  std::string Base = Src.filename().string() + "." + Reason;
  std::string Dst = quarantineDir() + "/" + Base;
  std::error_code EC;
  // Never overwrite earlier evidence: pick a fresh numbered name if a
  // quarantined file of that name already exists.
  for (int I = 1; fs::exists(Dst, EC) && I < 1000; ++I)
    Dst = quarantineDir() + "/" + Base + "." + std::to_string(I);
  fs::rename(Src, Dst, EC);
  // A concurrent process may have quarantined it first; that is fine —
  // the record is gone from records/ either way.
  if (!EC) {
    ++St.Quarantined;
    HFUSE_METRIC_ADD("store.quarantined", 1);
    logInfo("store: quarantined '%s' (%s)", Src.filename().string().c_str(),
            Reason);
  }
}

size_t ResultStore::recoverLocked() {
  size_t Valid = 0;
  std::error_code EC;
  for (const auto &Entry : fs::directory_iterator(recordsDir(), EC)) {
    std::string Path = Entry.path().string();
    if (Entry.path().extension() != ".rec") {
      quarantineLocked(Path, "stray");
      continue;
    }
    std::string Bytes;
    Status ReadErr = Status::success();
    if (!readFile(Path, Bytes, ReadErr)) {
      if (!ReadErr.ok())
        quarantineLocked(Path, "unreadable");
      continue;
    }
    if (const char *Reason = validateRecord(Bytes, nullptr, nullptr))
      quarantineLocked(Path, Reason);
    else
      ++Valid;
  }
  // A temp file that survived to the next open is a crashed write:
  // sweep it aside so tmp/ cannot grow without bound, keeping the
  // bytes for inspection like any other quarantine.
  for (const auto &Entry : fs::directory_iterator(tmpDir(), EC))
    quarantineLocked(Entry.path().string(), "torn");
  return Valid;
}

void ResultStore::degradeLocked() {
  Degraded = true;
  logWarn("store: lock timeout on '%s'; degrading to in-memory-only",
          Root.c_str());
}

bool ResultStore::acquireLockLocked(bool Exclusive) {
  Status Injected = FaultInjector::instance().check(
      FaultSite::StoreLockTimeout, Root);
  if (!Injected.ok()) {
    ++St.LockTimeouts;
    HFUSE_METRIC_ADD("store.lock_timeouts", 1);
    degradeLocked();
    return false;
  }
  telemetry::TraceSpan LockSpan;
  if (telemetry::traceOn())
    LockSpan.beginSpan("store", "flock",
                       Exclusive ? "{\"mode\":\"exclusive\"}"
                                 : "{\"mode\":\"shared\"}");
  int Op = (Exclusive ? LOCK_EX : LOCK_SH) | LOCK_NB;
  auto Start = std::chrono::steady_clock::now();
  auto Deadline = Start + LockTimeout;
  for (;;) {
    if (::flock(LockFd, Op) == 0) {
      if (telemetry::metricsOn()) {
        auto WaitedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - Start)
                            .count();
        HFUSE_METRIC_HISTO("store.lock_wait_ms",
                           static_cast<uint64_t>(WaitedMs));
      }
      return true;
    }
    if (errno != EWOULDBLOCK && errno != EINTR) {
      // A lock syscall failure is treated like a timeout: degrade
      // rather than risk unsynchronized disk traffic.
      break;
    }
    if (std::chrono::steady_clock::now() >= Deadline)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ++St.LockTimeouts;
  HFUSE_METRIC_ADD("store.lock_timeouts", 1);
  degradeLocked();
  return false;
}

void ResultStore::releaseLockLocked() { (void)::flock(LockFd, LOCK_UN); }

std::optional<std::string> ResultStore::get(std::string_view Key,
                                            Status *Err) {
  if (Err)
    *Err = Status::success();
  std::lock_guard<std::mutex> Lock(Mu);
  telemetry::TraceSpan Span;
  if (telemetry::traceOn())
    Span.beginSpan("store", "get",
                   "{\"rec\":\"" + hex16(fnv1a64(Key)) + "\"}");
  if (Degraded) {
    ++St.DegradedOps;
    HFUSE_METRIC_ADD("store.degraded_ops", 1);
    return std::nullopt;
  }
  if (!acquireLockLocked(/*Exclusive=*/false)) {
    ++St.DegradedOps;
    HFUSE_METRIC_ADD("store.degraded_ops", 1);
    return std::nullopt;
  }

  std::string Path = recordPathFor(Key);
  std::optional<std::string> Result;
  bool Quarantine = false;
  const char *QuarantineReason = nullptr;
  Status S = retryTransient(
      Opts.Retry,
      [&]() -> Status {
        Result.reset();
        Quarantine = false;
        Status Injected = FaultInjector::instance().check(
            FaultSite::StoreReadFail, Key);
        if (!Injected.ok())
          return Injected;
        std::string Bytes;
        Status ReadErr = Status::success();
        if (!readFile(Path, Bytes, ReadErr))
          return ReadErr; // ok() == plain miss, else transient I/O
        std::string_view StoredKey, Payload;
        const char *Reason = validateRecord(Bytes, &StoredKey, &Payload);
        if (!Reason && !FaultInjector::instance()
                            .check(FaultSite::StoreCorrupt, Key)
                            .ok())
          Reason = "checksum"; // injected bit rot: same path as real rot
        if (Reason) {
          Quarantine = true;
          QuarantineReason = Reason;
          return Status::success(); // a quarantined record is a miss
        }
        if (StoredKey != Key)
          return Status::success(); // fnv64 collision: honest miss
        Result = std::string(Payload);
        return Status::success();
      },
      &St.Retries);

  if (Quarantine)
    quarantineLocked(Path, QuarantineReason);
  releaseLockLocked();

  if (Result) {
    ++St.Hits;
    HFUSE_METRIC_ADD("store.disk_hits", 1);
    return Result;
  }
  ++St.Misses;
  HFUSE_METRIC_ADD("store.disk_misses", 1);
  if (Err && !S.ok())
    *Err = S;
  return std::nullopt;
}

Status ResultStore::put(std::string_view Key, std::string_view Payload) {
  std::lock_guard<std::mutex> Lock(Mu);
  telemetry::TraceSpan Span;
  if (telemetry::traceOn())
    Span.beginSpan("store", "put",
                   "{\"rec\":\"" + hex16(fnv1a64(Key)) + "\"}");
  if (Degraded) {
    ++St.DegradedOps;
    HFUSE_METRIC_ADD("store.degraded_ops", 1);
    return Status::transient(ErrorCode::StoreError,
                             "store degraded to in-memory");
  }
  if (!acquireLockLocked(/*Exclusive=*/true)) {
    ++St.DegradedOps;
    HFUSE_METRIC_ADD("store.degraded_ops", 1);
    return Status::transient(ErrorCode::StoreError,
                             "store lock timeout; degraded to in-memory");
  }

  std::string Record = encodeRecord(Schema, Key, Payload);
  std::string Final = recordPathFor(Key);
  Status S = retryTransient(
      Opts.Retry,
      [&]() -> Status {
        std::string Tmp = tmpDir() + "/" + hex16(fnv1a64(Key)) + "." +
                          std::to_string(::getpid()) + "." +
                          std::to_string(++TmpSeq) + ".tmp";
        Status Injected = FaultInjector::instance().check(
            FaultSite::StoreWriteTorn, Key);
        if (!Injected.ok()) {
          // Model the failure mode atomic rename exists to prevent: a
          // half-written record that nonetheless landed under the
          // final name (torn by a crash inside rename, a reordering
          // filesystem, ...). The next reader must quarantine it.
          std::string_view Half(Record.data(), Record.size() / 2);
          if (writeFileSynced(Tmp, Half).ok())
            ::rename(Tmp.c_str(), Final.c_str());
          return Injected;
        }
        Status W = writeFileSynced(Tmp, Record);
        if (!W.ok())
          return W;
        if (::rename(Tmp.c_str(), Final.c_str()) != 0) {
          Status R = Status::transient(ErrorCode::StoreError,
                                       "rename '" + Tmp + "': " +
                                           std::strerror(errno));
          ::unlink(Tmp.c_str());
          return R;
        }
        fsyncDirBestEffort(recordsDir());
        return Status::success();
      },
      &St.Retries);

  releaseLockLocked();
  if (S.ok()) {
    ++St.Writes;
    HFUSE_METRIC_ADD("store.disk_writes", 1);
  } else {
    ++St.WriteFailures;
    HFUSE_METRIC_ADD("store.write_failures", 1);
  }
  return S;
}

bool ResultStore::degraded() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Degraded;
}

ResultStore::Stats ResultStore::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return St;
}
