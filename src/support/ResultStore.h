//===-- support/ResultStore.h - Crash-safe on-disk result store -*- C++ -*-===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An on-disk, multi-process-safe store for the search's simulation
/// results and phase-1 summaries, threaded under profile::CompileCache
/// as the second-level cache behind `hfusec --cache-dir=`. Durability
/// and containment over raw speed:
///
///  - Records are length-prefixed and FNV-1a-checksummed, and written
///    via a unique temp file + fsync + atomic rename, so a crash at any
///    byte leaves either the old state or the new state — never a
///    readable partial record.
///  - A record is validated where it is read: the get() that finds one
///    torn, corrupt, or written under a different schema version
///    QUARANTINES it — moves it aside with a reason suffix, never
///    silently deletes it — and reports a miss. A record nothing asks
///    for is never opened. open() reads nothing under records/; it only
///    sweeps tmp/, where a surviving temp file is a crashed write.
///  - Concurrent hfusec processes coordinate through an advisory
///    flock(2) on `store.lock` (shared for reads, exclusive for writes
///    and the tmp/ sweep). If the lock cannot be had within two seconds
///    the handle degrades to in-memory-only no-ops for the rest of its
///    life instead of blocking a sweep behind another process; the next
///    open() starts healthy.
///  - Every disk failure flows through the Status taxonomy;
///    Status::transient() read/write failures are retried on the
///    bounded deterministic RetryPolicy schedule.
///
/// Record file layout (`records/<fnv64(key)>.rec`, all little-endian):
///
///   offset  size  field
///   0       4     magic "HFRS"
///   4       4     u32 schema version
///   8       4     u32 key length
///   12      4     u32 payload length
///   16      8     u64 FNV-1a-64 checksum of bytes [4,16) + key + payload
///   24      klen  key bytes (verbatim; hash collisions resolve to miss)
///   24+klen plen  payload bytes
///
/// The file size must equal 24 + klen + plen exactly; any prefix of a
/// valid record fails either the "short"/"size" check or the checksum.
///
/// Failure semantics the callers rely on: a fault anywhere in the store
/// produces a miss or a degraded no-op — never a wrong payload, and
/// never an error that aborts the caller's sweep.
///
//===----------------------------------------------------------------------===//

#ifndef HFUSE_SUPPORT_RESULTSTORE_H
#define HFUSE_SUPPORT_RESULTSTORE_H

#include "support/Retry.h"
#include "support/Status.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

namespace hfuse {

class ResultStore {
public:
  struct Options {
    /// Retry schedule for transient read/write failures.
    RetryPolicy Retry{/*MaxAttempts=*/3, /*BackoffBaseMs=*/5,
                      /*Sleep=*/nullptr};
  };

  struct Stats {
    uint64_t Hits = 0;          ///< get() served a validated payload
    uint64_t Misses = 0;        ///< get() found nothing usable
    uint64_t Writes = 0;        ///< put() landed a record
    uint64_t WriteFailures = 0; ///< put() gave up (after retries)
    uint64_t Retries = 0;       ///< transient read/write attempts redone
    uint64_t Quarantined = 0;   ///< records moved aside (never deleted)
    uint64_t LockTimeouts = 0;  ///< advisory-lock acquisitions timed out
    uint64_t DegradedOps = 0;   ///< ops no-opped after degradation
  };

  /// Opens (creating if needed) the store at \p Dir, whose records are
  /// served only under \p SchemaVersion, and quarantines the temp files
  /// of crashed writes. Returns null only when the directory itself
  /// cannot be created/used (\p Err explains); a lock timeout during the
  /// sweep yields a store that is already degraded.
  static std::shared_ptr<ResultStore> open(const std::string &Dir,
                                           uint32_t SchemaVersion,
                                           Status *Err, const Options &Opts);
  static std::shared_ptr<ResultStore> open(const std::string &Dir,
                                           uint32_t SchemaVersion,
                                           Status *Err = nullptr);

  ~ResultStore();
  ResultStore(const ResultStore &) = delete;
  ResultStore &operator=(const ResultStore &) = delete;

  /// Looks up \p Key. Returns the payload on a validated hit, nullopt
  /// on a miss — including every failure mode: a missing record, a
  /// record that failed validation (quarantined first), a hash
  /// collision, a read error that outlived the retry schedule (never
  /// the record's fault: it stays), or a degraded store. \p Err
  /// (optional) distinguishes a true miss (ok()) from an error-shaped
  /// one.
  std::optional<std::string> get(std::string_view Key,
                                 Status *Err = nullptr);

  /// Durably stores \p Key -> \p Payload (atomic replace of any
  /// previous record). Returns a transient StoreError after the retry
  /// schedule is exhausted or when the store is/becomes degraded; the
  /// caller's in-memory result is unaffected either way.
  Status put(std::string_view Key, std::string_view Payload);

  /// True once a lock timeout (real or injected) has switched the
  /// store to in-memory-only no-ops. Sticky for the life of the handle.
  bool degraded() const;

  Stats stats() const;

  /// Where \p Key 's record lives (test hook for truncation fuzzing).
  std::string recordPathFor(std::string_view Key) const;
  std::string recordsDir() const;
  std::string quarantineDir() const;
  std::string tmpDir() const;

private:
  ResultStore(std::string Dir, uint32_t SchemaVersion, Options Opts);

  /// Moves \p Path into quarantine/ with a ".<reason>" suffix.
  void quarantineLocked(const std::string &Path, const char *Reason);
  /// Validates \p Bytes as a record and points \p Key and \p Payload
  /// into it. Returns the quarantine reason on failure, null on success.
  const char *validateRecord(std::string_view Bytes, std::string_view &Key,
                             std::string_view &Payload) const;

  /// flock with a bounded spin; false (and sticky degradation) on
  /// timeout. \p Exclusive selects LOCK_EX vs LOCK_SH.
  bool acquireLockLocked(bool Exclusive);
  void releaseLockLocked();
  /// Marks the store degraded for the rest of the handle's life.
  void degradeLocked();

  std::string Root;
  uint32_t Schema;
  Options Opts;
  int LockFd = -1;
  bool Degraded = false;
  mutable std::mutex Mu;
  Stats St;
  uint64_t TmpSeq = 0;
};

} // namespace hfuse

#endif // HFUSE_SUPPORT_RESULTSTORE_H
