//===-- service/SearchService.h - Search request lifecycle ------*- C++ -*-===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reusable entry point for the Figure 6 configuration search:
/// request struct in, Expected<SearchOutcome> out. hfusec is one thin
/// client; tests and an eventual fusion-as-a-service daemon are others.
/// The service owns the request *lifecycle* that the bare runner does
/// not:
///
///  - admission control: a bounded queue in front of a fixed worker
///    budget. Requests beyond Config::MaxQueue are rejected
///    immediately with ErrorCode::QueueFull — deterministic
///    back-pressure instead of unbounded memory growth — and admitted
///    requests execute in strict FIFO admission order;
///  - per-request job caps: Config::MaxJobsPerRequest clamps a
///    request's SearchJobs so one greedy client cannot monopolize the
///    host;
///  - in-flight dedup: a request identical to one currently executing
///    (same kernels, same options, and no private lifecycle — no caller
///    token, no deadline) joins the running search's future instead of
///    re-running it;
///  - deadlines and cancellation: DeadlineMs and/or a caller-supplied
///    CancellationToken are composed into one effective token threaded
///    through every phase (compile waits, prune loop, simulator
///    macro-progress checks). A fired token yields an *anytime* result
///    — SearchResult::Partial with the best-so-far incumbent and the
///    Unvisited ledger — not an exception and not a blocked thread;
///  - graceful drain: shutdown() (or a watched SIGTERM) stops
///    admitting, rejects everything still queued, gives in-flight
///    requests Config::DrainGraceMs to finish before firing their
///    tokens, waits for them to wind down to their partial results,
///    then detaches the ResultStore so its state is durable before the
///    process exits.
///
/// A request that runs with no deadline, no cancel, and no armed fault
/// site produces results bit-identical to calling
/// NWayRunner::searchBestConfig directly — the service adds lifecycle,
/// never perturbs the search.
///
//===----------------------------------------------------------------------===//

#ifndef HFUSE_SERVICE_SEARCHSERVICE_H
#define HFUSE_SERVICE_SEARCHSERVICE_H

#include "profile/NWayRunner.h"
#include "support/CancellationToken.h"
#include "support/Status.h"

#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace hfuse::service {

/// One search request: which kernels, how to run them, and its
/// lifecycle.
struct SearchRequest {
  /// The kernels to fuse, in order: two run the paper's Figure 6 search,
  /// three or more the portfolio extension.
  std::vector<kernels::BenchKernelId> Kernels;
  /// Runner knobs (arch, scales, jobs, prune, budget, ...). A null
  /// Runner.Cache falls back to the service-wide Config::Cache so
  /// requests share compilations.
  profile::NWayRunner::Options Runner;
  /// Wall-clock deadline for the whole request, in milliseconds from
  /// admission (0 = none). Composed with \p Cancel into one token.
  uint64_t DeadlineMs = 0;
  /// Caller-held cancel handle (empty = none). The caller keeps a copy
  /// and may fire it any time; the request unwinds to its anytime
  /// result at the next candidate boundary.
  CancellationToken Cancel;
};

/// What a completed request returns.
struct SearchOutcome {
  /// The search result — possibly Partial (anytime), possibly !Ok.
  profile::SearchResult Search;
  /// The native unfused baseline (all kernels on concurrent streams).
  /// A request of 3+ kernels always runs it unless cancelled: the
  /// portfolio verdict compares against it. A pair runs it only for
  /// graceful degradation: when the search failed outright for a reason
  /// other than cancellation, it still answers "how fast without
  /// fusion".
  std::optional<gpusim::SimResult> NativeBaseline;
  /// 3+ kernels only: the back-to-back sequential baseline (sum of solo
  /// runs), the second yardstick the fused winner must beat.
  std::optional<gpusim::SimResult> SerialBaseline;
};

class SearchService {
public:
  struct Config {
    /// Concurrent requests executing at once.
    int Workers = 1;
    /// Admitted-but-waiting requests beyond the executing ones; the
    /// next request is rejected with QueueFull.
    int MaxQueue = 8;
    /// Upper bound on any request's SearchJobs (0 = uncapped).
    /// Requests asking for more — or for "auto" (<= 0) — are clamped.
    int MaxJobsPerRequest = 0;
    /// Shared compile/simulation cache for requests whose options do
    /// not bring their own (null = one private cache per request).
    std::shared_ptr<profile::CompileCache> Cache;
    /// How long shutdown() lets in-flight requests finish naturally
    /// before firing their cancellation tokens. 0 = fire immediately
    /// (they still wind down to anytime results).
    uint64_t DrainGraceMs = 0;
    /// Poll the process-wide shutdown flag (set by requestShutdown(),
    /// e.g. from a SIGTERM handler) on a watcher thread and drain when
    /// it fires.
    bool WatchSignals = false;
  };

  explicit SearchService(Config C);
  /// Drains (shutdown()) before destruction.
  ~SearchService();
  SearchService(const SearchService &) = delete;
  SearchService &operator=(const SearchService &) = delete;

  /// Admission + execution, synchronous. Errors are lifecycle verdicts
  /// only: QueueFull (admission rejected) or Cancelled (rejected or
  /// evicted by a drain). A request that ran — even partially, even
  /// unsuccessfully, even one whose runner failed to construct —
  /// returns an ok() Expected whose SearchOutcome tells the full story.
  Expected<SearchOutcome> search(const SearchRequest &R);

  /// Stops admitting, cancels the queue, drains in-flight requests
  /// (grace period per Config::DrainGraceMs, then token fire), then
  /// detaches the store. Idempotent, thread-safe, callable while other
  /// threads are blocked in search().
  void shutdown();
  bool shuttingDown() const;

  /// Async-signal-safe shutdown trigger: sets a process-wide atomic
  /// flag. Services constructed with Config::WatchSignals observe it
  /// and drain. Call from a SIGTERM/SIGINT handler.
  static void requestShutdown();
  static bool shutdownRequested();
  /// Installs requestShutdown() as the SIGTERM (and SIGINT) handler.
  static void installSignalHandlers();

  struct Stats {
    uint64_t Admitted = 0;      ///< requests that entered the queue
    uint64_t RejectedFull = 0;  ///< QueueFull rejections
    uint64_t RejectedDrain = 0; ///< rejected/evicted by shutdown
    uint64_t Deduped = 0;       ///< joined an identical in-flight run
    uint64_t Completed = 0;     ///< executions that returned
    uint64_t Partial = 0;       ///< of those, anytime (Partial) results
  };
  Stats stats() const;

private:
  using Future = std::shared_future<std::shared_ptr<SearchOutcome>>;

  /// Deterministic fingerprint of everything the search result is a
  /// function of (used for in-flight dedup).
  static std::string fingerprint(const SearchRequest &R);

  /// Runs one admitted request (no queue interaction).
  SearchOutcome execute(const SearchRequest &R,
                        const CancellationToken &Token);

  Config Cfg;
  mutable std::mutex Mu;
  std::condition_variable Cv;
  bool Draining = false;
  uint64_t NextTicket = 0; ///< admission order: next ticket to hand out
  uint64_t NextToRun = 0;  ///< admission order: next ticket allowed to run
  int Active = 0;          ///< requests currently executing
  /// Tokens of executing requests, so a drain can fire them.
  std::vector<CancellationToken> InFlightTokens;
  /// In-flight dedup: fingerprint -> future of the running execution.
  std::map<std::string, Future> InFlight;
  Stats St;
  std::thread Watcher;
  bool StopWatcher = false;
};

} // namespace hfuse::service

#endif // HFUSE_SERVICE_SEARCHSERVICE_H
