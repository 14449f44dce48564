//===-- service/SearchService.cpp - Search request lifecycle --------------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/SearchService.h"

#include "support/Log.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <atomic>
#include <chrono>
#include <csignal>

using namespace hfuse;
using namespace hfuse::service;

namespace {

/// Process-wide drain flag. A signal handler may only touch
/// async-signal-safe state; a lock-free atomic store qualifies, so the
/// handler sets this and a watcher thread turns it into shutdown().
std::atomic<bool> GShutdownRequested{false};

void signalHandler(int) { SearchService::requestShutdown(); }

} // namespace

void SearchService::requestShutdown() {
  GShutdownRequested.store(true, std::memory_order_relaxed);
}

bool SearchService::shutdownRequested() {
  return GShutdownRequested.load(std::memory_order_relaxed);
}

void SearchService::installSignalHandlers() {
  std::signal(SIGTERM, signalHandler);
  std::signal(SIGINT, signalHandler);
}

SearchService::SearchService(Config C) : Cfg(std::move(C)) {
  if (Cfg.Workers < 1)
    Cfg.Workers = 1;
  if (Cfg.MaxQueue < 0)
    Cfg.MaxQueue = 0;
  if (Cfg.WatchSignals)
    Watcher = std::thread([this] {
      // A signal handler cannot notify a condition variable, so the
      // flag is still polled every 20 ms; waiting on Cv instead of
      // sleeping lets the destructor and shutdown() end the wait at once.
      auto Stop = [this] { return StopWatcher || Draining; };
      std::unique_lock<std::mutex> Lock(Mu);
      while (!Stop()) {
        if (shutdownRequested()) {
          Lock.unlock();
          logInfo("service: shutdown requested (signal); draining");
          shutdown();
          return;
        }
        Cv.wait_for(Lock, std::chrono::milliseconds(20), Stop);
      }
    });
}

SearchService::~SearchService() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    StopWatcher = true;
  }
  Cv.notify_all();
  shutdown();
  if (Watcher.joinable())
    Watcher.join();
}

bool SearchService::shuttingDown() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Draining;
}

SearchService::Stats SearchService::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return St;
}

std::string SearchService::fingerprint(const SearchRequest &R) {
  const profile::NWayRunner::Options &O = R.Runner;
  // Everything the search result is a pure function of. Two requests
  // with equal fingerprints would produce bit-identical SearchResults,
  // so the later one may join the earlier one's execution.
  std::string Kernels, Scales;
  for (kernels::BenchKernelId Id : R.Kernels)
    Kernels += formatString("%d+", static_cast<int>(Id));
  for (double S : O.Scales)
    Scales += formatString("%.6f/", S);
  return formatString(
      "[%s]|%s|sms%d|s%s|v%d|pb%d|l2%d|seed%u|j%d|p%d|b%d|w%llu|t%llu|$%p",
      Kernels.c_str(), O.Arch.Name.c_str(), O.SimSMs, Scales.c_str(),
      O.Verify ? 1 : 0, O.UsePartialBarriers ? 1 : 0, O.ModelL2 ? 1 : 0,
      O.Seed, O.SearchJobs, O.Prune ? 1 : 0, static_cast<int>(O.Budget),
      static_cast<unsigned long long>(O.WatchdogCycles),
      static_cast<unsigned long long>(O.WallTimeoutMs),
      static_cast<const void *>(O.Cache.get()));
}

namespace {

/// The anytime result of a request cancelled before its sweep began
/// (during input-kernel compilation): Partial, with a ledger of 0
/// candidates.
profile::SearchResult cancelledBeforeSearch(const CancellationToken &Token,
                                            const std::string &Error) {
  profile::SearchResult SR;
  SR.Partial = true;
  SR.PartialReason = Token.status();
  SR.Err = SR.PartialReason;
  SR.Error = Error;
  return SR;
}

} // namespace

SearchOutcome SearchService::execute(const SearchRequest &R,
                                     const CancellationToken &Token) {
  SearchOutcome Out;
  profile::NWayRunner::Options RO = R.Runner;
  RO.Cancel = Token;
  if (!RO.Cache && Cfg.Cache)
    RO.Cache = Cfg.Cache;
  if (Cfg.MaxJobsPerRequest > 0 &&
      (RO.SearchJobs <= 0 || RO.SearchJobs > Cfg.MaxJobsPerRequest))
    RO.SearchJobs = Cfg.MaxJobsPerRequest;

  profile::NWayRunner Runner(R.Kernels, std::move(RO));
  if (!Runner.ok()) {
    // A cancel that landed during input-kernel compilation is a
    // request verdict (a partial result that reached no candidate);
    // anything else is a genuine setup failure.
    if (Token.cancelled()) {
      Out.Search = cancelledBeforeSearch(Token, Runner.error());
      return Out;
    }
    Out.Search.Err = Status(ErrorCode::Internal, Runner.error());
    Out.Search.Error = Runner.error();
    return Out;
  }
  Out.Search = Runner.searchBestConfig();
  if (Token.cancelled())
    return Out;
  if (R.Kernels.size() >= 3) {
    // The portfolio verdict compares the fused winner against both ways
    // of running the kernels unfused.
    Out.NativeBaseline = Runner.runNative();
    if (Out.Search.Ok)
      Out.SerialBaseline = Runner.runSerial();
  } else if (!Out.Search.Ok) {
    // Graceful degradation: a failed (not cancelled) pair search still
    // answers with the native unfused baseline.
    Out.NativeBaseline = Runner.runNative();
  }
  return Out;
}

Expected<SearchOutcome> SearchService::search(const SearchRequest &R) {
  // Compose the request's effective token: the caller's handle if one
  // was supplied (so their cancel() reaches the run), upgraded to a
  // live private one otherwise, with the deadline armed on top. The
  // first armed deadline wins, so a caller token that already carries
  // one keeps it.
  CancellationToken Token =
      R.Cancel.valid() ? R.Cancel : CancellationToken::make();
  if (R.DeadlineMs)
    Token.armDeadlineMs(R.DeadlineMs);

  // Only requests with no private lifecycle are dedupable: a caller
  // token or deadline makes the run's Partial behavior caller-specific.
  const bool Dedupable = !R.Cancel.valid() && R.DeadlineMs == 0;
  const std::string FP = Dedupable ? fingerprint(R) : std::string();

  std::promise<std::shared_ptr<SearchOutcome>> Promise;
  {
    std::unique_lock<std::mutex> Lock(Mu);
    if (Draining) {
      ++St.RejectedDrain;
      return Status::transient(ErrorCode::Cancelled,
                               "service draining: request rejected");
    }
    if (Dedupable) {
      auto It = InFlight.find(FP);
      if (It != InFlight.end()) {
        Future F = It->second;
        ++St.Deduped;
        HFUSE_METRIC_ADD("service.deduped", 1);
        Lock.unlock();
        return *F.get();
      }
    }
    // Admission control: reject when the request would have to wait
    // and the wait line is already full. Waiting = admitted tickets
    // not yet running.
    const uint64_t Waiting = NextTicket - NextToRun;
    const bool WouldWait = Active >= Cfg.Workers || Waiting > 0;
    if (WouldWait && Waiting >= static_cast<uint64_t>(Cfg.MaxQueue)) {
      ++St.RejectedFull;
      HFUSE_METRIC_ADD("service.rejected_full", 1);
      return Status::transient(
          ErrorCode::QueueFull,
          formatString("admission queue full (%d waiting, %d executing)",
                       static_cast<int>(Waiting), Active));
    }
    const uint64_t Ticket = NextTicket++;
    ++St.Admitted;
    HFUSE_METRIC_ADD("service.admitted", 1);
    // Strict FIFO: a ticket runs only when every earlier ticket has
    // started and a worker slot is free — admission order is execution
    // order regardless of thread wake-up timing.
    Cv.wait(Lock, [&] {
      return Draining || (Ticket == NextToRun && Active < Cfg.Workers);
    });
    if (Draining) {
      ++St.RejectedDrain;
      HFUSE_METRIC_ADD("service.rejected_drain", 1);
      return Status::transient(ErrorCode::Cancelled,
                               "service draining: queued request cancelled");
    }
    ++NextToRun;
    ++Active;
    InFlightTokens.push_back(Token);
    if (Dedupable)
      InFlight.emplace(FP, Promise.get_future().share());
    Cv.notify_all();
  }

  auto Out = std::make_shared<SearchOutcome>(execute(R, Token));
  Promise.set_value(Out);

  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Dedupable)
      InFlight.erase(FP);
    // Remove this request's registered handle (tokens have no identity
    // beyond their shared state; compare the control blocks).
    for (auto It = InFlightTokens.begin(); It != InFlightTokens.end(); ++It) {
      if (It->sameStateAs(Token)) {
        InFlightTokens.erase(It);
        break;
      }
    }
    --Active;
    ++St.Completed;
    if (Out->Search.Partial)
      ++St.Partial;
    HFUSE_METRIC_ADD("service.completed", 1);
    if (Out->Search.Partial)
      HFUSE_METRIC_ADD("service.partial", 1);
    Cv.notify_all();
  }
  return *Out;
}

void SearchService::shutdown() {
  std::vector<CancellationToken> ToCancel;
  {
    std::unique_lock<std::mutex> Lock(Mu);
    if (!Draining) {
      Draining = true;
      logInfo("service: draining (%d executing, %llu queued)", Active,
              static_cast<unsigned long long>(NextTicket - NextToRun));
      Cv.notify_all();
    }
    // Grace period: let in-flight searches finish naturally before
    // firing their tokens.
    if (Cfg.DrainGraceMs && Active > 0)
      Cv.wait_for(Lock, std::chrono::milliseconds(Cfg.DrainGraceMs),
                  [&] { return Active == 0; });
    ToCancel = InFlightTokens;
  }
  for (const CancellationToken &T : ToCancel)
    T.cancel();
  {
    std::unique_lock<std::mutex> Lock(Mu);
    Cv.wait(Lock, [&] { return Active == 0; });
  }
  // In-flight work has wound down to its (possibly partial) results;
  // detach the store so nothing writes past this point. Every put()
  // was already durable (temp + fsync + rename), so detaching IS the
  // flush.
  if (Cfg.Cache)
    Cfg.Cache->attachStore(nullptr);
}
