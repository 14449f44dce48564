//===-- support/CancellationToken.h - Cooperative cancellation --*- C++ -*-===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A copyable handle to shared cancellation state for one search: an
/// explicit cancel() (a cancel-* fault site, a caller holding a copy),
/// an optional steady-clock deadline fixed when the token is made, and
/// the process-wide interrupt latch that hfusec's SIGTERM/SIGINT handler
/// sets. Every phase of the pipeline polls cancelled() at its own
/// granularity — per candidate in the search, per wait slice in
/// CompileCache, at the macro-progress cadence inside the simulator
/// loop — and unwinds with a Cancelled/DeadlineExceeded Status instead
/// of a half-answer.
///
/// The default-constructed token is *empty*: it never reports
/// cancelled (not even after an interrupt), cancel() is a no-op, and
/// polling it costs one pointer test. Code that always wants a live
/// token (so fault sites have something to fire) upgrades an empty
/// token with make().
///
/// The first observed cause wins: a deadline that latches before an
/// explicit cancel() or an interrupt reports DeadlineExceeded forever
/// after, and vice versa, so a search's partial-result reason is stable
/// no matter how many phases observe it.
///
//===----------------------------------------------------------------------===//

#ifndef HFUSE_SUPPORT_CANCELLATIONTOKEN_H
#define HFUSE_SUPPORT_CANCELLATIONTOKEN_H

#include "support/Status.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

namespace hfuse {

class CancellationToken {
public:
  enum class Reason : uint8_t { None = 0, Cancelled, Deadline };

  using Clock = std::chrono::steady_clock;

  /// Empty token: never cancels, all operations are no-ops.
  CancellationToken() = default;

  /// A live token with no deadline.
  static CancellationToken make() {
    CancellationToken T;
    T.State_ = std::make_shared<State>();
    return T;
  }

  /// A live token that self-cancels (reason Deadline) once \p Deadline
  /// passes.
  static CancellationToken withDeadline(Clock::time_point Deadline) {
    CancellationToken T = make();
    // Set before the token is shared, so a plain field suffices.
    T.State_->HasDeadline = true;
    T.State_->Deadline = Deadline;
    return T;
  }

  /// A live token whose deadline is \p Ms milliseconds from now.
  static CancellationToken withDeadlineMs(uint64_t Ms) {
    return withDeadline(Clock::now() + std::chrono::milliseconds(Ms));
  }

  /// Whether this handle refers to live shared state.
  bool valid() const { return State_ != nullptr; }

  /// Cancels every live token in the process, now and from now on
  /// (reason Cancelled, unless a token already latched a deadline).
  /// One lock-free store, so a SIGTERM/SIGINT handler may call it. The
  /// latch cannot be undone.
  static void interruptAll() {
    Interrupted.store(true, std::memory_order_relaxed);
  }
  /// Whether interruptAll() has been called.
  static bool interrupted() {
    return Interrupted.load(std::memory_order_relaxed);
  }

  /// Requests cancellation (reason Cancelled, unless a deadline already
  /// latched). Thread-safe, idempotent, no-op on an empty token.
  void cancel() const {
    if (State_)
      latch(Reason::Cancelled);
  }

  /// True once cancel() was called, the process was interrupted, or the
  /// deadline passed. The cause latches on first observation so
  /// reason() stays stable.
  bool cancelled() const {
    if (!State_)
      return false;
    if (State_->Flag.load(std::memory_order_acquire))
      return true;
    if (interrupted()) {
      latch(Reason::Cancelled);
      return true;
    }
    if (State_->HasDeadline && Clock::now() >= State_->Deadline) {
      latch(Reason::Deadline);
      return true;
    }
    return false;
  }

  /// Why the token fired; None while not cancelled.
  Reason reason() const {
    // State_ is tested here too, not only inside cancelled(): without
    // it GCC 12 reports a false -Wstringop-overflow on the load below
    // for an empty token.
    if (!State_ || !cancelled())
      return Reason::None;
    return static_cast<Reason>(State_->Rsn.load(std::memory_order_acquire));
  }

  /// The Status a phase should unwind with: ok while not cancelled,
  /// else a transient Cancelled/DeadlineExceeded error. Transient
  /// because retrying the identical search (without the cancel) can
  /// succeed — negative caches must never memoize it.
  Status status() const {
    switch (reason()) {
    case Reason::None:
      return Status::success();
    case Reason::Deadline:
      return Status::transient(ErrorCode::DeadlineExceeded,
                               "request deadline exceeded");
    case Reason::Cancelled:
      return Status::transient(ErrorCode::Cancelled, "request cancelled");
    }
    return Status::success();
  }

private:
  struct State {
    std::atomic<bool> Flag{false};
    std::atomic<uint8_t> Rsn{0};
    bool HasDeadline = false;
    Clock::time_point Deadline{};
  };

  /// Records \p R as the cause unless one is already set, then fires.
  void latch(Reason R) const {
    uint8_t Expected = 0;
    State_->Rsn.compare_exchange_strong(Expected, static_cast<uint8_t>(R),
                                        std::memory_order_acq_rel);
    State_->Flag.store(true, std::memory_order_release);
  }

  static_assert(std::atomic<bool>::is_always_lock_free,
                "interruptAll() must be async-signal-safe");
  inline static std::atomic<bool> Interrupted{false};

  std::shared_ptr<State> State_;
};

} // namespace hfuse

#endif // HFUSE_SUPPORT_CANCELLATIONTOKEN_H
