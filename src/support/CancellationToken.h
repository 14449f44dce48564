//===-- support/CancellationToken.h - Cooperative cancellation --*- C++ -*-===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A copyable handle to shared cancellation state for one search
/// request: an explicit cancel() (SIGTERM drain, a client hanging up,
/// a cancel-* fault site) and an optional steady-clock deadline. Every
/// phase of the pipeline polls cancelled() at its own granularity —
/// per candidate in the search, per wait slice in CompileCache, at the
/// macro-progress cadence inside the simulator loop — and unwinds with
/// a Cancelled/DeadlineExceeded Status instead of a half-answer.
///
/// The default-constructed token is *empty*: it never reports
/// cancelled, cancel() is a no-op, and polling it costs one pointer
/// test. Code that always wants a live token (so fault sites have
/// something to fire) upgrades an empty token with make().
///
/// The first observed cause wins: a deadline that latches before an
/// explicit cancel() reports DeadlineExceeded forever after, and vice
/// versa, so a request's partial-result reason is stable no matter how
/// many phases observe it.
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
    T.armDeadline(Deadline);
    return T;
  }

  /// A live token whose deadline is \p Ms milliseconds from now.
  static CancellationToken withDeadlineMs(uint64_t Ms) {
    return withDeadline(Clock::now() + std::chrono::milliseconds(Ms));
  }

  /// Whether this handle refers to live shared state.
  bool valid() const { return State_ != nullptr; }

  /// Whether two handles share one control block (the only notion of
  /// token identity — a copied handle IS the same token).
  bool sameStateAs(const CancellationToken &O) const {
    return State_ == O.State_;
  }

  /// Arms a deadline on a live token that has none yet (the service
  /// composes a caller-supplied cancel token with a --deadline-ms this
  /// way). The first armed deadline wins; later calls no-op. Safe
  /// against concurrent cancelled() readers: Deadline is written before
  /// the release store that publishes it.
  void armDeadline(Clock::time_point D) const {
    if (!State_)
      return;
    if (State_->Arming.exchange(true, std::memory_order_acq_rel))
      return; // someone else already armed (or is arming) a deadline
    State_->Deadline = D;
    State_->HasDeadline.store(true, std::memory_order_release);
  }
  void armDeadlineMs(uint64_t Ms) const {
    armDeadline(Clock::now() + std::chrono::milliseconds(Ms));
  }

  /// Requests cancellation (reason Cancelled, unless a deadline already
  /// latched). Thread-safe, idempotent, no-op on an empty token.
  void cancel() const {
    if (!State_)
      return;
    uint8_t Expected = 0;
    State_->Rsn.compare_exchange_strong(
        Expected, static_cast<uint8_t>(Reason::Cancelled),
        std::memory_order_acq_rel);
    State_->Flag.store(true, std::memory_order_release);
  }

  /// True once cancel() was called or the deadline passed. The deadline
  /// latches on first observation so reason() stays stable.
  bool cancelled() const {
    if (!State_)
      return false;
    if (State_->Flag.load(std::memory_order_acquire))
      return true;
    if (State_->HasDeadline.load(std::memory_order_acquire) &&
        Clock::now() >= State_->Deadline) {
      uint8_t Expected = 0;
      State_->Rsn.compare_exchange_strong(
          Expected, static_cast<uint8_t>(Reason::Deadline),
          std::memory_order_acq_rel);
      State_->Flag.store(true, std::memory_order_release);
      return true;
    }
    return false;
  }

  /// Why the token fired; None while not cancelled.
  Reason reason() const {
    if (!cancelled())
      return Reason::None;
    return static_cast<Reason>(State_->Rsn.load(std::memory_order_acquire));
  }

  /// The Status a phase should unwind with: ok while not cancelled,
  /// else a transient Cancelled/DeadlineExceeded error. Transient
  /// because retrying the identical request (without the cancel) can
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

  /// The deadline, if any (for deriving drain budgets).
  bool hasDeadline() const {
    return State_ && State_->HasDeadline.load(std::memory_order_acquire);
  }
  Clock::time_point deadline() const {
    return hasDeadline() ? State_->Deadline : Clock::time_point::max();
  }

private:
  struct State {
    std::atomic<bool> Flag{false};
    std::atomic<uint8_t> Rsn{0};
    /// Deadline publication: Arming serializes writers, Deadline is
    /// written before the HasDeadline release store, readers acquire.
    std::atomic<bool> Arming{false};
    std::atomic<bool> HasDeadline{false};
    Clock::time_point Deadline{};
  };
  std::shared_ptr<State> State_;
};

} // namespace hfuse

#endif // HFUSE_SUPPORT_CANCELLATIONTOKEN_H
