//===-- support/Status.h - Structured error propagation ---------*- C++ -*-===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lightweight Status / Expected<T> pair carrying the pipeline's error
/// taxonomy. Every per-candidate operation of the search pipeline
/// (compile, fuse, lower, simulate) returns a result-or-status instead
/// of asserting, so a single malformed kernel, failed fusion, or wedged
/// simulation retires one candidate and never takes down the process.
///
/// The taxonomy mirrors the pipeline phases: a consumer that only cares
/// about "retriable vs. permanent" can branch on Status::transient()
/// (set by the fault injector and other sources of non-deterministic
/// failure), while the driver maps codes to distinct exit codes and the
/// degraded-output markers (`degraded:SimDeadlock` etc.).
///
//===----------------------------------------------------------------------===//

#ifndef HFUSE_SUPPORT_STATUS_H
#define HFUSE_SUPPORT_STATUS_H

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace hfuse {

/// Which phase of the pipeline failed. Keep errorCodeName() in sync.
enum class ErrorCode : uint8_t {
  Ok = 0,
  ParseError,        ///< lexer/parser rejected the source
  SemaError,         ///< semantic analysis failed (incl. inlining)
  FusionUnsupported, ///< the fusion transform bailed on this input
  CodegenError,      ///< AST -> SASS-lite lowering failed
  RegAllocError,     ///< register allocation (incl. bound) failed
  WorkloadError,     ///< workload/simulator context construction failed
  LaunchError,       ///< launch validation rejected grid/block/params
  SimDeadlock,       ///< watchdog: no scheduler progress (live/deadlock)
  SimTimeout,        ///< wall-clock timeout on an untrusted input
  SimBudget,         ///< cycle budget exceeded (expected, branch&bound)
  SimError,          ///< any other simulation fault (OOB access, ...)
  VerifyError,       ///< output mismatch against the CPU reference
  CacheCorrupt,      ///< a stored record failed its checksum
  StoreError,        ///< persistent result store I/O or lock failure
  Cancelled,         ///< the search's token fired (cancel, SIGTERM/SIGINT)
  DeadlineExceeded,  ///< the search's deadline passed mid-flight
  Internal,          ///< invariant violation; a bug, not an input error
};

/// Stable lowercase-free name for logs, JSON and `degraded:` markers.
const char *errorCodeName(ErrorCode Code);

/// An error code plus a human-readable message. Default-constructed ==
/// success; cheap to move and to return by value.
class Status {
public:
  Status() = default;
  Status(ErrorCode Code, std::string Message)
      : Code_(Code), Message_(std::move(Message)) {}

  static Status success() { return Status(); }
  /// A transient failure: retrying the same operation may succeed
  /// (injected faults, corrupt cache entries). Negative caches must not
  /// memoize these.
  static Status transient(ErrorCode Code, std::string Message) {
    Status S(Code, std::move(Message));
    S.Transient_ = true;
    return S;
  }

  bool ok() const { return Code_ == ErrorCode::Ok; }
  ErrorCode code() const { return Code_; }
  bool transient() const { return Transient_; }
  const std::string &message() const { return Message_; }

  /// Renders as "SimDeadlock: message" (or "ok").
  std::string str() const {
    if (ok())
      return "ok";
    return std::string(errorCodeName(Code_)) + ": " + Message_;
  }

private:
  ErrorCode Code_ = ErrorCode::Ok;
  bool Transient_ = false;
  std::string Message_;
};

inline std::ostream &operator<<(std::ostream &OS, const Status &S) {
  return OS << S.str();
}

/// A value or the Status explaining its absence. Minimal by design: the
/// pipeline only needs "did it work, and if not, which phase failed".
template <typename T> class Expected {
public:
  Expected(T Value) : Value_(std::move(Value)) {}
  Expected(Status S) : Err_(std::move(S)) {
    if (Err_.ok()) // an "error" that is ok() is a caller bug; keep sane
      Err_ = Status(ErrorCode::Internal, "Expected built from ok status");
  }

  explicit operator bool() const { return Value_.has_value(); }
  T &operator*() { return *Value_; }
  const T &operator*() const { return *Value_; }
  T *operator->() { return &*Value_; }

  /// The error status; Ok when a value is present.
  const Status &status() const { return Err_; }

  /// Moves the value out (valid only when bool(*this)).
  T take() { return std::move(*Value_); }

private:
  std::optional<T> Value_;
  Status Err_;
};

} // namespace hfuse

#endif // HFUSE_SUPPORT_STATUS_H
