//===-- support/FaultInjector.h - Deterministic fault injection -*- C++ -*-===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide, deterministic fault injector for containment tests.
/// The pipeline's failure-prone sites (kernel compilation, fusion,
/// per-bound lowering, simulation, result-store I/O) ask the injector
/// before doing real work; an armed rule turns the call into a
/// transient Status failure (or, for `sim-wedge`, wedges the simulation
/// so the watchdog must rescue it).
///
/// Rules are driven by the `HFUSE_FAULT` environment variable or the
/// `hfusec --fault` flag (tests configure programmatically). Grammar —
/// semicolon-separated rules, each `site[:nth=N][:label=SUBSTR]`:
///
///   compile:nth=2              fail the 2nd kernel compilation
///   lower:label=640/384        fail every lowering whose label
///                              contains "640/384"
///   sim-wedge:nth=1:label=r    wedge the 1st simulation of a bounded
///                              (rN-labelled) candidate
///   store-corrupt:nth=3        fail the checksum of the 3rd
///                              result-store record read
///   cancel-simulate:nth=4      fire the request's cancellation token
///                              at the 4th simulation checkpoint
///
/// `nth` counts label-matching queries (1-based) and fires exactly
/// once; without `nth` the rule fires on every match. Counting is
/// deterministic for serial pipelines; label matching is deterministic
/// regardless of worker threads, so concurrent-sweep tests target
/// candidates by label. Injected failures are marked
/// Status::transient(), which the caches use to keep them un-memoized.
///
//===----------------------------------------------------------------------===//

#ifndef HFUSE_SUPPORT_FAULTINJECTOR_H
#define HFUSE_SUPPORT_FAULTINJECTOR_H

#include "support/Status.h"

#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace hfuse {

/// The failure-prone sites a rule can target.
enum class FaultSite : uint8_t {
  Compile,          ///< CompileCache front-end compilation
  Fuse,             ///< horizontal fusion of a partition
  Lower,            ///< per-bound register allocation of a fused kernel
  SimWedge,         ///< wedge a simulation (suppress barrier releases)
  StoreWriteTorn,   ///< tear a ResultStore record write mid-file
  StoreCorrupt,     ///< flip a ResultStore record's checksum on read
  StoreLockTimeout, ///< time out the ResultStore advisory lock
  StoreReadFail,    ///< fail a ResultStore record read (transient I/O)
  CancelCompile,    ///< fire the request's cancel token before a compile
  CancelPrune,      ///< fire the request's cancel token during pruning
  CancelSimulate,   ///< fire the request's cancel token before a simulation
};

const char *faultSiteName(FaultSite Site);

/// Every site, in declaration order — for `--fault list` and parsers.
const std::vector<FaultSite> &allFaultSites();

class FaultInjector {
public:
  /// The process-wide instance. Parses `HFUSE_FAULT` once on first use;
  /// configure()/reset() override it.
  static FaultInjector &instance();

  /// Replaces the active rule set with \p Spec (see file comment for
  /// the grammar; empty disarms). False + \p Error on a malformed spec.
  bool configure(const std::string &Spec, std::string *Error = nullptr);

  /// Disarms all rules and clears counters.
  void reset();

  /// True when any rule is active (fast path for hot callers).
  bool armed() const { return Armed; }

  /// Called by a fault site before real work: returns a transient
  /// failure Status when a rule fires, success otherwise.
  Status check(FaultSite Site, std::string_view Label);

  /// Total faults fired since the last configure()/reset().
  uint64_t firedCount() const;

private:
  struct Rule {
    FaultSite Site;
    uint64_t Nth = 0; ///< 0 = every match; else fire once on match #Nth
    std::string LabelSubstr;
    uint64_t Matches = 0;
    bool Spent = false;
  };

  FaultInjector() = default;

  mutable std::mutex Mu;
  std::vector<Rule> Rules;
  uint64_t Fired = 0;
  /// Unlocked fast-path flag: false means check() returns success
  /// without taking the mutex, so disarmed runs pay one branch.
  bool Armed = false;
};

} // namespace hfuse

#endif // HFUSE_SUPPORT_FAULTINJECTOR_H
