//===-- support/FaultInjector.cpp - Deterministic fault injection ---------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjector.h"

#include "support/Log.h"
#include "support/Telemetry.h"

#include <cstdio>
#include <cstdlib>

using namespace hfuse;

const char *hfuse::faultSiteName(FaultSite Site) {
  switch (Site) {
  case FaultSite::Compile:
    return "compile";
  case FaultSite::Fuse:
    return "fuse";
  case FaultSite::Lower:
    return "lower";
  case FaultSite::SimWedge:
    return "sim-wedge";
  case FaultSite::StoreWriteTorn:
    return "store-write-torn";
  case FaultSite::StoreCorrupt:
    return "store-corrupt";
  case FaultSite::StoreLockTimeout:
    return "store-lock-timeout";
  case FaultSite::StoreReadFail:
    return "store-read-fail";
  case FaultSite::CancelCompile:
    return "cancel-compile";
  case FaultSite::CancelPrune:
    return "cancel-prune";
  case FaultSite::CancelSimulate:
    return "cancel-simulate";
  }
  return "unknown";
}

const std::vector<FaultSite> &hfuse::allFaultSites() {
  static const std::vector<FaultSite> Sites = {
      FaultSite::Compile,          FaultSite::Fuse,
      FaultSite::Lower,            FaultSite::SimWedge,
      FaultSite::StoreWriteTorn,   FaultSite::StoreCorrupt,
      FaultSite::StoreLockTimeout, FaultSite::StoreReadFail,
      FaultSite::CancelCompile,    FaultSite::CancelPrune,
      FaultSite::CancelSimulate,
  };
  return Sites;
}

namespace {

/// Which Status code a fired fault reports, per site. SimWedge is the
/// odd one out: the injector only flags the run, and the simulator's
/// watchdog produces the actual SimDeadlock.
ErrorCode siteErrorCode(FaultSite Site) {
  switch (Site) {
  case FaultSite::Compile:
    return ErrorCode::CodegenError;
  case FaultSite::Fuse:
    return ErrorCode::FusionUnsupported;
  case FaultSite::Lower:
    return ErrorCode::RegAllocError;
  case FaultSite::SimWedge:
    return ErrorCode::SimDeadlock;
  case FaultSite::StoreWriteTorn:
    return ErrorCode::StoreError;
  case FaultSite::StoreCorrupt:
    return ErrorCode::CacheCorrupt;
  case FaultSite::StoreLockTimeout:
    return ErrorCode::StoreError;
  case FaultSite::StoreReadFail:
    return ErrorCode::StoreError;
  case FaultSite::CancelCompile:
  case FaultSite::CancelPrune:
  case FaultSite::CancelSimulate:
    // The injector does not fail the candidate; the caller fires the
    // request's CancellationToken and the sweep unwinds as Cancelled.
    return ErrorCode::Cancelled;
  }
  return ErrorCode::Internal;
}

bool parseSite(const std::string &Name, FaultSite &Site) {
  for (FaultSite S : allFaultSites()) {
    if (Name == faultSiteName(S)) {
      Site = S;
      return true;
    }
  }
  return false;
}

} // namespace

FaultInjector &FaultInjector::instance() {
  static FaultInjector *I = [] {
    auto *Inj = new FaultInjector();
    if (const char *Env = std::getenv("HFUSE_FAULT")) {
      std::string Err;
      if (!Inj->configure(Env, &Err))
        // A malformed env spec still disarms (running stale rules is
        // worse than running none), but say so — a typo that silently
        // turns a fault-injection test into a no-op run is how
        // containment regressions slip through. (CI greps the
        // `warning: HFUSE_FAULT` substring of this line.)
        logWarn("HFUSE_FAULT: %s (fault injection disarmed)", Err.c_str());
    }
    return Inj;
  }();
  return *I;
}

bool FaultInjector::configure(const std::string &Spec, std::string *Error) {
  // A malformed spec disarms entirely rather than leaving a previous
  // rule set active: running with rules the caller did not just ask for
  // is worse than running with none.
  std::vector<Rule> Parsed;
  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t End = Spec.find(';', Pos);
    if (End == std::string::npos)
      End = Spec.size();
    std::string RuleText = Spec.substr(Pos, End - Pos);
    Pos = End + 1;
    if (RuleText.empty())
      continue;

    Rule R;
    size_t Colon = RuleText.find(':');
    std::string SiteName = RuleText.substr(0, Colon);
    if (!parseSite(SiteName, R.Site)) {
      if (Error)
        *Error = "unknown fault site '" + SiteName + "'";
      reset();
      return false;
    }
    while (Colon != std::string::npos) {
      size_t Start = Colon + 1;
      // `label=` takes the rest of the rule verbatim so substrings may
      // contain ':' (they cannot contain ';').
      if (RuleText.compare(Start, 6, "label=") == 0) {
        R.LabelSubstr = RuleText.substr(Start + 6);
        Colon = std::string::npos;
      } else if (RuleText.compare(Start, 4, "nth=") == 0) {
        Colon = RuleText.find(':', Start);
        size_t Len = (Colon == std::string::npos ? RuleText.size() : Colon) -
                     (Start + 4);
        std::string N = RuleText.substr(Start + 4, Len);
        char *EndPtr = nullptr;
        R.Nth = std::strtoull(N.c_str(), &EndPtr, 10);
        if (N.empty() || *EndPtr != '\0' || R.Nth == 0) {
          if (Error)
            *Error = "bad nth count '" + N + "' (need a positive integer)";
          reset();
          return false;
        }
      } else {
        if (Error)
          *Error = "bad fault rule clause in '" + RuleText +
                   "' (expected nth=N or label=SUBSTR)";
        reset();
        return false;
      }
    }
    Parsed.push_back(std::move(R));
  }

  std::lock_guard<std::mutex> Lock(Mu);
  Rules = std::move(Parsed);
  Fired = 0;
  Armed = !Rules.empty();
  return true;
}

void FaultInjector::reset() {
  std::lock_guard<std::mutex> Lock(Mu);
  Rules.clear();
  Fired = 0;
  Armed = false;
}

Status FaultInjector::check(FaultSite Site, std::string_view Label) {
  if (!Armed)
    return Status::success();
  std::lock_guard<std::mutex> Lock(Mu);
  for (Rule &R : Rules) {
    if (R.Site != Site || R.Spent)
      continue;
    if (!R.LabelSubstr.empty() &&
        Label.find(R.LabelSubstr) == std::string_view::npos)
      continue;
    ++R.Matches;
    if (R.Nth != 0) {
      if (R.Matches != R.Nth)
        continue;
      R.Spent = true; // nth rules fire exactly once
    }
    ++Fired;
    std::string Msg = std::string("injected fault at ") +
                      faultSiteName(Site) + " #" + std::to_string(R.Matches) +
                      " '" + std::string(Label) + "'";
    HFUSE_METRIC_ADD("fault.fired", 1);
    if (telemetry::traceOn())
      telemetry::Tracer::instance().instant(
          "fault", faultSiteName(Site),
          "{\"label\":\"" + telemetry::jsonEscape(Label) + "\"}");
    logDebug("%s", Msg.c_str());
    return Status::transient(siteErrorCode(Site), std::move(Msg));
  }
  return Status::success();
}

uint64_t FaultInjector::firedCount() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Fired;
}
