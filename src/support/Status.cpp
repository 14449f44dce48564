//===-- support/Status.cpp - Structured error propagation -----------------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Status.h"

const char *hfuse::errorCodeName(ErrorCode Code) {
  switch (Code) {
  case ErrorCode::Ok:
    return "Ok";
  case ErrorCode::ParseError:
    return "ParseError";
  case ErrorCode::SemaError:
    return "SemaError";
  case ErrorCode::FusionUnsupported:
    return "FusionUnsupported";
  case ErrorCode::CodegenError:
    return "CodegenError";
  case ErrorCode::RegAllocError:
    return "RegAllocError";
  case ErrorCode::WorkloadError:
    return "WorkloadError";
  case ErrorCode::LaunchError:
    return "LaunchError";
  case ErrorCode::SimDeadlock:
    return "SimDeadlock";
  case ErrorCode::SimTimeout:
    return "SimTimeout";
  case ErrorCode::SimBudget:
    return "SimBudget";
  case ErrorCode::SimError:
    return "SimError";
  case ErrorCode::VerifyError:
    return "VerifyError";
  case ErrorCode::CacheCorrupt:
    return "CacheCorrupt";
  case ErrorCode::StoreError:
    return "StoreError";
  case ErrorCode::Cancelled:
    return "Cancelled";
  case ErrorCode::DeadlineExceeded:
    return "DeadlineExceeded";
  case ErrorCode::Internal:
    return "Internal";
  }
  return "Unknown";
}
