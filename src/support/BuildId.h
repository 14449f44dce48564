//===-- support/BuildId.h - The executable's GNU build ID -------*- C++ -*-===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The GNU build ID of the running executable: the linker's hash of the
/// linked image (`ld --build-id`), read from the program's
/// NT_GNU_BUILD_ID note in memory. Two binaries share an ID only when
/// they were linked from identical inputs, so a record keyed on it is
/// trusted only by the binary that wrote it (or a byte-identical
/// rebuild). The library is linked statically, so the executable's ID
/// covers the fusion and codegen code too.
///
//===----------------------------------------------------------------------===//

#ifndef HFUSE_SUPPORT_BUILDID_H
#define HFUSE_SUPPORT_BUILDID_H

#include <string>

namespace hfuse {

/// The executable's build ID as lowercase hex, read once per process;
/// empty when the binary carries none.
const std::string &executableBuildId();

} // namespace hfuse

#endif // HFUSE_SUPPORT_BUILDID_H
