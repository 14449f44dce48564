//===-- support/BuildId.cpp - The executable's GNU build ID ---------------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/BuildId.h"

#include <algorithm>
#include <cstring>
#include <elf.h>
#include <link.h>

using namespace hfuse;

namespace {

/// Scans the PT_NOTE segments of the first object dl_iterate_phdr
/// reports, which is the main program, for its NT_GNU_BUILD_ID note.
int findBuildId(struct dl_phdr_info *Info, size_t, void *Data) {
  std::string &Out = *static_cast<std::string *>(Data);
  // Note fields are 4-byte aligned in both ELF classes.
  auto Align4 = [](size_t N) { return (N + 3) & ~size_t(3); };
  for (ElfW(Half) I = 0; I < Info->dlpi_phnum; ++I) {
    const ElfW(Phdr) &Ph = Info->dlpi_phdr[I];
    if (Ph.p_type != PT_NOTE)
      continue;
    const auto *Seg =
        reinterpret_cast<const unsigned char *>(Info->dlpi_addr + Ph.p_vaddr);
    const size_t Size = Ph.p_memsz;
    size_t Off = 0;
    while (Size - Off >= sizeof(ElfW(Nhdr))) {
      ElfW(Nhdr) N;
      std::memcpy(&N, Seg + Off, sizeof(N));
      const size_t NameOff = Off + sizeof(N);
      const size_t NameLen = Align4(N.n_namesz);
      if (NameLen > Size - NameOff || N.n_descsz > Size - NameOff - NameLen)
        break;
      const size_t DescOff = NameOff + NameLen;
      if (N.n_type == NT_GNU_BUILD_ID && N.n_namesz == 4 &&
          std::memcmp(Seg + NameOff, "GNU", 4) == 0) {
        static const char Hex[] = "0123456789abcdef";
        for (size_t B = 0; B < N.n_descsz; ++B) {
          Out += Hex[Seg[DescOff + B] >> 4];
          Out += Hex[Seg[DescOff + B] & 15];
        }
        return 1;
      }
      Off = DescOff + std::min(Align4(N.n_descsz), Size - DescOff);
    }
  }
  return 1; // only the main program's ID counts
}

} // namespace

const std::string &hfuse::executableBuildId() {
  static const std::string Id = [] {
    std::string S;
    dl_iterate_phdr(findBuildId, &S);
    return S;
  }();
  return Id;
}
