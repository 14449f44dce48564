//===-- support/Hashing.h - Stable content hashing --------------*- C++ -*-===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// FNV-1a 64-bit hashing for content keys and record checksums. Unlike
/// std::hash, the result is specified byte-for-byte, so values written
/// into on-disk records by one process validate in another (and across
/// library/compiler versions). Not cryptographic — it guards against
/// torn writes and bit rot, not adversaries.
///
//===----------------------------------------------------------------------===//

#ifndef HFUSE_SUPPORT_HASHING_H
#define HFUSE_SUPPORT_HASHING_H

#include <cstdint>
#include <cstring>
#include <string_view>

namespace hfuse {

/// Streaming FNV-1a 64. Feed bytes in any chunking; the digest depends
/// only on the byte sequence.
class Fnv1a64 {
public:
  static constexpr uint64_t OffsetBasis = 0xcbf29ce484222325ull;
  static constexpr uint64_t Prime = 0x100000001b3ull;

  Fnv1a64 &bytes(const void *Data, size_t Len) {
    const auto *P = static_cast<const unsigned char *>(Data);
    for (size_t I = 0; I < Len; ++I) {
      H ^= P[I];
      H *= Prime;
    }
    return *this;
  }
  Fnv1a64 &str(std::string_view S) { return bytes(S.data(), S.size()); }
  /// The low \p Width bytes of \p V, little-endian, so the digest does
  /// not depend on the host's byte order.
  Fnv1a64 &le(uint64_t V, unsigned Width) {
    for (unsigned I = 0; I < Width; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= Prime;
    }
    return *this;
  }

  uint64_t digest() const { return H; }

private:
  uint64_t H = OffsetBasis;
};

/// One-shot convenience.
inline uint64_t fnv1a64(std::string_view S) {
  return Fnv1a64().str(S).digest();
}

} // namespace hfuse

#endif // HFUSE_SUPPORT_HASHING_H
