// Non-cryptographic 64-bit hashing helpers shared by the structure,
// graph, cache and config fingerprints. Every fingerprint that leaves a
// process (cache keys, warm-basis matching, bench config stamps) is
// built from these, so their outputs are pinned by tests: changing a
// constant or a shift here moves every stored hash.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

namespace wishbone::util {

/// splitmix64 finalizer: cheap, well-mixed 64-bit avalanche.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Chains `v` into the running hash `h` through the finalizer.
[[nodiscard]] constexpr std::uint64_t hash_combine(std::uint64_t h,
                                                   std::uint64_t v) {
  return splitmix64(h ^ splitmix64(v));
}

/// FNV-1a over the bytes of `s`.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t f = 0xcbf29ce484222325ull;
  for (char c : s) {
    f ^= static_cast<unsigned char>(c);
    f *= 0x100000001b3ull;
  }
  return f;
}

/// Boost-style order-sensitive fold of `v` into `h` (the config
/// fingerprints' mixing step; weaker than hash_combine, kept for their
/// stamped values).
[[nodiscard]] constexpr std::uint64_t combine(std::uint64_t h,
                                              std::uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

/// combine() over the bit pattern of `v`.
[[nodiscard]] constexpr std::uint64_t mix_double(std::uint64_t h, double v) {
  return combine(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace wishbone::util
