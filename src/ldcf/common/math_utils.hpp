// Small numeric helpers used across the modules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace ldcf {

/// ceil(log2(x)) for x >= 1. ceil_log2(1) == 0.
[[nodiscard]] std::uint32_t ceil_log2(std::uint64_t x);

/// floor(log2(x)) for x >= 1.
[[nodiscard]] std::uint32_t floor_log2(std::uint64_t x);

/// True iff x is a power of two (x >= 1).
[[nodiscard]] constexpr bool is_power_of_two(std::uint64_t x) noexcept {
  return x != 0 && (x & (x - 1)) == 0;
}

/// Find a root of f in [lo, hi] by bisection; f(lo) and f(hi) must bracket
/// the root (opposite signs). Tolerance is on the argument.
[[nodiscard]] double bisect(const std::function<double(double)>& f, double lo,
                            double hi, double tol = 1e-12,
                            int max_iter = 200);

/// FNV-1a (64-bit) offset basis: the hash of the empty input.
inline constexpr std::uint64_t kFnv1aOffset = 14695981039346656037ull;

/// FNV-1a over a byte range, continuing from `seed`: the one hash behind
/// the topology fingerprint and every artifact-cache key.
[[nodiscard]] inline std::uint64_t fnv1a(const void* data, std::size_t size,
                                         std::uint64_t seed = kFnv1aOffset) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Fold one 64-bit word into an FNV-1a state (byte-wise, little-endian).
[[nodiscard]] inline std::uint64_t fnv1a_mix(std::uint64_t state,
                                             std::uint64_t word) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<unsigned char>(word >> (8 * i));
  }
  return fnv1a(bytes, sizeof(bytes), state);
}

}  // namespace ldcf
