// Word-level kernels for the packed ANF engine.
//
// The packed engine's inner loops are word operations over fixed-size
// monomial payloads: 16-byte control-tag probes of the flat table,
// equality of 1..13-word monomials, OR-merge (monomial product over an
// idempotent variable set) and popcount degree checks.  This header holds
// them as portable inline functions, so the engine (anf/packed.cpp) and the
// unit tests call the same code and the compiler can inline each kernel at
// its call site.  There is deliberately one implementation: ISA-specific
// variants give bit-identical results, and per-ISA tables measured no
// faster end to end (docs/ARCHITECTURE.md).
//
// Level, detect_level() and active_level() describe the host for bench
// host blocks.  No result and no cache key depends on them.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace gfre::anf::simd {

/// Instruction-set tiers the host CPU can report, ordered.
enum class Level : int {
  Scalar = 0,
  Avx2 = 1,
  Avx512 = 2,
};

const char* to_string(Level level);

/// Widest tier this CPU supports (CPUID-based, cached).
Level detect_level();

/// The tier the packed engine runs: always Scalar, the portable kernels
/// below.
Level active_level();

// The kernels.  Tag groups are 16 bytes; `n` counts 64-bit words.  The tag
// probes are SWAR: each half-group is one 64-bit word, and a byte test
// leaves 0x80 in the matching bytes, which one multiply gathers into a
// bit mask.

namespace detail {

inline constexpr std::uint64_t kLow7 = 0x7F7F7F7F7F7F7F7Full;
inline constexpr std::uint64_t kHigh = 0x8080808080808080ull;

/// Tags p[0..7] as one word, p[i] in bits [8i, 8i + 8) on every host.
/// Written out in full so compilers merge it into a single load (they do
/// not for the equivalent loop).
inline std::uint64_t load_tags8(const std::uint8_t* p) {
  return std::uint64_t{p[0]} | std::uint64_t{p[1]} << 8 |
         std::uint64_t{p[2]} << 16 | std::uint64_t{p[3]} << 24 |
         std::uint64_t{p[4]} << 32 | std::uint64_t{p[5]} << 40 |
         std::uint64_t{p[6]} << 48 | std::uint64_t{p[7]} << 56;
}

/// 0x80 in each zero byte of x, 0x00 in every other byte.  No carry
/// crosses a byte, so the answer is exact per byte.
inline std::uint64_t zero_bytes(std::uint64_t x) {
  return ~(((x & kLow7) + kLow7) | x) & kHigh;
}

/// Bit i = the high bit of byte i.  The multiply moves byte i's high bit
/// (at bit 8i after the shift) to bit 56 + i, and no two partial products
/// overlap, so nothing carries.
inline std::uint64_t byte_msbs(std::uint64_t x) {
  return (((x & kHigh) >> 7) * 0x0102040810204080ull) >> 56;
}

}  // namespace detail

/// Bytes of tags[0..15] equal to `tag` (bit i set <=> byte i matched).
inline std::uint16_t match_tags16(const std::uint8_t* tags, std::uint8_t tag) {
  const std::uint64_t splat = tag * 0x0101010101010101ull;
  const std::uint64_t lo =
      detail::byte_msbs(detail::zero_bytes(detail::load_tags8(tags) ^ splat));
  const std::uint64_t hi = detail::byte_msbs(
      detail::zero_bytes(detail::load_tags8(tags + 8) ^ splat));
  return static_cast<std::uint16_t>(lo | (hi << 8));
}

/// The fused probe the engine's hot loop uses — one call per group:
/// bits [15:0] bytes equal to `tag`, bits [31:16] bytes equal to 0xFF
/// (empty), bits [47:32] bytes with the high bit set (empty|tombstone).
inline std::uint64_t probe_group(const std::uint8_t* tags, std::uint8_t tag) {
  const std::uint64_t splat = tag * 0x0101010101010101ull;
  std::uint64_t match = 0, empty = 0, free_ = 0;
  for (unsigned half = 0; half < 2; ++half) {
    const std::uint64_t w = detail::load_tags8(tags + 8 * half);
    const unsigned shift = 8 * half;
    match |= detail::byte_msbs(detail::zero_bytes(w ^ splat)) << shift;
    empty |= detail::byte_msbs(detail::zero_bytes(~w)) << shift;
    free_ |= detail::byte_msbs(w) << shift;
  }
  return match | (empty << 16) | (free_ << 32);
}

/// a[0..n) == b[0..n).
inline bool eq_words(const std::uint64_t* a, const std::uint64_t* b,
                     std::size_t n) {
  std::uint64_t diff = 0;
  for (std::size_t i = 0; i < n; ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

/// dst = a | b, wordwise (monomial product: idempotent slot-set union).
inline void or_words(std::uint64_t* dst, const std::uint64_t* a,
                     const std::uint64_t* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] | b[i];
}

/// Total set bits of w[0..n) (bitset-monomial degree).
inline std::size_t popcount_words(const std::uint64_t* w, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += static_cast<std::size_t>(std::popcount(w[i]));
  }
  return total;
}

}  // namespace gfre::anf::simd
