// Word-level SIMD kernel layer for the packed ANF engine.
//
// The packed engine's inner loops are word operations over fixed-size
// monomial payloads: 16-byte control-tag probes of the flat table,
// equality of 1..13-word monomials, OR-merge (monomial product over an
// idempotent variable set) and popcount degree checks.  This
// header exposes them as leaf kernels behind a function-pointer table so
// one binary carries a portable scalar implementation plus AVX2 and
// AVX-512 variants (compiled via gcc/clang `target` attributes — no
// ISA-specific compile flags leak into other translation units) and picks
// the widest one the host CPU supports at runtime.
//
// Every variant is bit-identical by contract, and the packed engine is the
// same code at every level — only its kernel table changes — so results
// never depend on the selected level, and GFRE_SIMD=scalar can pin the
// portable table for differential testing without perturbing FlowReports.
//
// Level selection is deliberately *not* part of core::RewriteOptions /
// FlowOptions: it cannot change any result, so it must not change result
// cache keys either.  It is a process-global: the GFRE_SIMD environment
// variable (scalar|avx2|avx512) clamps the detected level at startup, and
// set_level() overrides it at runtime (benches and the differential test
// suite use this).  Engines snapshot the level at construction.
#pragma once

#include <cstddef>
#include <cstdint>

namespace gfre::anf::simd {

/// Instruction-set tiers, ordered.  A level picks only the kernel table the
/// packed engine runs on: Scalar is the portable table, Avx2/Avx512 the
/// vector ones.
enum class Level : int {
  Scalar = 0,
  Avx2 = 1,
  Avx512 = 2,
};

const char* to_string(Level level);

/// Widest level this binary + CPU can execute (CPUID-based, cached).
Level detect_level();

/// The level new ConeEngines will use: detect_level() clamped by the
/// GFRE_SIMD environment variable and any set_level() override.
Level active_level();

/// Runtime override (clamped to detect_level()).  Returns the level that
/// actually became active.  Thread-safe; engines already constructed are
/// unaffected.
Level set_level(Level level);

/// The word-level kernels.  `n` counts 64-bit words.  Tag groups are 16
/// bytes; match functions return a 16-bit mask (bit i set <=> byte i
/// matched).
struct Kernels {
  /// Bytes of tags[0..15] equal to `tag`.
  std::uint16_t (*match_tags16)(const std::uint8_t* tags, std::uint8_t tag);
  /// The fused probe the engine's hot loop uses — one call per group:
  /// bits [15:0] bytes equal to `tag`, bits [31:16] bytes equal to 0xFF
  /// (empty), bits [47:32] bytes with the high bit set (empty|tombstone).
  std::uint64_t (*probe_group)(const std::uint8_t* tags, std::uint8_t tag);
  /// a[0..n) == b[0..n).
  bool (*eq_words)(const std::uint64_t* a, const std::uint64_t* b,
                   std::size_t n);
  /// dst = a | b, wordwise (monomial product: idempotent slot-set union).
  void (*or_words)(std::uint64_t* dst, const std::uint64_t* a,
                   const std::uint64_t* b, std::size_t n);
  /// Total set bits of w[0..n) (bitset-monomial degree).
  std::size_t (*popcount_words)(const std::uint64_t* w, std::size_t n);
};

/// Kernel table for a level, or nullptr when that level is not compiled
/// into this binary or not executable on this CPU.  The Scalar table is
/// always available.
const Kernels* kernels_for_level(Level level);

}  // namespace gfre::anf::simd
