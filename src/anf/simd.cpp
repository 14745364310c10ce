#include "anf/simd.hpp"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <string>

// The x86 variants are compiled through gcc/clang `target` attributes so
// this translation unit (and the rest of the library) builds with plain
// baseline flags; only the attributed function bodies contain AVX
// instructions, and they are only ever called after a CPUID check.
#if (defined(__x86_64__) || defined(__amd64__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define GFRE_X86_KERNELS 1
#include <immintrin.h>
#else
#define GFRE_X86_KERNELS 0
#endif

namespace gfre::anf::simd {

const char* to_string(Level level) {
  switch (level) {
    case Level::Scalar: return "scalar";
    case Level::Avx2: return "avx2";
    case Level::Avx512: return "avx512";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Portable scalar kernels — the reference semantics every variant must match.
// ---------------------------------------------------------------------------

namespace {

std::uint16_t scalar_match_tags16(const std::uint8_t* tags, std::uint8_t tag) {
  std::uint16_t mask = 0;
  for (unsigned i = 0; i < 16; ++i) {
    mask = static_cast<std::uint16_t>(mask |
                                      (static_cast<std::uint16_t>(tags[i] == tag)
                                       << i));
  }
  return mask;
}

std::uint64_t scalar_probe_group(const std::uint8_t* tags, std::uint8_t tag) {
  std::uint64_t match = 0, empty = 0, free_ = 0;
  for (unsigned i = 0; i < 16; ++i) {
    match |= static_cast<std::uint64_t>(tags[i] == tag) << i;
    empty |= static_cast<std::uint64_t>(tags[i] == 0xFFu) << i;
    free_ |= static_cast<std::uint64_t>((tags[i] & 0x80u) != 0) << i;
  }
  return match | (empty << 16) | (free_ << 32);
}

bool scalar_eq_words(const std::uint64_t* a, const std::uint64_t* b,
                     std::size_t n) {
  std::uint64_t diff = 0;
  for (std::size_t i = 0; i < n; ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

void scalar_or_words(std::uint64_t* dst, const std::uint64_t* a,
                     const std::uint64_t* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] | b[i];
}

std::size_t scalar_popcount_words(const std::uint64_t* w, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += static_cast<std::size_t>(std::popcount(w[i]));
  }
  return total;
}

constexpr Kernels kScalarKernels{
    scalar_match_tags16, scalar_probe_group, scalar_eq_words,
    scalar_or_words, scalar_popcount_words,
};

#if GFRE_X86_KERNELS

// ---------------------------------------------------------------------------
// AVX2 tier (Haswell+): 128-bit tag probes, 256-bit word kernels, hardware
// popcount.
// ---------------------------------------------------------------------------

__attribute__((target("avx2")))
std::uint16_t avx2_match_tags16(const std::uint8_t* tags, std::uint8_t tag) {
  const __m128i group =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(tags));
  const __m128i eq = _mm_cmpeq_epi8(group, _mm_set1_epi8(static_cast<char>(tag)));
  return static_cast<std::uint16_t>(_mm_movemask_epi8(eq));
}

__attribute__((target("avx2")))
std::uint64_t avx2_probe_group(const std::uint8_t* tags, std::uint8_t tag) {
  const __m128i group =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(tags));
  const std::uint64_t match = static_cast<std::uint32_t>(_mm_movemask_epi8(
      _mm_cmpeq_epi8(group, _mm_set1_epi8(static_cast<char>(tag)))));
  const std::uint64_t empty = static_cast<std::uint32_t>(_mm_movemask_epi8(
      _mm_cmpeq_epi8(group, _mm_set1_epi8(static_cast<char>(0xFF)))));
  const std::uint64_t free_ =
      static_cast<std::uint32_t>(_mm_movemask_epi8(group));
  return match | (empty << 16) | (free_ << 32);
}

__attribute__((target("avx2")))
bool avx2_eq_words(const std::uint64_t* a, const std::uint64_t* b,
                   std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_or_si256(acc, _mm256_xor_si256(va, vb));
  }
  std::uint64_t tail = 0;
  for (; i < n; ++i) tail |= a[i] ^ b[i];
  return _mm256_testz_si256(acc, acc) != 0 && tail == 0;
}

__attribute__((target("avx2")))
void avx2_or_words(std::uint64_t* dst, const std::uint64_t* a,
                   const std::uint64_t* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_or_si256(va, vb));
  }
  for (; i < n; ++i) dst[i] = a[i] | b[i];
}

__attribute__((target("popcnt")))
std::size_t avx2_popcount_words(const std::uint64_t* w, std::size_t n) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += static_cast<std::uint64_t>(_mm_popcnt_u64(w[i]));
  }
  return static_cast<std::size_t>(total);
}

constexpr Kernels kAvx2Kernels{
    avx2_match_tags16, avx2_probe_group, avx2_eq_words,
    avx2_or_words, avx2_popcount_words,
};

// ---------------------------------------------------------------------------
// AVX-512 tier (F+BW+VL+DQ — the Skylake-SP baseline, no VPOPCNTDQ
// dependency): mask-register tag probes, 512-bit word kernels with masked
// tails.
// ---------------------------------------------------------------------------

__attribute__((target("avx512f,avx512bw,avx512vl,avx512dq")))
std::uint16_t avx512_match_tags16(const std::uint8_t* tags, std::uint8_t tag) {
  const __m128i group =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(tags));
  return static_cast<std::uint16_t>(
      _mm_cmpeq_epi8_mask(group, _mm_set1_epi8(static_cast<char>(tag))));
}

__attribute__((target("avx512f,avx512bw,avx512vl,avx512dq")))
std::uint64_t avx512_probe_group(const std::uint8_t* tags, std::uint8_t tag) {
  const __m128i group =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(tags));
  const std::uint64_t match = static_cast<std::uint16_t>(
      _mm_cmpeq_epi8_mask(group, _mm_set1_epi8(static_cast<char>(tag))));
  const std::uint64_t empty = static_cast<std::uint16_t>(
      _mm_cmpeq_epi8_mask(group, _mm_set1_epi8(static_cast<char>(0xFF))));
  const std::uint64_t free_ =
      static_cast<std::uint16_t>(_mm_movepi8_mask(group));
  return match | (empty << 16) | (free_ << 32);
}

__attribute__((target("avx512f,avx512bw,avx512vl,avx512dq")))
bool avx512_eq_words(const std::uint64_t* a, const std::uint64_t* b,
                     std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    if (_mm512_cmpneq_epi64_mask(va, vb) != 0) return false;
  }
  if (i < n) {
    const __mmask8 tail = static_cast<__mmask8>((1u << (n - i)) - 1u);
    const __m512i va = _mm512_maskz_loadu_epi64(tail, a + i);
    const __m512i vb = _mm512_maskz_loadu_epi64(tail, b + i);
    if (_mm512_cmpneq_epi64_mask(va, vb) != 0) return false;
  }
  return true;
}

__attribute__((target("avx512f,avx512bw,avx512vl,avx512dq")))
void avx512_or_words(std::uint64_t* dst, const std::uint64_t* a,
                     const std::uint64_t* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_si512(dst + i, _mm512_or_si512(_mm512_loadu_si512(a + i),
                                                 _mm512_loadu_si512(b + i)));
  }
  if (i < n) {
    const __mmask8 tail = static_cast<__mmask8>((1u << (n - i)) - 1u);
    const __m512i v = _mm512_or_si512(_mm512_maskz_loadu_epi64(tail, a + i),
                                      _mm512_maskz_loadu_epi64(tail, b + i));
    _mm512_mask_storeu_epi64(dst + i, tail, v);
  }
}

__attribute__((target("popcnt")))
std::size_t avx512_popcount_words(const std::uint64_t* w, std::size_t n) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += static_cast<std::uint64_t>(_mm_popcnt_u64(w[i]));
  }
  return static_cast<std::size_t>(total);
}

constexpr Kernels kAvx512Kernels{
    avx512_match_tags16, avx512_probe_group, avx512_eq_words,
    avx512_or_words, avx512_popcount_words,
};

#endif  // GFRE_X86_KERNELS

// ---------------------------------------------------------------------------
// Detection + level selection
// ---------------------------------------------------------------------------

Level detect_level_uncached() {
#if GFRE_X86_KERNELS
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("popcnt")) {
    return Level::Avx512;
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt")) {
    return Level::Avx2;
  }
#endif
  return Level::Scalar;
}

/// GFRE_SIMD: "scalar" | "avx2" | "avx512" (clamped to what runs here);
/// anything else (including unset) means "use the detected level".
Level env_clamped_level(Level detected) {
  const char* env = std::getenv("GFRE_SIMD");
  if (env == nullptr || *env == '\0') return detected;
  const std::string value(env);
  Level wanted = detected;
  if (value == "scalar") wanted = Level::Scalar;
  else if (value == "avx2") wanted = Level::Avx2;
  else if (value == "avx512") wanted = Level::Avx512;
  return wanted < detected ? wanted : detected;
}

std::atomic<int>& active_level_storage() {
  static std::atomic<int> level{
      static_cast<int>(env_clamped_level(detect_level_uncached()))};
  return level;
}

}  // namespace

Level detect_level() {
  static const Level detected = detect_level_uncached();
  return detected;
}

Level active_level() {
  return static_cast<Level>(
      active_level_storage().load(std::memory_order_relaxed));
}

Level set_level(Level level) {
  const Level clamped = level < detect_level() ? level : detect_level();
  active_level_storage().store(static_cast<int>(clamped),
                               std::memory_order_relaxed);
  return clamped;
}

const Kernels* kernels_for_level(Level level) {
  switch (level) {
    case Level::Scalar:
      return &kScalarKernels;
#if GFRE_X86_KERNELS
    case Level::Avx2:
      return detect_level() >= Level::Avx2 ? &kAvx2Kernels : nullptr;
    case Level::Avx512:
      return detect_level() >= Level::Avx512 ? &kAvx512Kernels : nullptr;
#else
    case Level::Avx2:
    case Level::Avx512:
      return nullptr;
#endif
  }
  return nullptr;
}

}  // namespace gfre::anf::simd
