#include "anf/simd.hpp"

namespace gfre::anf::simd {

const char* to_string(Level level) {
  switch (level) {
    case Level::Scalar: return "scalar";
    case Level::Avx2: return "avx2";
    case Level::Avx512: return "avx512";
  }
  return "?";
}

namespace {

Level detect_level_uncached() {
#if (defined(__x86_64__) || defined(__amd64__)) && \
    (defined(__GNUC__) || defined(__clang__))
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

}  // namespace

Level detect_level() {
  static const Level detected = detect_level_uncached();
  return detected;
}

Level active_level() { return Level::Scalar; }

}  // namespace gfre::anf::simd
