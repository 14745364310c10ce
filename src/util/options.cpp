#include "util/options.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <thread>

#include "util/error.hpp"

namespace gfre {

bool full_scale_requested() {
  const char* v = std::getenv("GFRE_FULL");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

std::size_t configured_threads() {
  const long n = env_long("GFRE_THREADS", 0);
  if (n > 0) return static_cast<std::size_t>(n);
  return std::max(1u, std::thread::hardware_concurrency());
}

long env_long(const char* name, long fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  if (end == v) return fallback;
  return parsed;
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::string(v);
}

std::uint64_t parse_u64(std::string_view text, std::string_view what,
                        std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t value = 0;
  // from_chars takes no leading whitespace and, for an unsigned type, no
  // sign at all.
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec == std::errc::result_out_of_range) {
    throw InvalidArgument(std::string(what) + " value '" + std::string(text) +
                          "' is out of range (max 18446744073709551615)");
  }
  if (text.empty() || ec != std::errc{} || end != text.data() + text.size()) {
    throw InvalidArgument(std::string(what) +
                          " wants a non-negative integer, got '" +
                          std::string(text) + "'");
  }
  if (value < lo || value > hi) {
    throw InvalidArgument(std::string(what) + " wants " + std::to_string(lo) +
                          ".." + std::to_string(hi) + ", got '" +
                          std::string(text) + "'");
  }
  return value;
}

}  // namespace gfre
