// Benchmark/example configuration shared across harness binaries.
//
// The paper's experiments ran 16 threads on a 12-core Xeon with 32 GB; this
// container is much smaller, so benches default to scaled bit-widths and
// hardware-concurrency threads, and GFRE_FULL=1 selects the paper's full
// problem sizes.  parse_u64 is the one strict parser for every numeric
// manifest key and CLI flag.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace gfre {

/// True when the environment requests the paper's full problem sizes
/// (GFRE_FULL=1).
bool full_scale_requested();

/// Thread count for parallel extraction: GFRE_THREADS if set, else hardware
/// concurrency.
std::size_t configured_threads();

/// Integer environment variable with default.
long env_long(const char* name, long fallback);

/// String environment variable with default.
std::string env_string(const char* name, const std::string& fallback);

/// Parses a whole non-negative decimal integer in [lo, hi].  Rejects empty
/// input, any sign (so "-1" never wraps to 2^64-1), trailing characters
/// ("1e6", "5s", "12abc"), values beyond 2^64-1 and values outside the
/// bounds, throwing InvalidArgument with `what` (the key or flag name) in
/// the message.
std::uint64_t parse_u64(std::string_view text, std::string_view what,
                        std::uint64_t lo = 0, std::uint64_t hi = UINT64_MAX);

}  // namespace gfre
