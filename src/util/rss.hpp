// Process memory metering.
//
// The paper reports peak memory per extraction (Tables I-IV).  On Linux we
// read VmRSS / VmHWM from /proc/self/status; on other platforms the calls
// return 0 and the harness falls back to the engine's internal live-monomial
// high-water estimate.
#pragma once

#include <cstdint>
#include <string>

namespace gfre {

/// Current resident set size in bytes (0 if unavailable).
std::uint64_t current_rss_bytes();

/// Peak resident set size (high-water mark) in bytes (0 if unavailable).
std::uint64_t peak_rss_bytes();

/// Render a byte count the way the paper's tables do ("37 MB", "4.5 GB").
std::string format_bytes(std::uint64_t bytes);

}  // namespace gfre
