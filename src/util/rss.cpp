#include "util/rss.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace gfre {

namespace {

// Parse a "Vm...:   1234 kB" line from /proc/self/status.
std::uint64_t read_status_kb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  if (!in) return 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      std::istringstream iss(line.substr(key.size()));
      std::uint64_t kb = 0;
      iss >> kb;
      return kb;
    }
  }
  return 0;
}

}  // namespace

std::uint64_t current_rss_bytes() { return read_status_kb("VmRSS:") * 1024; }

std::uint64_t peak_rss_bytes() { return read_status_kb("VmHWM:") * 1024; }

std::string format_bytes(std::uint64_t bytes) {
  char buf[64];
  const double b = static_cast<double>(bytes);
  if (bytes >= (1ull << 30)) {
    std::snprintf(buf, sizeof buf, "%.1f GB", b / double(1ull << 30));
  } else if (bytes >= (1ull << 20)) {
    std::snprintf(buf, sizeof buf, "%.0f MB", b / double(1ull << 20));
  } else if (bytes >= (1ull << 10)) {
    std::snprintf(buf, sizeof buf, "%.0f KB", b / double(1ull << 10));
  } else {
    std::snprintf(buf, sizeof buf, "%llu B",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

}  // namespace gfre
