// Minimal machine-readable bench-result writer.
//
// Benches emit a flat JSON document ({"benchmark": ..., "host": {...},
// "records": [...]}) so CI can upload the numbers as an artifact and the
// perf trajectory of the rewriting engine is tracked across PRs instead of
// living in console scrollback.  The host block says what measured them:
// logical cores, the SIMD level the CPU supports and the build type.  No
// external JSON dependency: records are flat key -> value maps of strings
// and numbers, which is all a trend dashboard needs.
#pragma once

#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "anf/simd.hpp"
#include "util/jsonl.hpp"

namespace gfre::bench {

/// One flat JSON object in the "records" array — the library's JSON-lines
/// record (util/jsonl.hpp), so escaping/formatting rules live in exactly
/// one place.
using JsonRecord = gfre::JsonLine;

/// The machine and build a bench ran on (GFRE_BENCH_BUILD_TYPE is set per
/// bench target by CMakeLists.txt).
inline JsonRecord host_record() {
  JsonRecord host;
  host.add("logical_cores", std::thread::hardware_concurrency())
      .add("simd_detected", anf::simd::to_string(anf::simd::detect_level()))
      .add("build_type", GFRE_BENCH_BUILD_TYPE);
  return host;
}

/// Collects records and writes
/// {"benchmark": name, "host": host_record(), "records": [...]}.
class JsonReport {
 public:
  explicit JsonReport(std::string benchmark)
      : benchmark_(std::move(benchmark)) {}

  JsonRecord& add_record() {
    records_.emplace_back();
    return records_.back();
  }

  /// Writes the document; returns false (with a note on stderr) on I/O
  /// failure so benches can keep running without result capture.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_json: cannot open '%s' for writing\n",
                   path.c_str());
      return false;
    }
    std::fprintf(f,
                 "{\n  \"benchmark\": \"%s\",\n  \"host\": %s,\n"
                 "  \"records\": [\n",
                 benchmark_.c_str(), host_record().render().c_str());
    for (std::size_t i = 0; i < records_.size(); ++i) {
      std::fprintf(f, "    %s%s\n", records_[i].render().c_str(),
                   i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %zu bench records to %s\n", records_.size(),
                path.c_str());
    return true;
  }

 private:
  std::string benchmark_;
  std::vector<JsonRecord> records_;
};

}  // namespace gfre::bench
