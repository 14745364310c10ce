// Shared infrastructure for the paper-table benchmark harnesses.
//
// Each bench binary regenerates one table or figure of the paper.  The
// container running this reproduction is much smaller than the paper's
// 12-core/32 GB Xeon, so every harness has two modes:
//   * default     — scaled bit-widths that finish in seconds,
//   * GFRE_FULL=1 — the paper's full problem sizes.
// Thread count defaults to hardware concurrency (GFRE_THREADS overrides);
// the paper used 16 threads.
//
// Columns mirror the paper: bit-width, P(x), #eqns, runtime, memory.  Where
// the paper reports a number for the same configuration we print it next to
// ours — the claim being reproduced is the *shape* (who is slower, where
// memory blows up), not absolute seconds on different silicon.
#pragma once

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "gf2m/field.hpp"
#include "gf2poly/catalog.hpp"
#include "netlist/netlist.hpp"
#include "util/options.hpp"
#include "util/rss.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace gfre::bench {

struct PaperReference {
  double runtime_seconds;
  const char* memory;
};

/// One row of a paper-style extraction table.
struct Row {
  unsigned m;
  std::string p;
  std::size_t equations;
  double gen_seconds;
  /// Algorithm 1 alone (report.extraction.wall_seconds): the runtime the
  /// paper's tables report.
  double extract_seconds;
  /// The whole flow as run (report.total_seconds): extraction plus
  /// Algorithm 2 and the reduction-matrix analysis.
  double flow_seconds;
  std::string memory;
  bool success;
  std::optional<PaperReference> paper;
};

inline void print_header(const std::string& what) {
  std::printf("=== %s ===\n", what.c_str());
  std::printf("threads: %zu (paper: 16 on a 12-core Xeon E5-2420v2)\n",
              configured_threads());
  std::printf("scale:   %s (set GFRE_FULL=1 for the paper's full sizes)\n\n",
              full_scale_requested() ? "FULL (paper sizes)" : "scaled");
}

inline void print_rows(const std::vector<Row>& rows,
                       const std::string& title) {
  TextTable table({"m", "P(x)", "#eqns", "gen(s)", "extract(s)", "flow(s)",
                   "mem", "paper extract(s)", "paper mem", "P(x) recovered"});
  for (const Row& row : rows) {
    table.add_row({
        std::to_string(row.m),
        row.p,
        fmt_thousands(row.equations),
        fmt_double(row.gen_seconds, 2),
        fmt_double(row.extract_seconds, 2),
        fmt_double(row.flow_seconds, 2),
        row.memory,
        row.paper ? fmt_double(row.paper->runtime_seconds, 1) : "-",
        row.paper ? row.paper->memory : "-",
        row.success ? "yes" : "NO",
    });
  }
  std::printf("%s\n", table.render(title).c_str());
}

/// Runs the reverse-engineering flow on a netlist and fills a table row.
/// Golden verification is off, so `flow_seconds` is extraction plus
/// Algorithm 2 and the reduction-matrix analysis; success means the
/// recovered P(x) is the field's.
inline Row run_flow_row(const nl::Netlist& netlist, const gf2m::Field& field,
                        double gen_seconds,
                        std::optional<PaperReference> paper = std::nullopt) {
  core::FlowOptions options;
  options.threads = static_cast<unsigned>(configured_threads());
  options.verify_with_golden = false;
  const auto report = core::reverse_engineer(netlist, options);

  Row row;
  row.m = field.m();
  row.p = field.modulus().to_paper_string();
  row.equations = report.equations;
  row.gen_seconds = gen_seconds;
  row.extract_seconds = report.extraction.wall_seconds;
  row.flow_seconds = report.total_seconds;
  row.memory = format_bytes(report.memory_bytes());
  row.success = report.success && report.recovery.p == field.modulus();
  row.paper = paper;
  return row;
}

}  // namespace gfre::bench
