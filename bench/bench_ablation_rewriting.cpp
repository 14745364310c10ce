// Ablation — the Algorithm-1 engine against the textbook oracle:
//
//  * packed — cone-local slot remapping + fixed-width bitset monomials in
//             an open-addressed flat table with an occurrence index
//             (anf/packed.hpp, the engine);
//  * naive  — whole-polynomial rescan per gate (the textbook reading of
//             Algorithm 1, kept as the differential oracle).
//
// The design decisions under test: (1) the occurrence index makes each
// substitution O(occurrences x |gate ANF|) where the naive scan is
// superlinear in |F| — which is why the paper's Montgomery extractions
// (Table II) were so much costlier than Mastrovito at the same width; and
// (2) packing monomials into cache-friendly fixed-width words removes the
// per-monomial allocation and pointer-chasing at exactly the paper's
// measured hot path.
//
// Timings cover extraction only (extract_all_outputs), matching the
// paper's "runtime" definition; both engines' ANFs are asserted
// bit-identical before any number is reported.  Results also land in
// BENCH_rewriting.json (strategy x family x m -> seconds, peak_terms) for
// the CI perf-trend artifact; GFRE_BENCH_JSON overrides the path.
// bench_table1_mastrovito with GFRE_FULL=1 times the engine at the NIST
// widths, up to m=571.
#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "core/parallel_extract.hpp"
#include "gen/karatsuba.hpp"
#include "gen/mastrovito.hpp"
#include "gen/montgomery_gate.hpp"
#include "gen/shift_add.hpp"
#include "gf2poly/irreducible.hpp"
#include "util/error.hpp"

namespace {

using namespace gfre;

struct Family {
  const char* name;
  std::function<nl::Netlist(const gf2m::Field&)> generate;
};

/// Median-of-repeats extraction time: repeat until the total exceeds
/// ~100 ms (at least 3 runs, capped once an engine has burned ~2 s so the
/// full-scale naive runs stay bounded) so small widths aren't timer noise.
double time_extraction(const nl::Netlist& netlist, unsigned threads,
                       core::RewriteStrategy strategy,
                       core::ExtractionResult* out) {
  std::vector<double> samples;
  double total = 0.0;
  while (samples.empty() || (samples.size() < 3 && total < 2.0) ||
         (total < 0.1 && samples.size() < 25)) {
    Timer timer;
    auto result = core::extract_all_outputs(netlist, threads, strategy);
    samples.push_back(timer.seconds());
    total += samples.back();
    if (out != nullptr && samples.size() == 1) *out = std::move(result);
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation: packed engine vs naive-scan backward rewriting");

  std::vector<unsigned> widths{8, 16, 32, 64};
  if (full_scale_requested()) widths = {16, 32, 64, 96, 163};
  const auto threads = static_cast<unsigned>(configured_threads());

  const std::vector<Family> families{
      {"mastrovito",
       [](const gf2m::Field& f) { return gen::generate_mastrovito(f); }},
      {"montgomery",
       [](const gf2m::Field& f) { return gen::generate_montgomery(f); }},
      {"karatsuba",
       [](const gf2m::Field& f) { return gen::generate_karatsuba(f); }},
      {"shiftadd",
       [](const gf2m::Field& f) { return gen::generate_shift_add(f); }},
  };

  TextTable table(
      {"family", "m", "#eqns", "packed(s)", "naive(s)", "speedup"});
  bench::JsonReport report("rewriting");
  std::vector<double> speedups_m8_up;
  std::vector<double> montgomery_speedups;

  for (const Family& family : families) {
    for (unsigned m : widths) {
      const gf2m::Field field(gf2::has_paper_polynomial(m)
                                  ? gf2::paper_polynomial(m).p
                                  : gf2::default_irreducible(m));
      const auto netlist = family.generate(field);

      core::ExtractionResult packed_result, naive_result;
      const double packed_seconds = time_extraction(
          netlist, threads, core::RewriteStrategy::Packed, &packed_result);
      const double naive_seconds = time_extraction(
          netlist, threads, core::RewriteStrategy::NaiveScan, &naive_result);

      // The ablation is only meaningful if the engines agree bit-exactly.
      for (std::size_t i = 0; i < packed_result.anfs.size(); ++i) {
        GFRE_ASSERT(packed_result.anfs[i] == naive_result.anfs[i],
                    "engines disagree on " << family.name << " m=" << m
                                           << " bit " << i);
      }

      const double speedup = naive_seconds / packed_seconds;
      table.add_row({family.name, std::to_string(m),
                     fmt_thousands(netlist.num_equations()),
                     fmt_double(packed_seconds, 4),
                     fmt_double(naive_seconds, 4), fmt_double(speedup, 1)});
      if (m >= 8) speedups_m8_up.push_back(speedup);
      if (std::string(family.name) == "montgomery") {
        montgomery_speedups.push_back(speedup);
      }

      const struct {
        const char* name;
        double seconds;
        const core::ExtractionResult* result;
      } rows[] = {{"packed", packed_seconds, &packed_result},
                  {"naive", naive_seconds, &naive_result}};
      for (const auto& row : rows) {
        report.add_record()
            .add("strategy", row.name)
            .add("family", family.name)
            .add("m", m)
            .add("equations", netlist.num_equations())
            .add("threads", threads)
            .add("seconds", row.seconds)
            .add("peak_terms", row.result->total_peak_terms);
      }
      std::printf("  done %s m=%u\n", family.name, m);
      std::fflush(stdout);
    }
  }
  std::printf("\n%s\n", table.render("Rewriting-engine ablation").c_str());

  report.write(env_string("GFRE_BENCH_JSON", "BENCH_rewriting.json"));

  // Claim 1 (the paper's Table II pain point): the packed engine's edge
  // over the naive scan grows with m on flattened Montgomery netlists,
  // where intermediate expression blow-up makes the rescan superlinear.
  const bool montgomery_shape =
      montgomery_speedups.back() > 1.5 &&
      montgomery_speedups.back() > montgomery_speedups.front();
  std::printf("shape check: packed vs naive speedup on Montgomery grows "
              "with m and exceeds 1.5x at the top width: %s\n",
              montgomery_shape ? "PASS" : "FAIL");

  // Claim 2: the packed engine beats the naive scan by >= 1.5x on the
  // geometric mean across every family at m >= 8.
  double geo = 1.0;
  for (double s : speedups_m8_up) geo *= s;
  geo = std::pow(geo, 1.0 / static_cast<double>(speedups_m8_up.size()));
  const bool packed_shape = geo >= 1.5;
  std::printf("shape check: packed vs naive geomean speedup at m >= 8 is "
              "%.2fx (need >= 1.5x): %s\n",
              geo, packed_shape ? "PASS" : "FAIL");

  return (montgomery_shape && packed_shape) ? 0 : 1;
}
