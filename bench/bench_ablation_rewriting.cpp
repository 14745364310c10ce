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
// A second, crypto-scale tier runs the packed engine on the NIST
// binary-field widths (m = 163..571, Mastrovito and Montgomery) twice: on
// the portable scalar kernel table and on the detected vector table.  Same
// engine code, same results by contract, only the kernel table differs.
// The shape gate is the condition for keeping a platform-selected path:
// the vector table beats the portable one (geomean > 1.0x on the tier).
//
// Timings cover extraction only (extract_all_outputs), matching the
// paper's "runtime" definition; both runs' ANFs are asserted
// bit-identical before any number is reported.  Results also land in
// BENCH_rewriting.json (strategy x family x m -> seconds, peak_terms, and
// for the crypto tier the SIMD level and peak RSS) for the CI perf-trend
// artifact; GFRE_BENCH_JSON overrides the path.
#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "anf/simd.hpp"
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
namespace simd = gfre::anf::simd;

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

  // ---- Crypto-scale tier: vector vs portable kernel table, packed engine ----
  //
  // NIST binary-field widths, single-threaded so the ratio measures kernel
  // throughput rather than scheduler behavior.  Scalar and SIMD runs
  // alternate back-to-back and each side keeps its minimum over the
  // repetitions — the ratio of minimums is far more stable than the ratio
  // of single runs on a shared CI box.  Peak RSS is reset before each
  // config's first run so the recorded figure covers that extraction alone.
  const simd::Level simd_level = simd::active_level();
  const int tier_reps =
      static_cast<int>(env_long("GFRE_LARGE_M_REPS", 3));
  const std::vector<unsigned> tier_widths{163, 233, 283, 409, 571};

  TextTable tier_table({"family", "m", "#eqns", "scalar(s)",
                        std::string(simd::to_string(simd_level)) + "(s)",
                        "speedup", "peak-rss"});
  std::vector<double> tier_speedups;

  const auto timed_run = [&](const nl::Netlist& netlist, simd::Level level,
                             core::ExtractionResult* out) {
    simd::set_level(level);
    Timer timer;
    auto result =
        core::extract_all_outputs(netlist, 1, core::RewriteStrategy::Packed);
    const double seconds = timer.seconds();
    if (out != nullptr) *out = std::move(result);
    return seconds;
  };

  for (const Family& family : families) {
    if (std::string(family.name) != "mastrovito" &&
        std::string(family.name) != "montgomery") {
      continue;  // the crypto tier tracks the paper's two headline families
    }
    for (unsigned m : tier_widths) {
      const gf2m::Field field(gf2::has_paper_polynomial(m)
                                  ? gf2::paper_polynomial(m).p
                                  : gf2::default_irreducible(m));
      const auto netlist = family.generate(field);

      core::ExtractionResult scalar_result, simd_result;
      double scalar_seconds = 1e300;
      double simd_seconds = 1e300;
      reset_peak_rss();
      std::uint64_t rss = 0;
      for (int rep = 0; rep < tier_reps; ++rep) {
        scalar_seconds = std::min(
            scalar_seconds,
            timed_run(netlist, simd::Level::Scalar,
                      rep == 0 ? &scalar_result : nullptr));
        simd_seconds = std::min(
            simd_seconds, timed_run(netlist, simd_level,
                                    rep == 0 ? &simd_result : nullptr));
        if (rep == 0) rss = peak_rss_bytes();
      }
      simd::set_level(simd_level);

      // The vectorization contract: the kernel level never changes results.
      GFRE_ASSERT(scalar_result.anfs == simd_result.anfs &&
                      scalar_result.total_peak_terms ==
                          simd_result.total_peak_terms,
                  "scalar and " << simd::to_string(simd_level)
                                << " kernels disagree on " << family.name
                                << " m=" << m);

      const double speedup = scalar_seconds / simd_seconds;
      tier_speedups.push_back(speedup);
      tier_table.add_row({family.name, std::to_string(m),
                          fmt_thousands(netlist.num_equations()),
                          fmt_double(scalar_seconds, 3),
                          fmt_double(simd_seconds, 3),
                          fmt_double(speedup, 2), format_bytes(rss)});

      const struct {
        const char* level;
        double seconds;
        const core::ExtractionResult* result;
      } tier_rows[] = {{"scalar", scalar_seconds, &scalar_result},
                       {simd::to_string(simd_level), simd_seconds,
                        &simd_result}};
      for (const auto& row : tier_rows) {
        report.add_record()
            .add("tier", "crypto")
            .add("strategy", "packed")
            .add("simd", row.level)
            .add("family", family.name)
            .add("m", m)
            .add("equations", netlist.num_equations())
            .add("threads", 1u)
            .add("seconds", row.seconds)
            .add("peak_terms", row.result->total_peak_terms)
            .add("peak_rss_bytes", rss);
      }
      std::printf("  done crypto tier %s m=%u (%.2fx)\n", family.name, m,
                  speedup);
      std::fflush(stdout);
    }
  }
  std::printf("\n%s\n",
              tier_table.render("Crypto-scale tier: SIMD vs scalar kernels")
                  .c_str());

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

  // Claim 3: the same engine runs faster on the detected vector kernel
  // table than on the portable one (geomean > 1.0x across the crypto
  // tier) — the reason the platform-selected tables are kept at all.  Only
  // meaningful when the host actually has a vector level — on a
  // scalar-only box the tier still runs (and still checks bit-identity)
  // but the ratio is scalar-vs-scalar noise, so the gate auto-passes.
  double tier_geo = 1.0;
  for (double s : tier_speedups) tier_geo *= s;
  tier_geo = std::pow(tier_geo, 1.0 / static_cast<double>(tier_speedups.size()));
  bool tier_shape = true;
  if (simd_level == simd::Level::Scalar) {
    std::printf("shape check: crypto tier SIMD gate skipped (no vector level "
                "on this host): PASS\n");
  } else {
    tier_shape = tier_geo > 1.0;
    std::printf("shape check: %s vs scalar geomean speedup on the crypto "
                "tier is %.3fx (need > 1.0x): %s\n",
                simd::to_string(simd_level), tier_geo,
                tier_shape ? "PASS" : "FAIL");
  }
  return (montgomery_shape && packed_shape && tier_shape) ? 0 : 1;
}
