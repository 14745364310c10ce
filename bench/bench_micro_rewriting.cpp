// google-benchmark micro suite for the extraction engine itself:
// single-bit backward rewriting, whole-multiplier extraction, Algorithm 2,
// reduction-matrix recovery, and the synthesis passes that prepare
// Table III inputs.
#include <benchmark/benchmark.h>

#include <map>

#include "core/flow.hpp"
#include "core/parallel_extract.hpp"
#include "core/poly_extract.hpp"
#include "core/redmatrix.hpp"
#include "gen/mastrovito.hpp"
#include "gen/montgomery_gate.hpp"
#include "gf2m/field.hpp"
#include "gf2poly/catalog.hpp"
#include "gf2poly/irreducible.hpp"
#include "opt/passes.hpp"

namespace {

using gfre::gf2m::Field;

/// The paper's polynomial where its catalog has one (it has none for some
/// of the widths below, m = 16 among them), else the default irreducible.
Field bench_field(unsigned m) {
  return Field(gfre::gf2::has_paper_polynomial(m)
                   ? gfre::gf2::paper_polynomial(m).p
                   : gfre::gf2::default_irreducible(m));
}

const gfre::nl::Netlist& mastrovito_netlist(unsigned m) {
  static std::map<unsigned, gfre::nl::Netlist> cache;
  auto it = cache.find(m);
  if (it == cache.end()) {
    const Field field = bench_field(m);
    it = cache.emplace(m, gfre::gen::generate_mastrovito(field)).first;
  }
  return it->second;
}

const gfre::nl::Netlist& montgomery_netlist(unsigned m) {
  static std::map<unsigned, gfre::nl::Netlist> cache;
  auto it = cache.find(m);
  if (it == cache.end()) {
    const Field field = bench_field(m);
    it = cache.emplace(m, gfre::gen::generate_montgomery(field)).first;
  }
  return it->second;
}

// Single-bit backward rewriting.  "SingleBit" (no suffix) is the packed
// engine; the Naive variant keeps the textbook oracle measurable at micro
// scale.
void BM_RewriteSingleBit(benchmark::State& state) {
  const unsigned m = static_cast<unsigned>(state.range(0));
  const auto& netlist = mastrovito_netlist(m);
  const auto z_mid = *netlist.find_var("z" + std::to_string(m / 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gfre::core::extract_output_anf(netlist, z_mid));
  }
}
BENCHMARK(BM_RewriteSingleBit)->Arg(16)->Arg(64)->Arg(96)->Unit(benchmark::kMicrosecond);

void BM_RewriteSingleBitNaive(benchmark::State& state) {
  const unsigned m = static_cast<unsigned>(state.range(0));
  const auto& netlist = mastrovito_netlist(m);
  const auto z_mid = *netlist.find_var("z" + std::to_string(m / 2));
  gfre::core::RewriteOptions options;
  options.strategy = gfre::core::RewriteStrategy::NaiveScan;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gfre::core::extract_output_anf(netlist, z_mid, options));
  }
}
BENCHMARK(BM_RewriteSingleBitNaive)->Arg(16)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_ExtractAllBits(benchmark::State& state) {
  const unsigned m = static_cast<unsigned>(state.range(0));
  const auto& netlist = mastrovito_netlist(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gfre::core::extract_all_outputs(netlist, 2));
  }
}
BENCHMARK(BM_ExtractAllBits)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_ExtractAllBitsMontgomery(benchmark::State& state) {
  const unsigned m = static_cast<unsigned>(state.range(0));
  const auto& netlist = montgomery_netlist(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gfre::core::extract_all_outputs(netlist, 2));
  }
}
BENCHMARK(BM_ExtractAllBitsMontgomery)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_Algorithm2Recovery(benchmark::State& state) {
  const unsigned m = static_cast<unsigned>(state.range(0));
  const auto& netlist = mastrovito_netlist(m);
  const auto ports = gfre::nl::multiplier_ports(netlist);
  const auto extraction = gfre::core::extract_all_outputs(netlist, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gfre::core::recover_irreducible(extraction.anfs, ports));
  }
}
BENCHMARK(BM_Algorithm2Recovery)->Arg(64)->Arg(96)->Unit(benchmark::kMicrosecond);

void BM_ReductionMatrixRecovery(benchmark::State& state) {
  const unsigned m = static_cast<unsigned>(state.range(0));
  const auto& netlist = mastrovito_netlist(m);
  const auto ports = gfre::nl::multiplier_ports(netlist);
  const auto extraction = gfre::core::extract_all_outputs(netlist, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gfre::core::recover_reduction_matrix(extraction.anfs, ports));
  }
}
BENCHMARK(BM_ReductionMatrixRecovery)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_EndToEndFlow(benchmark::State& state) {
  const unsigned m = static_cast<unsigned>(state.range(0));
  const auto& netlist = mastrovito_netlist(m);
  gfre::core::FlowOptions options;
  options.threads = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gfre::core::reverse_engineer(netlist, options));
  }
}
BENCHMARK(BM_EndToEndFlow)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_SynthesizePipeline(benchmark::State& state) {
  const unsigned m = static_cast<unsigned>(state.range(0));
  const auto& netlist = mastrovito_netlist(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gfre::opt::synthesize(netlist));
  }
}
BENCHMARK(BM_SynthesizePipeline)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_GenerateMastrovito(benchmark::State& state) {
  const unsigned m = static_cast<unsigned>(state.range(0));
  const Field field(gfre::gf2::paper_polynomial(m).p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gfre::gen::generate_mastrovito(field));
  }
}
BENCHMARK(BM_GenerateMastrovito)->Arg(64)->Arg(163)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
