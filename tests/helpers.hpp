// Shared test utilities: random netlist generation and semantic-equality
// checks used across the I/O, optimization, extraction and batch suites.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/flow.hpp"
#include "core/parallel_extract.hpp"
#include "netlist/cell.hpp"
#include "netlist/netlist.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"
#include "util/rss.hpp"
#include "util/timer.hpp"

namespace gfre::test {

/// Semantic FlowReport equality: every deterministic field must match bit
/// for bit; wall-clock and RSS fields are inherently run-dependent and
/// excluded.  The batch/scheduler differential suites lean on this to
/// prove pooled execution reports exactly what standalone
/// core::reverse_engineer reports.
inline void expect_reports_equal(const core::FlowReport& got,
                                 const core::FlowReport& want,
                                 const std::string& label) {
  EXPECT_EQ(got.m, want.m) << label;
  EXPECT_EQ(got.equations, want.equations) << label;
  EXPECT_EQ(got.success, want.success) << label;
  EXPECT_EQ(got.algorithm2_p, want.algorithm2_p) << label;
  EXPECT_EQ(got.recovery.p, want.recovery.p) << label;
  EXPECT_EQ(got.recovery.p_is_irreducible, want.recovery.p_is_irreducible)
      << label;
  EXPECT_EQ(got.recovery.circuit_class, want.recovery.circuit_class) << label;
  EXPECT_EQ(got.recovery.rows, want.recovery.rows) << label;
  EXPECT_EQ(got.recovery.rows_consistent, want.recovery.rows_consistent)
      << label;
  EXPECT_EQ(got.recovery.diagnosis, want.recovery.diagnosis) << label;
  EXPECT_EQ(got.output_permutation, want.output_permutation) << label;
  EXPECT_EQ(got.verification.equivalent, want.verification.equivalent)
      << label;
  EXPECT_EQ(got.verification.mismatch_bit, want.verification.mismatch_bit)
      << label;
  EXPECT_EQ(got.verification.detail, want.verification.detail) << label;
  ASSERT_EQ(got.extraction.per_bit.size(), want.extraction.per_bit.size())
      << label;
  for (std::size_t i = 0; i < got.extraction.per_bit.size(); ++i) {
    const auto& g = got.extraction.per_bit[i];
    const auto& w = want.extraction.per_bit[i];
    EXPECT_EQ(g.cone_gates, w.cone_gates) << label << " bit " << i;
    EXPECT_EQ(g.substitutions, w.substitutions) << label << " bit " << i;
    EXPECT_EQ(g.cancellations, w.cancellations) << label << " bit " << i;
    EXPECT_EQ(g.peak_terms, w.peak_terms) << label << " bit " << i;
    EXPECT_EQ(g.final_terms, w.final_terms) << label << " bit " << i;
  }
}

/// The flow as a plain sequential composition of its phases on the
/// caller's thread — port resolution, extraction, analysis — with no
/// scheduler involved.  The differential suites use it as the standalone
/// ground truth that core::reverse_engineer and the batch engine (both
/// scheduler submissions) must reproduce.
inline core::FlowReport sequential_flow(const nl::Netlist& netlist,
                                        const core::FlowOptions& options) {
  Timer total;
  core::FlowReport report;
  const auto ports = core::resolve_flow_ports(netlist, options, &report);
  if (ports.has_value()) {
    try {
      report = core::analyze_extraction(
          netlist, *ports,
          core::extract_outputs(netlist, ports->z.bits, 1, options.strategy,
                                options.max_terms),
          options);
    } catch (const Error& e) {
      report = core::extraction_failure_report(netlist, *ports, e.what());
    }
    report.rss_peak_bytes = peak_rss_bytes();
    report.rss_after_bytes = current_rss_bytes();
  }
  report.total_seconds = total.seconds();
  return report;
}

/// Builds a random combinational DAG over `num_inputs` inputs with
/// `num_gates` gates drawn from the full cell library, with every declared
/// output being the last few gates (so nothing is trivially dead).
inline nl::Netlist random_netlist(Prng& rng, unsigned num_inputs,
                                  unsigned num_gates, unsigned num_outputs) {
  nl::Netlist netlist("random");
  std::vector<nl::Var> pool;
  for (unsigned i = 0; i < num_inputs; ++i) {
    pool.push_back(netlist.add_input("i" + std::to_string(i)));
  }
  const std::vector<nl::CellType> kinds = {
      nl::CellType::And,   nl::CellType::Or,    nl::CellType::Xor,
      nl::CellType::Xnor,  nl::CellType::Nand,  nl::CellType::Nor,
      nl::CellType::Inv,   nl::CellType::Buf,   nl::CellType::Mux,
      nl::CellType::Aoi21, nl::CellType::Oai21, nl::CellType::Aoi22,
      nl::CellType::Oai22, nl::CellType::Maj3,
  };
  for (unsigned g = 0; g < num_gates; ++g) {
    const nl::CellType type = kinds[rng.next_below(kinds.size())];
    std::size_t arity = 0;
    for (std::size_t n = 0; n <= 4; ++n) {
      if (nl::arity_ok(type, n)) {
        arity = n;
        if (rng.next_bool()) break;  // sometimes take a bigger arity
      }
    }
    std::vector<nl::Var> inputs;
    for (std::size_t i = 0; i < arity; ++i) {
      inputs.push_back(pool[rng.next_below(pool.size())]);
    }
    pool.push_back(netlist.add_gate(type, std::move(inputs)));
  }
  for (unsigned o = 0; o < num_outputs; ++o) {
    const nl::Var v = pool[pool.size() - 1 - o];
    netlist.mark_output(v);
  }
  return netlist;
}

/// Rebuilds `netlist` with output *names* permuted: the net that was
/// <z_base>_i is renamed to <z_base>_{perm[i]} (bus bit scrambling).
/// Because the flow finds output bits by name, this scrambles the z word's
/// declared bit order while leaving the logic untouched.
inline nl::Netlist scramble_outputs(const nl::Netlist& netlist,
                                    const std::vector<unsigned>& perm,
                                    const std::string& z_base = "z") {
  nl::Netlist out(netlist.name() + "_scrambled");
  std::vector<nl::Var> map(netlist.num_vars());
  for (nl::Var v : netlist.inputs()) {
    map[v] = out.add_input(netlist.var_name(v));
  }
  // Output nets get their permuted names; everything else keeps its own.
  std::vector<std::string> rename(netlist.num_vars());
  for (unsigned i = 0; i < perm.size(); ++i) {
    rename[netlist.outputs()[i]] = z_base + std::to_string(perm[i]);
    out.reserve_name(rename[netlist.outputs()[i]]);
  }
  for (std::size_t g : netlist.topological_order()) {
    const nl::Gate& gate = netlist.gate(g);
    std::vector<nl::Var> inputs;
    for (nl::Var in : gate.inputs) inputs.push_back(map[in]);
    map[gate.output] =
        out.add_gate(gate.type, std::move(inputs), rename[gate.output]);
  }
  // Outputs marked in *name index* order, i.e. declared order is the
  // scrambled order.
  for (unsigned i = 0; i < perm.size(); ++i) {
    out.mark_output(*out.find_var(z_base + std::to_string(i)));
  }
  return out;
}

/// Semantic equality of two netlists with identical input/output *order*
/// (names may differ), by exhaustive simulation up to 2^inputs <= 4096,
/// else 64-vector random batches.
inline bool same_function(const nl::Netlist& lhs, const nl::Netlist& rhs,
                          Prng& rng, unsigned random_batches = 32) {
  if (lhs.inputs().size() != rhs.inputs().size()) return false;
  if (lhs.outputs().size() != rhs.outputs().size()) return false;
  const sim::Simulator sim_lhs(lhs);
  const sim::Simulator sim_rhs(rhs);
  const std::size_t n = lhs.inputs().size();
  if (n <= 12) {
    const std::size_t total = std::size_t{1} << n;
    for (std::size_t base = 0; base < total; base += 64) {
      std::vector<std::uint64_t> slices(n, 0);
      const std::size_t lanes = std::min<std::size_t>(64, total - base);
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        const std::size_t assignment = base + lane;
        for (std::size_t i = 0; i < n; ++i) {
          if ((assignment >> i) & 1u) slices[i] |= (1ull << lane);
        }
      }
      const std::uint64_t mask =
          lanes == 64 ? ~0ull : ((1ull << lanes) - 1);
      const auto out_l = sim_lhs.run(slices);
      const auto out_r = sim_rhs.run(slices);
      for (std::size_t o = 0; o < out_l.size(); ++o) {
        if ((out_l[o] & mask) != (out_r[o] & mask)) return false;
      }
    }
    return true;
  }
  for (unsigned batch = 0; batch < random_batches; ++batch) {
    std::vector<std::uint64_t> slices(n);
    for (auto& s : slices) s = rng.next_u64();
    const auto out_l = sim_lhs.run(slices);
    const auto out_r = sim_rhs.run(slices);
    if (out_l != out_r) return false;
  }
  return true;
}

}  // namespace gfre::test
