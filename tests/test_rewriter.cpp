// Tests for Algorithm 1 (backward rewriting) including the paper's
// worked Figure 2/3 example, Theorem 1 (extracted ANF == circuit function)
// and Theorem 2 (per-bit independence).
#include <gtest/gtest.h>

#include <sstream>

#include "core/parallel_extract.hpp"
#include "core/rewriter.hpp"
#include "gen/mastrovito.hpp"
#include "gf2m/field.hpp"
#include "helpers.hpp"
#include "sim/simulator.hpp"
#include "util/prng.hpp"

namespace gfre::core {
namespace {

using anf::Anf;
using anf::Monomial;

/// The paper's Figure 2: a post-synthesized 2-bit GF(2^2) multiplier with
/// P(x) = x^2+x+1, gates G0..G6 (INVs and complex structure included).
///   s0 = a0&b0, s1 = ..., the circuit computes
///   z0 = a0b0 + a1b1,  z1 = a0b1 + a1b0 + a1b1.
nl::Netlist paper_figure2_netlist() {
  nl::Netlist n("fig2");
  const auto a0 = n.add_input("a0");
  const auto a1 = n.add_input("a1");
  const auto b0 = n.add_input("b0");
  const auto b1 = n.add_input("b1");
  // G6: s2 = a1 & b1  (shared by both cones)
  const auto s2 = n.add_gate(nl::CellType::And, {a1, b1}, "s2");
  // G5: s0 = a0 & b0
  const auto s0 = n.add_gate(nl::CellType::And, {a0, b0}, "s0");
  // G4: p0 = a1 & b0
  const auto p0 = n.add_gate(nl::CellType::And, {a1, b0}, "p0");
  // G3: p1 = a0 & b1
  const auto p1 = n.add_gate(nl::CellType::And, {a0, b1}, "p1");
  // G2: s1 = p0 ^ p1
  const auto s1 = n.add_gate(nl::CellType::Xor, {p0, p1}, "s1");
  // G1: z1 = s1 ^ s2
  const auto z1 = n.add_gate(nl::CellType::Xor, {s1, s2}, "z1");
  // G0: z0 = s0 ^ s2
  const auto z0 = n.add_gate(nl::CellType::Xor, {s0, s2}, "z0");
  n.mark_output(z0);
  n.mark_output(z1);
  return n;
}

Monomial product(const nl::Netlist& n, const std::string& x,
                 const std::string& y) {
  return Monomial::from_vars({*n.find_var(x), *n.find_var(y)});
}

TEST(Rewriter, PaperFigure2Example) {
  const auto netlist = paper_figure2_netlist();
  const auto z0 = extract_output_anf(netlist, *netlist.find_var("z0"));
  const auto z1 = extract_output_anf(netlist, *netlist.find_var("z1"));

  // Example 1/2 in the paper: z0 = a0b0 + a1b1, z1 = a0b1 + a1b0 + a1b1.
  Anf expected_z0;
  expected_z0.toggle(product(netlist, "a0", "b0"));
  expected_z0.toggle(product(netlist, "a1", "b1"));
  EXPECT_EQ(z0, expected_z0);

  Anf expected_z1;
  expected_z1.toggle(product(netlist, "a0", "b1"));
  expected_z1.toggle(product(netlist, "a1", "b0"));
  expected_z1.toggle(product(netlist, "a1", "b1"));
  EXPECT_EQ(z1, expected_z1);
}

TEST(Rewriter, TraceShowsRewritingIterations) {
  const auto netlist = paper_figure2_netlist();
  std::ostringstream trace;
  RewriteOptions options;
  options.trace = &trace;
  (void)extract_output_anf(netlist, *netlist.find_var("z1"), options);
  const std::string text = trace.str();
  // One line per substituted gate, final line is the input-only ANF.
  EXPECT_NE(text.find("a0*b1"), std::string::npos);
  EXPECT_NE(text.find("a1*b0"), std::string::npos);
  EXPECT_GE(std::count(text.begin(), text.end(), '\n'), 4);
}

TEST(Rewriter, SingleGateNetlists) {
  // Extraction of each cell type's output equals its cell ANF.
  for (nl::CellType type : nl::all_cell_types()) {
    nl::Netlist n;
    std::vector<nl::Var> inputs;
    for (std::size_t i = 0; i < 4; ++i) {
      inputs.push_back(n.add_input("i" + std::to_string(i)));
    }
    std::size_t arity = 0;
    for (std::size_t k = 0; k <= 4; ++k) {
      if (nl::arity_ok(type, k)) arity = k;
    }
    std::vector<nl::Var> gate_inputs(inputs.begin(), inputs.begin() + arity);
    const auto out = n.add_gate(type, gate_inputs, "z");
    n.mark_output(out);
    const Anf got = extract_output_anf(n, out);
    EXPECT_EQ(got, nl::cell_anf(type, gate_inputs)) << cell_name(type);
  }
}

TEST(Rewriter, ConstantsPropagateThroughRewriting) {
  nl::Netlist n;
  const auto a = n.add_input("a");
  const auto k1 = n.add_gate(nl::CellType::Const1, {});
  const auto x = n.add_gate(nl::CellType::Xor, {a, k1});
  const auto z = n.add_gate(nl::CellType::Xor, {x, k1}, "z");  // = a
  n.mark_output(z);
  EXPECT_EQ(extract_output_anf(n, z), Anf::var(a));
}

TEST(Rewriter, Theorem1ExtractedAnfMatchesSimulation) {
  // Property test over random netlists with complex cells: the extracted
  // ANF of every output evaluates identically to the simulator.
  Prng rng(20250610);
  for (int round = 0; round < 15; ++round) {
    const auto netlist = test::random_netlist(rng, 6, 35, 3);
    const sim::Simulator simulator(netlist);
    std::vector<Anf> anfs;
    for (nl::Var out : netlist.outputs()) {
      anfs.push_back(extract_output_anf(netlist, out));
    }
    for (unsigned assignment = 0; assignment < 64; ++assignment) {
      std::vector<bool> in(netlist.inputs().size());
      for (std::size_t i = 0; i < in.size(); ++i) {
        in[i] = (assignment >> i) & 1u;
      }
      const auto sim_out = simulator.run_single(in);
      for (std::size_t o = 0; o < anfs.size(); ++o) {
        std::vector<bool> by_var(netlist.num_vars(), false);
        for (std::size_t i = 0; i < in.size(); ++i) {
          by_var[netlist.inputs()[i]] = in[i];
        }
        const bool via_anf =
            anfs[o].eval([&](anf::Var v) { return by_var[v]; });
        ASSERT_EQ(via_anf, sim_out[o])
            << "round " << round << " output " << o << " assignment "
            << assignment;
      }
    }
  }
}

TEST(Rewriter, PackedAgreesWithNaiveOracle) {
  Prng rng(777);
  for (int round = 0; round < 10; ++round) {
    const auto netlist = test::random_netlist(rng, 6, 30, 2);
    for (nl::Var out : netlist.outputs()) {
      RewriteOptions packed;
      packed.strategy = RewriteStrategy::Packed;
      RewriteOptions naive;
      naive.strategy = RewriteStrategy::NaiveScan;
      const auto via_packed = extract_output_anf(netlist, out, packed);
      EXPECT_EQ(via_packed, extract_output_anf(netlist, out, naive))
          << "round " << round;
    }
  }
}

TEST(Rewriter, StatsArePopulated) {
  const gf2m::Field field(gf2::Poly{4, 1, 0});
  const auto netlist = gen::generate_mastrovito(field);
  RewriteStats stats;
  const auto anf = extract_output_anf(netlist, *netlist.find_var("z0"), {},
                                      &stats);
  EXPECT_GT(stats.cone_gates, 0u);
  EXPECT_GT(stats.substitutions, 0u);
  EXPECT_GE(stats.peak_terms, stats.final_terms);
  EXPECT_EQ(stats.final_terms, anf.size());
  EXPECT_GE(stats.seconds, 0.0);
  EXPECT_LE(stats.substitutions, stats.cone_gates);
}

TEST(Rewriter, CancellationHappensDuringRewriting) {
  // z = (a^b) ^ (a^c): the a's cancel mod 2 -> final ANF is b+c, and the
  // stats must register cancellations.
  nl::Netlist n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto c = n.add_input("c");
  const auto x = n.add_gate(nl::CellType::Xor, {a, b});
  const auto y = n.add_gate(nl::CellType::Xor, {a, c});
  const auto z = n.add_gate(nl::CellType::Xor, {x, y}, "z");
  n.mark_output(z);
  RewriteStats stats;
  const auto anf = extract_output_anf(n, z, {}, &stats);
  EXPECT_EQ(anf, Anf::var(b) + Anf::var(c));
  EXPECT_GE(stats.cancellations, 1u);
}

TEST(Rewriter, Theorem2PerBitConesAreIndependent) {
  // Rewriting z0 must not touch gates outside its cone: extract z0 from
  // the full netlist and from the cone-only subnetlist; results agree.
  const gf2m::Field field(gf2::Poly{8, 4, 3, 1, 0});
  const auto netlist = gen::generate_mastrovito(field);
  for (const char* out_name : {"z0", "z3", "z7"}) {
    const nl::Var out = *netlist.find_var(out_name);
    RewriteStats stats;
    (void)extract_output_anf(netlist, out, {}, &stats);
    EXPECT_EQ(stats.cone_gates, netlist.fanin_cone(out).size());
    EXPECT_LT(stats.cone_gates, netlist.num_gates())
        << "a single output's cone must be a strict subset";
  }
}

TEST(ParallelExtract, MatchesSequentialExtraction) {
  const gf2m::Field field(gf2::Poly{8, 4, 3, 1, 0});
  const auto netlist = gen::generate_mastrovito(field);
  const auto seq = extract_all_outputs(netlist, 1);
  const auto par = extract_all_outputs(netlist, 4);
  ASSERT_EQ(seq.anfs.size(), par.anfs.size());
  for (std::size_t i = 0; i < seq.anfs.size(); ++i) {
    EXPECT_EQ(seq.anfs[i], par.anfs[i]) << "bit " << i;
  }
  EXPECT_EQ(par.threads, 4u);
  EXPECT_EQ(par.per_bit.size(), field.m());
  EXPECT_GT(par.total_peak_terms, 0u);
}

TEST(ParallelExtract, SubsetOfOutputs) {
  const gf2m::Field field(gf2::Poly{4, 1, 0});
  const auto netlist = gen::generate_mastrovito(field);
  const std::vector<nl::Var> outs{*netlist.find_var("z2"),
                                  *netlist.find_var("z0")};
  const auto result = extract_outputs(netlist, outs, 2);
  ASSERT_EQ(result.anfs.size(), 2u);
  EXPECT_EQ(result.anfs[0],
            extract_output_anf(netlist, *netlist.find_var("z2")));
  EXPECT_EQ(result.anfs[1],
            extract_output_anf(netlist, *netlist.find_var("z0")));
}

}  // namespace
}  // namespace gfre::core
