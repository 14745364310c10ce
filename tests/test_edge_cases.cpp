// Boundary-condition tests across the stack: degenerate netlists, minimum
// field sizes, extreme variable ids, unusual-but-legal inputs to parsers
// and the extraction engine.
#include <gtest/gtest.h>

#include "core/flow.hpp"
#include "core/parallel_extract.hpp"
#include "core/rewriter.hpp"
#include "gen/karatsuba.hpp"
#include "gen/mastrovito.hpp"
#include "gen/montgomery_gate.hpp"
#include "gen/shift_add.hpp"
#include "gf2m/field.hpp"
#include "netlist/io_eqn.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"

namespace gfre {
namespace {

using anf::Anf;
using gf2::Poly;

// --- Extraction corner cases -----------------------------------------------

TEST(EdgeExtraction, PrimaryInputExtractsToItself) {
  nl::Netlist n;
  const auto a = n.add_input("a");
  const auto g = n.add_gate(nl::CellType::Inv, {a}, "z");
  n.mark_output(g);
  EXPECT_EQ(core::extract_output_anf(n, a), Anf::var(a));
}

TEST(EdgeExtraction, ConstantOutputs) {
  nl::Netlist n;
  n.add_input("a");
  const auto k0 = n.add_gate(nl::CellType::Const0, {}, "z0");
  const auto k1 = n.add_gate(nl::CellType::Const1, {}, "z1");
  n.mark_output(k0);
  n.mark_output(k1);
  EXPECT_TRUE(core::extract_output_anf(n, k0).is_zero());
  EXPECT_TRUE(core::extract_output_anf(n, k1).is_one());
}

TEST(EdgeExtraction, OutputUsedInternallyToo) {
  // z0 is both a primary output and an internal signal feeding z1.
  nl::Netlist n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto z0 = n.add_gate(nl::CellType::And, {a, b}, "z0");
  const auto z1 = n.add_gate(nl::CellType::Inv, {z0}, "z1");
  n.mark_output(z0);
  n.mark_output(z1);
  EXPECT_EQ(core::extract_output_anf(n, z0), Anf::var(a) * Anf::var(b));
  EXPECT_EQ(core::extract_output_anf(n, z1),
            Anf::one() + Anf::var(a) * Anf::var(b));
}

TEST(EdgeExtraction, SameNetMarkedOutputTwice) {
  nl::Netlist n;
  const auto a = n.add_input("a");
  const auto g = n.add_gate(nl::CellType::Inv, {a}, "z");
  n.mark_output(g);
  n.mark_output(g);
  const auto result = core::extract_all_outputs(n, 2);
  ASSERT_EQ(result.anfs.size(), 2u);
  EXPECT_EQ(result.anfs[0], result.anfs[1]);
}

TEST(EdgeExtraction, DeepInverterChain) {
  // 1000 stacked inverters: parity must come out right and the rewriter
  // must not recurse (iterative cone walk).
  nl::Netlist n;
  const auto a = n.add_input("a");
  auto t = a;
  for (int i = 0; i < 1000; ++i) t = n.add_gate(nl::CellType::Inv, {t});
  n.mark_output(t);
  EXPECT_EQ(core::extract_output_anf(n, t), Anf::var(a));  // even count
}

TEST(EdgeExtraction, WideXorCancellationStorm) {
  // z = x1 ^ x2 ^ ... ^ xk ^ x1 ^ ... ^ xk = 0: everything cancels.
  nl::Netlist n;
  std::vector<nl::Var> inputs;
  for (int i = 0; i < 16; ++i) {
    inputs.push_back(n.add_input("x" + std::to_string(i)));
  }
  std::vector<nl::Var> doubled = inputs;
  doubled.insert(doubled.end(), inputs.begin(), inputs.end());
  // Build as a tree of XOR2 gates.
  std::vector<nl::Var> level = doubled;
  while (level.size() > 1) {
    std::vector<nl::Var> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(n.add_gate(nl::CellType::Xor, {level[i], level[i + 1]}));
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  n.mark_output(level[0]);
  core::RewriteStats stats;
  EXPECT_TRUE(core::extract_output_anf(n, level[0], {}, &stats).is_zero());
  EXPECT_GT(stats.cancellations, 0u);
}

// --- Minimum field size everywhere -----------------------------------------

TEST(EdgeMinimumField, AllGeneratorsAtM2) {
  const gf2m::Field field(Poly{2, 1, 0});
  const std::vector<nl::Netlist> netlists = {
      gen::generate_mastrovito(field),
      gen::generate_montgomery(field),
      gen::generate_shift_add(field),
      gen::generate_karatsuba(field),
  };
  for (const auto& netlist : netlists) {
    const auto report = core::reverse_engineer(netlist);
    EXPECT_TRUE(report.success) << netlist.name() << "\n"
                                << report.summary();
    EXPECT_EQ(report.recovery.p, (Poly{2, 1, 0})) << netlist.name();
  }
}

// --- ANF / variable-id extremes --------------------------------------------

TEST(EdgeAnf, LargeVariableIds) {
  const anf::Var big = 0xFFFFFFF0u;
  Anf f = Anf::var(big) * Anf::var(big - 1) + Anf::var(0);
  EXPECT_EQ(f.size(), 2u);
  EXPECT_TRUE(f.mentions(big));
  EXPECT_EQ(f.degree(), 2u);
  f.substitute(big, Anf::one());
  EXPECT_EQ(f, Anf::var(big - 1) + Anf::var(0));
}

TEST(EdgeAnf, ManyDistinctMonomials) {
  // 10k monomials inserted and then cancelled in a different order.
  Anf f;
  std::vector<anf::Monomial> monomials;
  for (unsigned i = 0; i < 100; ++i) {
    for (unsigned j = 100; j < 200; ++j) {
      monomials.push_back(anf::Monomial::from_vars({i, j}));
    }
  }
  for (const auto& monomial : monomials) f.toggle(monomial);
  EXPECT_EQ(f.size(), monomials.size());
  Prng rng(5);
  // Shuffle.
  for (std::size_t i = monomials.size(); i > 1; --i) {
    std::swap(monomials[i - 1], monomials[rng.next_below(i)]);
  }
  for (const auto& monomial : monomials) f.toggle(monomial);
  EXPECT_TRUE(f.is_zero());
}

// --- GF(2)[x] sparse extremes ----------------------------------------------

TEST(EdgePoly, VerySparseHighDegree) {
  const Poly p{4000, 1, 0};
  EXPECT_EQ(p.degree(), 4000);
  EXPECT_EQ(p.weight(), 3u);
  const Poly sq = p.square();
  EXPECT_EQ(sq.degree(), 8000);
  EXPECT_EQ(sq, p * p);
  EXPECT_EQ((p << 129) >> 129, p);
  const auto dm = (p * Poly{7, 0}).divmod(p);
  EXPECT_EQ(dm.quotient, (Poly{7, 0}));
  EXPECT_TRUE(dm.remainder.is_zero());
}

// --- Parsers: odd but legal inputs -----------------------------------------

TEST(EdgeParsers, EqnWhitespaceAndCaseTolerance) {
  const std::string text =
      "model   weird\n"
      "input a   b;\n"
      "output z;\n"
      "  t  =  and( a ,b )  ;  # trailing comment\n"
      "z = xor(t, a);\n";
  const auto netlist = nl::read_eqn(text);
  EXPECT_EQ(netlist.name(), "weird");
  const sim::Simulator simulator(netlist);
  EXPECT_EQ(simulator.run_single({true, false})[0], true);   // (a&b)^a
  EXPECT_EQ(simulator.run_single({true, true})[0], false);
}

TEST(EdgeParsers, EqnRoundTripAfterFlowMutations) {
  // Write -> read -> flow: the parsed netlist gives identical extraction
  // results (canonical ANF) to the in-memory one.
  const gf2m::Field field(Poly{8, 4, 3, 1, 0});
  const auto original = gen::generate_montgomery(field);
  const auto parsed = nl::read_eqn(nl::write_eqn(original));
  const auto r1 = core::reverse_engineer(original);
  const auto r2 = core::reverse_engineer(parsed);
  EXPECT_EQ(r1.recovery.p, r2.recovery.p);
  EXPECT_EQ(r1.equations, r2.equations);
  ASSERT_EQ(r1.extraction.per_bit.size(), field.m());
  ASSERT_EQ(r2.extraction.per_bit.size(), field.m());
  for (unsigned i = 0; i < field.m(); ++i) {
    // ANFs compare equal after renaming: same input names => same vars is
    // not guaranteed across netlists, so compare sizes + recovery instead.
    EXPECT_EQ(r1.extraction.per_bit[i].final_terms,
              r2.extraction.per_bit[i].final_terms)
        << "bit " << i;
  }
}

// --- Flow robustness ---------------------------------------------------------

TEST(EdgeFlow, InputDirectlyWiredToOutput) {
  // A "multiplier" where z_i = BUF(a_i): bilinear check must reject it.
  nl::Netlist n;
  std::vector<nl::Var> a, b;
  for (int i = 0; i < 3; ++i) a.push_back(n.add_input("a" + std::to_string(i)));
  for (int i = 0; i < 3; ++i) b.push_back(n.add_input("b" + std::to_string(i)));
  for (int i = 0; i < 3; ++i) {
    n.mark_output(n.add_gate(nl::CellType::Buf, {a[i]},
                             "z" + std::to_string(i)));
  }
  const auto report = core::reverse_engineer(n);
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.recovery.circuit_class, core::CircuitClass::NotAMultiplier);
}

TEST(EdgeFlow, IntegerMultiplierLowBitsRejected) {
  // The low m bits of an *integer* multiplier (with carries) are not a GF
  // product: the AND/XOR/MAJ carry structure must be rejected cleanly.
  nl::Netlist n;
  const unsigned m = 4;
  std::vector<nl::Var> a, b;
  for (unsigned i = 0; i < m; ++i) a.push_back(n.add_input("a" + std::to_string(i)));
  for (unsigned i = 0; i < m; ++i) b.push_back(n.add_input("b" + std::to_string(i)));
  // Ripple-carry accumulation of partial products (schoolbook integer).
  std::vector<nl::Var> acc;  // current sum bits
  for (unsigned j = 0; j < m; ++j) {
    acc.push_back(n.add_gate(nl::CellType::And, {a[0], b[j]}));
  }
  for (unsigned i = 1; i < m; ++i) {
    nl::Var carry = 0;
    bool has_carry = false;
    for (unsigned j = 0; i + j < m; ++j) {
      const nl::Var pp = n.add_gate(nl::CellType::And, {a[i], b[j]});
      const nl::Var sum_in = acc[i + j];
      nl::Var s = n.add_gate(nl::CellType::Xor, {sum_in, pp});
      nl::Var c = n.add_gate(nl::CellType::And, {sum_in, pp});
      if (has_carry) {
        const nl::Var s2 = n.add_gate(nl::CellType::Xor, {s, carry});
        const nl::Var c2 = n.add_gate(nl::CellType::Maj3, {sum_in, pp, carry});
        s = s2;
        c = c2;
      }
      acc[i + j] = s;
      carry = c;
      has_carry = true;
    }
  }
  for (unsigned i = 0; i < m; ++i) {
    n.mark_output(n.add_gate(nl::CellType::Buf, {acc[i]},
                             "z" + std::to_string(i)));
  }
  const auto report = core::reverse_engineer(n);
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.recovery.circuit_class, core::CircuitClass::NotAMultiplier);
}

TEST(EdgeFlow, ThreadsExceedingOutputCount) {
  const gf2m::Field field(Poly{3, 1, 0});
  const auto netlist = gen::generate_mastrovito(field);
  core::FlowOptions options;
  options.threads = 16;  // more threads than output bits
  const auto report = core::reverse_engineer(netlist, options);
  EXPECT_TRUE(report.success);
}

// --- Simulator degenerate cases --------------------------------------------

TEST(EdgeSim, InputForwardedAsOutput) {
  nl::Netlist n;
  const auto a = n.add_input("a");
  n.mark_output(a);  // an input can be an output directly
  n.validate();
  const sim::Simulator simulator(n);
  EXPECT_EQ(simulator.run({0xDEADBEEFull})[0], 0xDEADBEEFull);
}

TEST(EdgeSim, GatelessNetlist) {
  nl::Netlist n;
  n.add_input("a");
  n.validate();
  const sim::Simulator simulator(n);
  EXPECT_TRUE(simulator.run({42}).empty());
}

}  // namespace
}  // namespace gfre
