// Tests for the capabilities beyond the paper's scope: port inference,
// scrambled-output recovery, the squarer generator, and the known-P(x)
// verification API.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/parallel_extract.hpp"
#include "core/permutation.hpp"
#include "core/poly_extract.hpp"
#include "core/verify.hpp"
#include "gen/mastrovito.hpp"
#include "gen/squarer.hpp"
#include "gf2m/field.hpp"
#include "gf2poly/irreducible.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"

namespace gfre::core {
namespace {

using gf2::Poly;

// ---------------------------------------------------------------------------
// Port inference
// ---------------------------------------------------------------------------

TEST(PortInference, FindsStandardInterface) {
  const gf2m::Field field(Poly{8, 4, 3, 1, 0});
  const auto netlist = gen::generate_mastrovito(field);
  const auto ports = nl::infer_multiplier_ports(netlist);
  ASSERT_TRUE(ports.has_value());
  EXPECT_EQ(ports->m(), 8u);
  EXPECT_EQ(ports->a.base, "a");
  EXPECT_EQ(ports->b.base, "b");
  EXPECT_EQ(ports->z.base, "z");
}

TEST(PortInference, FindsRenamedInterface) {
  const gf2m::Field field(Poly{5, 2, 0});
  gen::MastrovitoOptions options;
  options.a_base = "lhs_";
  options.b_base = "rhs_";
  options.z_base = "prod_";
  const auto netlist = gen::generate_mastrovito(field, options);
  const auto ports = nl::infer_multiplier_ports(netlist);
  ASSERT_TRUE(ports.has_value());
  EXPECT_EQ(ports->m(), 5u);
  // Lexicographic assignment: "lhs_" < "rhs_".
  EXPECT_EQ(ports->a.base, "lhs_");
  EXPECT_EQ(ports->b.base, "rhs_");
  // And the recovered interface actually works end to end.
  const auto extraction = extract_outputs(netlist, ports->z.bits, 2);
  EXPECT_EQ(recover_irreducible(extraction.anfs, *ports), field.modulus());
}

TEST(PortInference, RejectsNonMultiplierShapes) {
  // One input word only.
  nl::Netlist one_word;
  const auto a0 = one_word.add_input("a0");
  const auto a1 = one_word.add_input("a1");
  one_word.mark_output(one_word.add_gate(nl::CellType::And, {a0, a1}, "z0"));
  one_word.mark_output(one_word.add_gate(nl::CellType::Or, {a0, a1}, "z1"));
  EXPECT_FALSE(nl::infer_multiplier_ports(one_word).has_value());

  // Mismatched widths.
  nl::Netlist lopsided;
  for (int i = 0; i < 3; ++i) lopsided.add_input("a" + std::to_string(i));
  for (int i = 0; i < 2; ++i) lopsided.add_input("b" + std::to_string(i));
  lopsided.mark_output(lopsided.add_gate(
      nl::CellType::And, {*lopsided.find_var("a0"), *lopsided.find_var("b0")},
      "z0"));
  EXPECT_FALSE(nl::infer_multiplier_ports(lopsided).has_value());

  // Extra control pin outside any word port.
  const gf2m::Field field(Poly{3, 1, 0});
  auto netlist = gen::generate_mastrovito(field);
  netlist.add_input("enable");
  EXPECT_FALSE(nl::infer_multiplier_ports(netlist).has_value());
}

// ---------------------------------------------------------------------------
// Scrambled-output recovery
// ---------------------------------------------------------------------------

TEST(OutputOrder, RecoversRandomPermutations) {
  Prng rng(2024);
  for (const Poly& p : {Poly{4, 1, 0}, Poly{8, 4, 3, 1, 0},
                        Poly{11, 2, 0}}) {
    const gf2m::Field field(p);
    const auto netlist = gen::generate_mastrovito(field);
    const auto ports = nl::multiplier_ports(netlist);
    const auto extraction = extract_outputs(netlist, ports.z.bits, 2);
    const unsigned m = field.m();

    for (int round = 0; round < 5; ++round) {
      // Scramble the ANFs with a random permutation.
      std::vector<unsigned> scramble(m);
      for (unsigned i = 0; i < m; ++i) scramble[i] = i;
      for (unsigned i = m; i > 1; --i) {
        std::swap(scramble[i - 1], scramble[rng.next_below(i)]);
      }
      std::vector<anf::Anf> shuffled(m);
      for (unsigned i = 0; i < m; ++i) {
        shuffled[scramble[i]] = extraction.anfs[i];
      }
      const auto order = recover_output_order(shuffled, ports);
      ASSERT_TRUE(order.has_value()) << p.to_string();
      for (unsigned bit = 0; bit < m; ++bit) {
        EXPECT_EQ(shuffled[(*order)[bit]], extraction.anfs[bit])
            << "bit " << bit;
      }
      // And Algorithm 2 works on the de-scrambled ANFs.
      std::vector<anf::Anf> restored(m);
      for (unsigned bit = 0; bit < m; ++bit) {
        restored[bit] = shuffled[(*order)[bit]];
      }
      EXPECT_EQ(recover_irreducible(restored, ports), p);
    }
  }
}

TEST(OutputOrder, RejectsNonProductFunctions) {
  const gf2m::Field field(Poly{4, 1, 0});
  const auto netlist = gen::generate_mastrovito(field);
  const auto ports = nl::multiplier_ports(netlist);
  auto extraction = extract_outputs(netlist, ports.z.bits, 1);
  // Duplicate one output: two outputs claim the same bit.
  extraction.anfs[1] = extraction.anfs[0];
  EXPECT_FALSE(recover_output_order(extraction.anfs, ports).has_value());
  // Garbage (empty) functions claim nothing.
  std::vector<anf::Anf> junk(4);
  EXPECT_FALSE(recover_output_order(junk, ports).has_value());
}

// ---------------------------------------------------------------------------
// Squarers
// ---------------------------------------------------------------------------

class SquarerSweep : public ::testing::TestWithParam<Poly> {};

TEST_P(SquarerSweep, GeneratedSquarerMatchesField) {
  const gf2m::Field field(GetParam());
  const auto netlist = gen::generate_squarer(field);
  netlist.validate();
  const sim::Simulator simulator(netlist);
  Prng rng(field.m());
  for (int round = 0; round < 20; ++round) {
    const Poly a = field.random_element(rng);
    std::vector<bool> in(field.m());
    for (unsigned i = 0; i < field.m(); ++i) in[i] = a.coeff(i);
    const auto out = simulator.run_single(in);
    Poly z;
    for (unsigned i = 0; i < field.m(); ++i) {
      if (out[i]) z.set_coeff(i, true);
    }
    EXPECT_EQ(z, field.square(a)) << "a=" << a.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Moduli, SquarerSweep,
    ::testing::Values(Poly{2, 1, 0}, Poly{3, 1, 0}, Poly{4, 1, 0},
                      Poly{4, 3, 0}, Poly{5, 2, 0}, Poly{8, 4, 3, 1, 0},
                      Poly{9, 1, 0}, Poly{16, 5, 3, 1, 0}, Poly{23, 5, 0},
                      Poly{64, 21, 19, 4, 0}),
    [](const ::testing::TestParamInfo<Poly>& info) {
      return "deg" + std::to_string(info.param.degree()) + "_idx" +
             std::to_string(info.index);
    });

TEST(Squarer, SquarerIsPureXorNetwork) {
  const gf2m::Field field(Poly{16, 5, 3, 1, 0});
  const auto netlist = gen::generate_squarer(field);
  for (const auto& gate : netlist.gates()) {
    EXPECT_TRUE(gate.type == nl::CellType::Xor ||
                gate.type == nl::CellType::Buf)
        << cell_name(gate.type);
  }
}

// ---------------------------------------------------------------------------
// Known-P(x) verification (the Lv/Kalla use case)
// ---------------------------------------------------------------------------

TEST(KnownVerification, AcceptsCorrectImplementation) {
  const gf2m::Field field(Poly{8, 4, 3, 1, 0});
  const auto netlist = gen::generate_mastrovito(field);
  const auto result = verify_known_multiplier(netlist, field, 2);
  EXPECT_TRUE(result.equivalent) << result.detail;
}

TEST(KnownVerification, RejectsWrongPolynomial) {
  const gf2m::Field right(Poly{8, 4, 3, 1, 0});
  const gf2m::Field wrong(Poly{8, 5, 3, 1, 0});
  const auto netlist = gen::generate_mastrovito(right);
  const auto result = verify_known_multiplier(netlist, wrong, 2);
  EXPECT_FALSE(result.equivalent);
  EXPECT_NE(result.detail.find("output bit"), std::string::npos);
}

TEST(KnownVerification, RejectsWidthMismatch) {
  const gf2m::Field small(Poly{4, 1, 0});
  const gf2m::Field big(Poly{8, 4, 3, 1, 0});
  const auto netlist = gen::generate_mastrovito(small);
  const auto result = verify_known_multiplier(netlist, big);
  EXPECT_FALSE(result.equivalent);
  EXPECT_NE(result.detail.find("width"), std::string::npos);
}

}  // namespace
}  // namespace gfre::core
