// Failure-path coverage for core::reverse_engineer: malformed or
// non-multiplier inputs must produce success=false with a useful summary()
// and diagnosis — never a crash or an uncaught exception.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/flow.hpp"
#include "gen/mastrovito.hpp"
#include "gf2m/field.hpp"
#include "gf2poly/gf2_poly.hpp"
#include "helpers.hpp"
#include "util/prng.hpp"

namespace gfre {
namespace {

using core::FlowOptions;
using core::reverse_engineer;
using gf2::Poly;

/// A circuit with the standard a/b/z multiplier interface whose z word is
/// NOT a GF(2^m) product (bitwise XOR — i.e. field addition, not
/// multiplication).
nl::Netlist bitwise_xor_circuit(unsigned m) {
  nl::Netlist netlist("bitwise_xor");
  std::vector<nl::Var> a, b;
  for (unsigned i = 0; i < m; ++i) {
    a.push_back(netlist.add_input("a" + std::to_string(i)));
  }
  for (unsigned i = 0; i < m; ++i) {
    b.push_back(netlist.add_input("b" + std::to_string(i)));
  }
  for (unsigned i = 0; i < m; ++i) {
    const nl::Var z = netlist.add_gate(nl::CellType::Xor, {a[i], b[i]},
                                       "z" + std::to_string(i));
    netlist.mark_output(z);
  }
  return netlist;
}

TEST(FlowFailures, BitwiseXorIsRejectedWithDiagnosis) {
  const auto report = reverse_engineer(bitwise_xor_circuit(4));
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.recovery.circuit_class, core::CircuitClass::NotAMultiplier);
  EXPECT_FALSE(report.recovery.diagnosis.empty());
  const std::string summary = report.summary();
  EXPECT_NE(summary.find("FAILED"), std::string::npos) << summary;
  EXPECT_NE(summary.find(core::to_string(core::CircuitClass::NotAMultiplier)),
            std::string::npos)
      << summary;
}

TEST(FlowFailures, RandomNetlistWithWordPortsIsRejected) {
  // A random DAG whose inputs/outputs happen to use the a/b/z naming —
  // the port scan succeeds but the recovery must classify NotAMultiplier.
  Prng rng(7);
  nl::Netlist netlist("random_ab");
  std::vector<nl::Var> pool;
  for (unsigned i = 0; i < 3; ++i) {
    pool.push_back(netlist.add_input("a" + std::to_string(i)));
    pool.push_back(netlist.add_input("b" + std::to_string(i)));
  }
  for (unsigned g = 0; g < 24; ++g) {
    const nl::Var x = pool[rng.next_below(pool.size())];
    const nl::Var y = pool[rng.next_below(pool.size())];
    const nl::CellType type =
        rng.next_bool() ? nl::CellType::And : nl::CellType::Xor;
    pool.push_back(netlist.add_gate(type, {x, y}));
  }
  for (unsigned i = 0; i < 3; ++i) {
    const nl::Var z = netlist.add_gate(
        nl::CellType::Buf, {pool[pool.size() - 1 - i]},
        "z" + std::to_string(i));
    netlist.mark_output(z);
  }
  const auto report = reverse_engineer(netlist);
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.recovery.circuit_class, core::CircuitClass::NotAMultiplier);
  EXPECT_FALSE(report.summary().empty());
}

TEST(FlowFailures, ScrambledOutputsFailWithoutPermutationRecovery) {
  const gf2m::Field field(Poly{5, 2, 0});
  const auto netlist = gen::generate_mastrovito(field);
  const auto scrambled = test::scramble_outputs(netlist, {3, 0, 4, 1, 2});

  FlowOptions options;
  options.try_output_permutation = false;
  const auto report = reverse_engineer(scrambled, options);
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.recovery.circuit_class, core::CircuitClass::NotAMultiplier);
  EXPECT_FALSE(report.output_permutation.has_value());
  EXPECT_FALSE(report.summary().empty());

  // Positive control: the same netlist succeeds once permutation recovery
  // is allowed, proving the scramble (not the rebuild) caused the failure.
  options.try_output_permutation = true;
  const auto recovered = reverse_engineer(scrambled, options);
  EXPECT_TRUE(recovered.success) << recovered.summary();
  EXPECT_EQ(recovered.recovery.p, field.modulus());
  ASSERT_TRUE(recovered.output_permutation.has_value());
}

TEST(FlowFailures, InferPortsOnShapelessNetlistFailsGracefully) {
  // Inputs named i0..i5 group into one word port, not two — inference
  // cannot find a two-operand interface.  This must be a reported failure,
  // not an exception.
  Prng rng(11);
  const auto netlist = test::random_netlist(rng, 6, 20, 3);
  FlowOptions options;
  options.infer_ports = true;
  core::FlowReport report;
  ASSERT_NO_THROW(report = reverse_engineer(netlist, options));
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.recovery.circuit_class, core::CircuitClass::NotAMultiplier);
  EXPECT_NE(report.recovery.diagnosis.find("multiplier interface"),
            std::string::npos)
      << report.recovery.diagnosis;
  EXPECT_NE(report.summary().find("FAILED"), std::string::npos)
      << report.summary();
}

TEST(FlowFailures, InferPortsWithOversizedIndexIsDiagnosed) {
  // An operand bit whose index overflows every integer type is not a word
  // bit, so inference finds no two-operand interface: a diagnosed report,
  // never an exception out of the index parse.
  nl::Netlist netlist = bitwise_xor_circuit(2);
  const nl::Var extra = netlist.add_input("a99999999999999999999");
  netlist.mark_output(netlist.add_gate(
      nl::CellType::Xor, {extra, *netlist.find_var("b0")}, "z2"));
  FlowOptions options;
  options.infer_ports = true;
  core::FlowReport report;
  ASSERT_NO_THROW(report = reverse_engineer(netlist, options));
  EXPECT_FALSE(report.success);
  EXPECT_NE(report.recovery.diagnosis.find("multiplier interface"),
            std::string::npos)
      << report.recovery.diagnosis;
}

TEST(FlowFailures, InferPortsStillRecoversRenamedMultiplier) {
  // Positive control for inference: a real multiplier with non-standard
  // port names is recovered without being told the bases.
  const gf2m::Field field(Poly{4, 1, 0});
  gen::MastrovitoOptions gen_options;
  gen_options.a_base = "lhs";
  gen_options.b_base = "rhs";
  gen_options.z_base = "prod";
  const auto netlist = gen::generate_mastrovito(field, gen_options);
  FlowOptions options;
  options.infer_ports = true;
  const auto report = reverse_engineer(netlist, options);
  EXPECT_TRUE(report.success) << report.summary();
  EXPECT_EQ(report.recovery.p, field.modulus());
}

}  // namespace
}  // namespace gfre
