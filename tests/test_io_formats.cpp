// Round-trip and error-handling tests for the three netlist formats:
// .eqn, BLIF and structural Verilog.
#include <gtest/gtest.h>

#include "core/batch.hpp"
#include "gen/mastrovito.hpp"
#include "gf2m/field.hpp"
#include "helpers.hpp"
#include "netlist/io_blif.hpp"
#include "netlist/io_eqn.hpp"
#include "netlist/io_verilog.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"

namespace gfre::nl {
namespace {

using test::random_netlist;
using test::same_function;

// ---------------------------------------------------------------------------
// .eqn
// ---------------------------------------------------------------------------

TEST(EqnFormat, WriteContainsDeclarationsAndEquations) {
  const gf2m::Field field(gf2::Poly{4, 1, 0});
  const auto netlist = gen::generate_mastrovito(field);
  const std::string text = write_eqn(netlist);
  EXPECT_NE(text.find("model mastrovito_m4"), std::string::npos);
  EXPECT_NE(text.find("input a0 a1 a2 a3 b0 b1 b2 b3;"), std::string::npos);
  EXPECT_NE(text.find("output z0 z1 z2 z3;"), std::string::npos);
  EXPECT_NE(text.find("pp_0_0 = AND(a0, b0);"), std::string::npos);
}

TEST(EqnFormat, RoundTripPreservesFunction) {
  const gf2m::Field field(gf2::Poly{8, 4, 3, 1, 0});
  const auto original = gen::generate_mastrovito(field);
  const auto parsed = read_eqn(write_eqn(original));
  EXPECT_EQ(parsed.num_gates(), original.num_gates());
  Prng rng(1);
  EXPECT_TRUE(same_function(original, parsed, rng));
}

TEST(EqnFormat, RoundTripRandomNetlists) {
  Prng rng(77);
  for (int i = 0; i < 10; ++i) {
    const auto original = random_netlist(rng, 6, 30, 3);
    const auto parsed = read_eqn(write_eqn(original));
    Prng check(i);
    EXPECT_TRUE(same_function(original, parsed, check)) << "round " << i;
  }
}

TEST(EqnFormat, StatementsInAnyOrder) {
  const std::string text = R"(
      output z;
      z = XOR(t, c);
      t = AND(a, b);
      input a b c;
      model reordered
  )";
  const Netlist netlist = read_eqn(text);
  EXPECT_EQ(netlist.name(), "reordered");
  EXPECT_EQ(netlist.num_gates(), 2u);
  // z = (a&b)^c: check one vector.
  sim::Simulator simulator(netlist);
  EXPECT_EQ(simulator.run_single({true, true, false})[0], true);
  EXPECT_EQ(simulator.run_single({true, false, false})[0], false);
}

TEST(EqnFormat, ConstantsAndComments) {
  const std::string text = R"(
      # a constant-driven netlist
      model consts
      input a;
      output z;
      k1 = 1;      # constant one
      k0 = CONST0();
      t = XOR(a, k1);
      z = OR(t, k0);
  )";
  const Netlist netlist = read_eqn(text);
  sim::Simulator simulator(netlist);
  EXPECT_EQ(simulator.run_single({false})[0], true);
  EXPECT_EQ(simulator.run_single({true})[0], false);
}

TEST(EqnFormat, ErrorsAreDiagnosed) {
  EXPECT_THROW(read_eqn("z = AND(a, b);"), ParseError);  // undefined nets
  EXPECT_THROW(read_eqn("input a;\nz = FOO(a);\noutput z;"), ParseError);
  EXPECT_THROW(read_eqn("input a;\nz = AND(a);\noutput z;"), ParseError);
  EXPECT_THROW(read_eqn("input a;\noutput q;"), ParseError);
  EXPECT_THROW(read_eqn("input a;\nx = INV(y);\ny = INV(x);\noutput x;"),
               ParseError);  // cycle
  EXPECT_THROW(read_eqn("input a;\nx = INV(a);\nx = BUF(a);\noutput x;"),
               ParseError);  // double definition
  EXPECT_THROW(read_eqn("input a;\na = INV(a);\noutput a;"), ParseError);
}

TEST(EqnFormat, NetsNamedLikeKeywordsAreEquations) {
  // A statement with '=' is an equation even when its net is named like
  // a declaration keyword.
  const Netlist input_net = read_eqn(
      "input a b;\noutput z;\ninput = AND(a, b);\nz = XOR(input, a);\n");
  EXPECT_EQ(input_net.num_gates(), 2u);
  EXPECT_EQ(input_net.inputs().size(), 2u);
  const Netlist output_net =
      read_eqn("input a b;\noutput output;\noutput = AND(a, b);\n");
  EXPECT_EQ(output_net.var_name(output_net.outputs()[0]), "output");
  const Netlist model_net = read_eqn(
      "model m\ninput a b;\noutput z;\nmodel = AND(a, b);\nz = INV(model);\n");
  EXPECT_EQ(model_net.name(), "m");
  EXPECT_EQ(model_net.num_gates(), 2u);
  EXPECT_THROW(read_eqn("input a;\noutput z;\nz = input;\n"), ParseError);
}

TEST(EqnFormat, KeywordNamedNetsRoundTripFromBlif) {
  const Netlist original = read_blif(R"(.model kw
.inputs a model
.outputs output z
.names a model input
11 1
.names input a output
10 1
01 1
.names output model z
1- 1
-1 1
.end
)");
  ASSERT_TRUE(original.find_var("input").has_value());
  const Netlist parsed = read_eqn(write_eqn(original));
  EXPECT_EQ(parsed.name(), "kw");
  EXPECT_EQ(core::netlist_content_hash(parsed),
            core::netlist_content_hash(original));
}

TEST(EqnFormat, FileRoundTrip) {
  const gf2m::Field field(gf2::Poly{4, 3, 0});
  const auto original = gen::generate_mastrovito(field);
  const std::string path = ::testing::TempDir() + "/gfre_test.eqn";
  write_eqn_file(original, path);
  const auto parsed = read_eqn_file(path);
  Prng rng(3);
  EXPECT_TRUE(same_function(original, parsed, rng));
  EXPECT_THROW(read_eqn_file("/nonexistent/file.eqn"), Error);
}

// ---------------------------------------------------------------------------
// BLIF
// ---------------------------------------------------------------------------

TEST(BlifFormat, WriteStructure) {
  const gf2m::Field field(gf2::Poly{2, 1, 0});
  const auto netlist = gen::generate_mastrovito(field);
  const std::string text = write_blif(netlist);
  EXPECT_EQ(text.rfind(".model mastrovito_m2", 0), 0u);
  EXPECT_NE(text.find(".inputs a0 a1 b0 b1"), std::string::npos);
  EXPECT_NE(text.find(".outputs z0 z1"), std::string::npos);
  EXPECT_NE(text.find(".end"), std::string::npos);
}

TEST(BlifFormat, RoundTripPreservesFunction) {
  const gf2m::Field field(gf2::Poly{8, 4, 3, 1, 0});
  const auto original = gen::generate_mastrovito(field);
  const auto parsed = read_blif(write_blif(original));
  Prng rng(5);
  EXPECT_TRUE(same_function(original, parsed, rng));
}

TEST(BlifFormat, RoundTripRandomNetlistsWithComplexCells) {
  Prng rng(99);
  for (int i = 0; i < 10; ++i) {
    const auto original = random_netlist(rng, 5, 25, 2);
    const auto parsed = read_blif(write_blif(original));
    Prng check(1000 + i);
    EXPECT_TRUE(same_function(original, parsed, check)) << "round " << i;
  }
}

TEST(BlifFormat, ReadsHandWrittenCovers) {
  const std::string text = R"(
# hand-written
.model demo
.inputs a b c
.outputs y z w k
.names a b t
11 1
.names t c y
0- 1
-0 1
.names z
1
.names a w
0 1
.names a b c k
1-0 1
-11 1
.end
)";
  const Netlist netlist = read_blif(text);
  sim::Simulator simulator(netlist);
  // y = !(t) | !(c) where t = a&b  => y = !(a&b) | !c = !(a&b&c)
  for (unsigned assignment = 0; assignment < 8; ++assignment) {
    const bool a = assignment & 1, b = assignment & 2, c = assignment & 4;
    const auto out = simulator.run_single({a, b, c});
    EXPECT_EQ(out[0], !(a && b && c)) << assignment;
    EXPECT_EQ(out[1], true);       // z constant 1
    EXPECT_EQ(out[2], !a);         // w = INV(a)
    EXPECT_EQ(out[3], (a && !c) || (b && c));  // k two-row cover
  }
}

TEST(BlifFormat, OutputPolarityZeroCover) {
  const std::string text =
      ".model inv\n.inputs a b\n.outputs z\n.names a b z\n11 0\n.end\n";
  const Netlist netlist = read_blif(text);
  sim::Simulator simulator(netlist);
  EXPECT_EQ(simulator.run_single({true, true})[0], false);
  EXPECT_EQ(simulator.run_single({true, false})[0], true);
}

TEST(BlifFormat, ContinuationLines) {
  const std::string text =
      ".model c\n.inputs \\\na b\n.outputs z\n.names a b z\n11 1\n.end\n";
  const Netlist netlist = read_blif(text);
  EXPECT_EQ(netlist.inputs().size(), 2u);
}

TEST(BlifFormat, Errors) {
  EXPECT_THROW(read_blif(".model x\n.latch a b\n.end\n"), ParseError);
  EXPECT_THROW(read_blif(".model x\n11 1\n.end\n"), ParseError);
  EXPECT_THROW(
      read_blif(".model x\n.inputs a\n.outputs z\n.names a z\n1 1\n0 0\n.end"),
      ParseError);  // mixed polarity
  EXPECT_THROW(
      read_blif(".model x\n.inputs a\n.outputs z\n.names a q z\n11 1\n.end"),
      ParseError);  // undefined q
}

// ---------------------------------------------------------------------------
// Verilog
// ---------------------------------------------------------------------------

TEST(VerilogFormat, WriteStructure) {
  const gf2m::Field field(gf2::Poly{2, 1, 0});
  const auto netlist = gen::generate_mastrovito(field);
  const std::string text = write_verilog(netlist);
  EXPECT_NE(text.find("module mastrovito_m2"), std::string::npos);
  EXPECT_NE(text.find("input a0;"), std::string::npos);
  EXPECT_NE(text.find("output z0;"), std::string::npos);
  EXPECT_NE(text.find("assign"), std::string::npos);
  EXPECT_NE(text.find("endmodule"), std::string::npos);
}

TEST(VerilogFormat, RoundTripPreservesFunction) {
  const gf2m::Field field(gf2::Poly{8, 4, 3, 1, 0});
  const auto original = gen::generate_mastrovito(field);
  const auto parsed = read_verilog(write_verilog(original));
  Prng rng(7);
  EXPECT_TRUE(same_function(original, parsed, rng));
}

TEST(VerilogFormat, RoundTripRandomNetlists) {
  Prng rng(1234);
  for (int i = 0; i < 10; ++i) {
    const auto original = random_netlist(rng, 5, 20, 2);
    const auto parsed = read_verilog(write_verilog(original));
    Prng check(2000 + i);
    EXPECT_TRUE(same_function(original, parsed, check)) << "round " << i;
  }
}

TEST(VerilogFormat, OperatorPrecedence) {
  // ~ binds tighter than &, & tighter than ^, ^ tighter than |.
  const std::string text = R"(
    module prec(a, b, c, z);
      input a; input b; input c;
      output z;
      assign z = a | b ^ c & ~a;
    endmodule
  )";
  const Netlist netlist = read_verilog(text);
  sim::Simulator simulator(netlist);
  for (unsigned assignment = 0; assignment < 8; ++assignment) {
    const bool a = assignment & 1, b = assignment & 2, c = assignment & 4;
    const bool expected = a | (b ^ (c & !a));
    EXPECT_EQ(simulator.run_single({a, b, c})[0], expected) << assignment;
  }
}

TEST(VerilogFormat, TernaryAndLiterals) {
  const std::string text = R"(
    module mux(s, a, b, z, k);
      input s; input a; input b;
      output z; output k;
      assign z = s ? a : b;
      assign k = 1'b1 ^ (s & 1'b0);
    endmodule
  )";
  const Netlist netlist = read_verilog(text);
  sim::Simulator simulator(netlist);
  EXPECT_EQ(simulator.run_single({true, true, false})[0], true);
  EXPECT_EQ(simulator.run_single({false, true, false})[0], false);
  EXPECT_EQ(simulator.run_single({true, false, false})[1], true);
}

TEST(VerilogFormat, OutOfOrderAssignsAndComments) {
  const std::string text = R"(
    // comment
    module ooo(a, z);
      input a;
      output z;
      wire t; /* block
                 comment */
      assign z = ~t;
      assign t = ~a;
    endmodule
  )";
  const Netlist netlist = read_verilog(text);
  sim::Simulator simulator(netlist);
  EXPECT_EQ(simulator.run_single({true})[0], true);
}

TEST(VerilogFormat, Errors) {
  EXPECT_THROW(read_verilog("module m(a); input a; assign a = a; endmodule"),
               ParseError);
  EXPECT_THROW(
      read_verilog("module m(z); output z; assign z = q; endmodule"),
      ParseError);  // undefined operand
  EXPECT_THROW(
      read_verilog(
          "module m(z); output z; wire x; wire y;"
          "assign x = ~y; assign y = ~x; assign z = x; endmodule"),
      ParseError);  // combinational cycle
  EXPECT_THROW(read_verilog("module m(z); output z; assign z = 2'b10;"
                            " endmodule"),
               ParseError);  // unsupported literal
}

// Cross-format: eqn -> blif -> verilog -> eqn preserves the function.
TEST(CrossFormat, FullConversionChain) {
  const gf2m::Field field(gf2::Poly{4, 1, 0});
  const auto original = gen::generate_mastrovito(field);
  const auto via_eqn = read_eqn(write_eqn(original));
  const auto via_blif = read_blif(write_blif(via_eqn));
  const auto via_verilog = read_verilog(write_verilog(via_blif));
  Prng rng(9);
  EXPECT_TRUE(same_function(original, via_verilog, rng));
}

}  // namespace
}  // namespace gfre::nl
