// Frontend suite: content sniffing and the unknown_format diagnosis, the
// shared lexing substrate (CRLF, comments, file:line:column diagnostics),
// cell libraries (parse, builtin matching, call inlining, edge cases),
// structural Verilog hierarchy (flattening, instance-path names, includes
// with cycle detection, parameters, vectors, escaped identifiers), the
// three-dialect write -> parse round trips, and the frozen hierarchical
// cell-mapped fixture whose flow report must be bit-identical to its
// pre-flattened flat twin at any thread count.
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/flow.hpp"
#include "frontend/cell_library.hpp"
#include "frontend/emit_hier.hpp"
#include "frontend/frontend.hpp"
#include "gen/mastrovito.hpp"
#include "gf2m/field.hpp"
#include "helpers.hpp"
#include "netlist/io_blif.hpp"
#include "netlist/io_eqn.hpp"
#include "netlist/io_verilog.hpp"
#include "netlist/ports.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"

#ifndef GFRE_SOURCE_DIR
#define GFRE_SOURCE_DIR "."
#endif

namespace gfre {
namespace {

namespace fs = std::filesystem;
using frontend::Format;

std::string data_path(const std::string& file) {
  return std::string(GFRE_SOURCE_DIR) + "/data/" + file;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "frontend_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary);
  os << text;
  ASSERT_TRUE(os.good()) << path;
}

/// Bit-identity of two netlists: same nets by id, same gates in the same
/// creation order — the property that makes flow reports byte-diffable.
void expect_same_structure(const nl::Netlist& got, const nl::Netlist& want,
                           const std::string& label) {
  ASSERT_EQ(got.num_vars(), want.num_vars()) << label;
  ASSERT_EQ(got.inputs(), want.inputs()) << label;
  ASSERT_EQ(got.outputs(), want.outputs()) << label;
  ASSERT_EQ(got.num_gates(), want.num_gates()) << label;
  for (std::size_t i = 0; i < got.num_gates(); ++i) {
    const nl::Gate& g = got.gate(i);
    const nl::Gate& w = want.gate(i);
    EXPECT_EQ(g.type, w.type) << label << " gate " << i;
    EXPECT_EQ(g.inputs, w.inputs) << label << " gate " << i;
    EXPECT_EQ(g.output, w.output) << label << " gate " << i;
  }
}

constexpr const char* kTinyEqn =
    "model tiny\n"
    "input a b;\n"
    "output y;\n"
    "y = AND(a, b);\n";

constexpr const char* kTinyVerilog =
    "module tiny (a, b, y);\n"
    "  input a, b;\n"
    "  output y;\n"
    "  and g0 (y, a, b);\n"
    "endmodule\n";

constexpr const char* kTinyBlif =
    ".model tiny\n"
    ".inputs a b\n"
    ".outputs y\n"
    ".names a b y\n"
    "11 1\n"
    ".end\n";

// ---------------------------------------------------------------------------
// Content sniffing and the unknown_format diagnosis (satellite 1)

TEST(Sniff, DispatchesByContentNotExtension) {
  EXPECT_EQ(frontend::sniff_format(kTinyEqn), Format::Eqn);
  EXPECT_EQ(frontend::sniff_format(kTinyBlif), Format::Blif);
  EXPECT_EQ(frontend::sniff_format(kTinyVerilog), Format::Verilog);
}

TEST(Sniff, SkipsCommentsAndWhitespace) {
  EXPECT_EQ(frontend::sniff_format("// c++ comment\n\nmodule m (x);"),
            Format::Verilog);
  EXPECT_EQ(frontend::sniff_format("/* block\ncomment */ .model t\n"),
            Format::Blif);
  EXPECT_EQ(frontend::sniff_format("# hash comment\ninput a;\n"),
            Format::Eqn);
  EXPECT_EQ(frontend::sniff_format("`include \"cells.vh\"\nmodule m;"),
            Format::Verilog);
  EXPECT_EQ(frontend::sniff_format("x = AND(a, b);\n"), Format::Eqn);
}

TEST(Sniff, UnknownBytes) {
  EXPECT_EQ(frontend::sniff_format(""), Format::Unknown);
  EXPECT_EQ(frontend::sniff_format("\x7f""ELF\x02\x01"), Format::Unknown);
  EXPECT_EQ(frontend::sniff_format("{ \"json\": true }"), Format::Unknown);
}

TEST(Sniff, UnknownFormatIsDiagnosedNotCrashed) {
  try {
    frontend::parse_netlist("{ \"json\": true }", "weird.txt");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.file(), "weird.txt");
    EXPECT_EQ(e.line(), 1);
    EXPECT_NE(std::string(e.what()).find("unknown_format"),
              std::string::npos)
        << e.what();
  }
}

TEST(Sniff, LoadNetlistFileIgnoresExtension) {
  const std::string dir = fresh_dir("sniff");
  // A BLIF netlist with a lying extension must parse as BLIF.
  write_file(dir + "/circuit.eqn", kTinyBlif);
  const nl::Netlist netlist = core::load_netlist_file(dir + "/circuit.eqn");
  EXPECT_EQ(netlist.inputs().size(), 2u);
  EXPECT_EQ(netlist.outputs().size(), 1u);
}

// ---------------------------------------------------------------------------
// Shared lexing substrate: CRLF, comments, diagnostics (satellite 2)

TEST(Diagnostics, EqnCarriesFileAndLine) {
  try {
    nl::read_eqn("input a;\ny = AND(a;\n", "bad.eqn");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.file(), "bad.eqn");
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(Diagnostics, VerilogCarriesColumn) {
  const std::string text =
      "module t (a, y);\n"
      "  input a;\n"
      "  output y;\n"
      "  assign y = a &;\n"
      "endmodule\n";
  try {
    nl::read_verilog(text, "t.v");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.file(), "t.v");
    EXPECT_EQ(e.line(), 4);
    EXPECT_GT(e.column(), 0);
    // The rendered message leads with file:line:column.
    EXPECT_EQ(std::string(e.what()).rfind("t.v:4:", 0), 0u) << e.what();
  }
}

TEST(Diagnostics, LibraryCarriesFileAndLine) {
  try {
    frontend::parse_cell_library(
        "library (l) {\n  cell (X) {\n    pin (y) { }\n  }\n}\n", "l.lib");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.file(), "l.lib");
    EXPECT_EQ(e.line(), 3);
  }
}

TEST(Lexing, CrlfParsesIdenticallyInEveryDialect) {
  const auto crlf = [](std::string text) {
    std::string out;
    for (char c : text) {
      if (c == '\n') out += '\r';
      out += c;
    }
    return out;
  };
  expect_same_structure(nl::read_eqn(crlf(kTinyEqn), "t"),
                        nl::read_eqn(kTinyEqn, "t"), "eqn crlf");
  expect_same_structure(nl::read_blif(crlf(kTinyBlif), "t"),
                        nl::read_blif(kTinyBlif, "t"), "blif crlf");
  expect_same_structure(nl::read_verilog(crlf(kTinyVerilog), "t"),
                        nl::read_verilog(kTinyVerilog, "t"), "verilog crlf");
}

TEST(Lexing, BlockCommentsAndTrailingWhitespace) {
  const std::string eqn =
      "model tiny  \t\n"
      "/* a block\n   comment */ input a b;  \n"
      "output y;\n"
      "y = AND(a, b); // trailing\n";
  expect_same_structure(nl::read_eqn(eqn, "t"), nl::read_eqn(kTinyEqn, "t"),
                        "eqn comments");
  const std::string blif =
      ".model tiny\n"
      "/* block */ .inputs a b   \n"
      ".outputs y\n"
      "# hash comment\n"
      ".names a b \\\n"
      "y\n"
      "11 1\n"
      ".end\n";
  expect_same_structure(nl::read_blif(blif, "t"), nl::read_blif(kTinyBlif, "t"),
                        "blif comments + continuation");
}

// ---------------------------------------------------------------------------
// Cell libraries

std::shared_ptr<const frontend::CellLibrary> basic_library() {
  static const auto library =
      std::make_shared<const frontend::CellLibrary>(
          frontend::load_cell_library_file(
              data_path("frontend/cells_basic.lib")));
  return library;
}

TEST(CellLibrary, ParsesTheShippedLibraryWithBuiltinMatches) {
  const auto library = basic_library();
  EXPECT_EQ(library->name(), "gfre_cells");
  const struct {
    const char* cell;
    nl::CellType type;
  } expectations[] = {
      {"INV", nl::CellType::Inv},     {"BUF", nl::CellType::Buf},
      {"AND4", nl::CellType::And},    {"NAND3", nl::CellType::Nand},
      {"NOR2", nl::CellType::Nor},    {"OR3", nl::CellType::Or},
      {"XOR2", nl::CellType::Xor},    {"XNOR3", nl::CellType::Xnor},
      {"MUX2", nl::CellType::Mux},    {"AOI21", nl::CellType::Aoi21},
      {"OAI21", nl::CellType::Oai21}, {"AOI22", nl::CellType::Aoi22},
      {"OAI22", nl::CellType::Oai22}, {"MAJ3", nl::CellType::Maj3},
      {"TIE0", nl::CellType::Const0}, {"TIE1", nl::CellType::Const1},
      // XNOR2 is defined through a cell call ("INV(XOR2(a1, a2))"); the
      // load-time inliner must still land on the builtin truth table.
      {"XNOR2", nl::CellType::Xnor},
  };
  for (const auto& expectation : expectations) {
    const frontend::LibCell* cell = library->find(expectation.cell);
    ASSERT_NE(cell, nullptr) << expectation.cell;
    ASSERT_TRUE(cell->builtin.has_value()) << expectation.cell;
    EXPECT_EQ(*cell->builtin, expectation.type) << expectation.cell;
  }
}

TEST(CellLibrary, RecursiveDefinitionIsDiagnosed) {
  const std::string text =
      "library (loop) {\n"
      "  cell (A) {\n"
      "    pin (x) { direction : input; }\n"
      "    pin (y) { direction : output; function : \"A(x)\"; }\n"
      "  }\n"
      "}\n";
  try {
    frontend::parse_cell_library(text, "loop.lib");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("recursive"), std::string::npos)
        << e.what();
  }
}

TEST(CellLibrary, UnknownCellWithoutLibrary) {
  EXPECT_THROW(
      nl::read_eqn("input a b;\noutput y;\ny = AOI211(a, b, a, b, a);\n",
                   "t.eqn"),
      ParseError);
}

TEST(CellLibrary, UnknownCellWithLibraryNamesTheLibrary) {
  frontend::FrontendOptions options;
  options.library = basic_library();
  try {
    nl::read_eqn("input a;\noutput y;\ny = NOSUCH(a);\n", "t.eqn", options);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("NOSUCH"), std::string::npos) << what;
    EXPECT_NE(what.find("gfre_cells"), std::string::npos) << what;
  }
}

TEST(CellLibrary, ArityMismatchIsDiagnosed) {
  frontend::FrontendOptions options;
  options.library = basic_library();
  try {
    nl::read_eqn("input a b;\noutput y;\ny = MUX2(a, b);\n", "t.eqn",
                 options);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("MUX2"), std::string::npos) << what;
  }
  // Verilog: a positional instance with the wrong connection count.
  const std::string verilog =
      "module t (a, b, y);\n"
      "  input a, b;\n  output y;\n"
      "  MUX2 g0 (a, b, y);\n"
      "endmodule\n";
  EXPECT_THROW(nl::read_verilog(verilog, "t.v", options), ParseError);
}

TEST(CellLibrary, EqnCellReferencesParseThroughTheLibrary) {
  frontend::FrontendOptions options;
  options.library = basic_library();
  // AOI21 is builtin-matched (single gate); a non-builtin cell would
  // expand, but builtins must stay single gates for bit-identity.
  const nl::Netlist netlist = nl::read_eqn(
      "input a b c;\noutput y;\ny = AOI21(a, b, c);\n", "t.eqn", options);
  ASSERT_EQ(netlist.num_gates(), 1u);
  EXPECT_EQ(netlist.gate(0).type, nl::CellType::Aoi21);
}

TEST(CellLibrary, VerilogCellInstancesNamedAndPositional) {
  frontend::FrontendOptions options;
  options.library = basic_library();
  const std::string named =
      "module t (a, b, c, y);\n"
      "  input a, b, c;\n  output y;\n"
      "  AOI21 g0 (.a1(a), .a2(b), .b(c), .y(y));\n"
      "endmodule\n";
  // Positional connections follow the primitive convention: output first.
  const std::string positional =
      "module t (a, b, c, y);\n"
      "  input a, b, c;\n  output y;\n"
      "  AOI21 g0 (y, a, b, c);\n"
      "endmodule\n";
  expect_same_structure(nl::read_verilog(named, "n.v", options),
                        nl::read_verilog(positional, "p.v", options),
                        "named vs positional cell pins");
}

/// A library whose one cell (y = a & !b) matches no builtin, so every
/// instance goes through the structural expansion.
std::shared_ptr<const frontend::CellLibrary> andn_library() {
  return std::make_shared<const frontend::CellLibrary>(
      frontend::parse_cell_library(
          "library (andn_only) {\n"
          "  cell (ANDN) {\n"
          "    pin (a) { direction : input; }\n"
          "    pin (b) { direction : input; }\n"
          "    pin (y) { direction : output; function : \"a & !b\"; }\n"
          "  }\n"
          "}\n",
          "andn.lib"));
}

/// The GF(2^4) Mastrovito multiplier as .eqn and as Verilog, statement for
/// statement, with every AND(u, v) written as ANDN(u, INV(v)).
std::pair<std::string, std::string> andn_multiplier_twins() {
  const nl::Netlist mult =
      gen::generate_mastrovito(gf2m::Field(gf2::Poly{4, 1, 0}));
  const auto names = [&](const std::vector<nl::Var>& vars) {
    std::string list;
    for (nl::Var v : vars)
      list += (list.empty() ? "" : ", ") + mult.var_name(v);
    return list;
  };
  std::vector<nl::Var> ports = mult.inputs();
  ports.insert(ports.end(), mult.outputs().begin(), mult.outputs().end());
  std::string eqn = "input " + names(mult.inputs()) + ";\noutput " +
                    names(mult.outputs()) + ";\n";
  std::string verilog = "module m4 (" + names(ports) + ");\n  input " +
                        names(mult.inputs()) + ";\n  output " +
                        names(mult.outputs()) + ";\n";
  for (std::size_t g : mult.topological_order()) {
    const nl::Gate& gate = mult.gate(g);
    const std::string out = mult.var_name(gate.output);
    const std::string id = std::to_string(g);
    if (gate.type == nl::CellType::And) {
      const std::string u = mult.var_name(gate.inputs[0]);
      const std::string v = mult.var_name(gate.inputs[1]);
      eqn += "inv_" + out + " = INV(" + v + ");\n" + out + " = ANDN(" + u +
             ", inv_" + out + ");\n";
      verilog += "  not g" + id + " (inv_" + out + ", " + v + ");\n  ANDN u" +
                 id + " (" + out + ", " + u + ", inv_" + out + ");\n";
    } else {
      // XOR / BUF: the .eqn mnemonic, lower-cased, is the primitive.
      const std::string op = nl::cell_name(gate.type);
      std::string primitive = op;
      for (char& c : primitive) c = static_cast<char>(std::tolower(c));
      eqn += out + " = " + op + "(" + names(gate.inputs) + ");\n";
      verilog += "  " + primitive + " g" + id + " (" + out + ", " +
                 names(gate.inputs) + ");\n";
    }
  }
  return {eqn, verilog + "endmodule\n"};
}

TEST(CellLibrary, ExpandedCellIsIdenticalFromEqnAndVerilog) {
  frontend::FrontendOptions options;
  options.library = andn_library();
  ASSERT_FALSE(options.library->find("ANDN")->builtin.has_value());
  const auto [eqn, verilog] = andn_multiplier_twins();
  const nl::Netlist from_eqn = nl::read_eqn(eqn, "m4.eqn", options);
  const nl::Netlist from_verilog = nl::read_verilog(verilog, "m4.v", options);
  expect_same_structure(from_verilog, from_eqn, "ANDN expansion eqn vs v");
  // Each ANDN expands into an auto-named INV plus the named AND.
  EXPECT_EQ(from_eqn.cell_histogram().at(nl::CellType::Inv),
            2 * from_eqn.cell_histogram().at(nl::CellType::And));

  const core::FlowReport eqn_report = core::reverse_engineer(from_eqn);
  ASSERT_TRUE(eqn_report.success) << eqn_report.summary();
  EXPECT_EQ(eqn_report.recovery.p.to_string(), "x^4+x+1");
  test::expect_reports_equal(core::reverse_engineer(from_verilog),
                             eqn_report, "ANDN expansion eqn vs v report");
}

TEST(CellLibrary, DeclaredAutoStyleNameSurvivesEarlierExpansion) {
  // The ANDN expansion creates an auto-named INV before the statement
  // declaring n0 instantiates; the helper must not take the name n0.
  frontend::FrontendOptions options;
  options.library = andn_library();
  const nl::Netlist netlist = nl::read_eqn(
      "input a b;\noutput y n0;\n"
      "t = ANDN(a, b);\n"
      "n0 = XOR(a, b);\n"
      "y = AND(t, n0);\n",
      "t.eqn", options);
  const auto n0 = netlist.find_var("n0");
  ASSERT_TRUE(n0.has_value());
  ASSERT_TRUE(netlist.driver(*n0).has_value());
  EXPECT_EQ(netlist.gate(*netlist.driver(*n0)).type, nl::CellType::Xor);
  const auto t = netlist.find_var("t");
  ASSERT_TRUE(t.has_value());
  const nl::Gate& and_gate = netlist.gate(*netlist.driver(*t));
  EXPECT_EQ(and_gate.type, nl::CellType::And);
  EXPECT_NE(netlist.var_name(and_gate.inputs[1]), "n0");
}

// ---------------------------------------------------------------------------
// Verilog assign expressions

TEST(Assigns, CompoundExpressionsEmitPinnedGates) {
  // Nested ~ & | ^, ?: (both branches defined later: the else branch's
  // gates come first, in operand order), repeated leaves, 1'b1 inside an
  // expression, a bare-net assign (a BUF), statements out of topological
  // order, and one submodule instantiated twice.
  const std::string text =
      "module pair (p, q, r);\n"
      "  input p, q;\n"
      "  output r;\n"
      "  wire t;\n"
      "  assign r = t ^ (p | 1'b1 & q);\n"
      "  assign t = ~(p & q) | p;\n"
      "endmodule\n"
      "module top (a, b, c, s, y0, y1, y2, y3);\n"
      "  input a, b, c, s;\n"
      "  output y0, y1, y2, y3;\n"
      "  wire t0, t1, t2;\n"
      "  assign y0 = s ? t1 : t0;\n"
      "  assign y1 = t2 ^ ~(a & 1'b1);\n"
      "  assign t0 = (a ^ b) & ~(c | a);\n"
      "  assign t1 = b;\n"
      "  pair u0 (.p(a), .q(t0), .r(t2));\n"
      "  pair u1 (.p(t1), .q(c), .r(y2));\n"
      "  assign y3 = ((a & b) | (~c ^ s)) ? a : 1'b0;\n"
      "endmodule\n";
  const nl::Netlist netlist = nl::read_verilog(text, "compound.v");
  std::string got = nl::write_eqn(netlist) + "vars:";
  for (nl::Var v = 0; v < netlist.num_vars(); ++v)
    got += " " + netlist.var_name(v);
  EXPECT_EQ(got,
            "# gfre .eqn netlist — 30 equations\n"
            "model top\n"
            "input a b c s;\n"
            "output y0 y1 y2 y3;\n"
            "n0 = XOR(a, b);\n"
            "n1 = OR(c, a);\n"
            "n2 = INV(n1);\n"
            "t0 = AND(n0, n2);\n"
            "t1 = BUF(b);\n"
            "y0 = MUX(s, t0, t1);\n"
            "n3 = AND(a, t0);\n"
            "n4 = INV(n3);\n"
            "u0.t = OR(n4, a);\n"
            "n5 = CONST1();\n"
            "n6 = AND(n5, t0);\n"
            "n7 = OR(a, n6);\n"
            "t2 = XOR(u0.t, n7);\n"
            "n8 = CONST1();\n"
            "n9 = AND(a, n8);\n"
            "n10 = INV(n9);\n"
            "y1 = XOR(t2, n10);\n"
            "n11 = AND(t1, c);\n"
            "n12 = INV(n11);\n"
            "u1.t = OR(n12, t1);\n"
            "n13 = CONST1();\n"
            "n14 = AND(n13, c);\n"
            "n15 = OR(t1, n14);\n"
            "y2 = XOR(u1.t, n15);\n"
            "n16 = AND(a, b);\n"
            "n17 = INV(c);\n"
            "n18 = XOR(n17, s);\n"
            "n19 = OR(n16, n18);\n"
            "n20 = CONST0();\n"
            "y3 = MUX(n19, n20, a);\n"
            "vars: a b c s n0 n1 n2 t0 t1 y0 n3 n4 u0.t n5 n6 n7 t2 n8 n9 n10 "
            "y1 n11 n12 u1.t n13 n14 n15 y2 n16 n17 n18 n19 n20 y3");
}

// ---------------------------------------------------------------------------
// Structural Verilog: hierarchy, includes, parameters, vectors

TEST(Hierarchy, FlattensWithInstancePathNames) {
  const std::string text =
      "module half (x, y, s, c);\n"
      "  input x, y;\n  output s, c;\n"
      "  xor g0 (s, x, y);\n"
      "  and g1 (c, x, y);\n"
      "endmodule\n"
      "module top (a, b, sum, carry);\n"
      "  input a, b;\n  output sum, carry;\n"
      "  half u0 (.x(a), .y(b), .s(sum), .c(carry));\n"
      "endmodule\n";
  const nl::Netlist netlist = nl::read_verilog(text, "top.v");
  EXPECT_EQ(netlist.name(), "top");
  EXPECT_EQ(netlist.num_gates(), 2u);
  EXPECT_EQ(netlist.inputs().size(), 2u);
  EXPECT_EQ(netlist.outputs().size(), 2u);
}

TEST(Hierarchy, InternalNetsGetInstancePathNames) {
  const std::string text =
      "module inner (x, y);\n"
      "  input x;\n  output y;\n"
      "  wire t;\n"
      "  not g0 (t, x);\n"
      "  not g1 (y, t);\n"
      "endmodule\n"
      "module top (a, z);\n"
      "  input a;\n  output z;\n"
      "  inner u0 (.x(a), .y(z));\n"
      "endmodule\n";
  const nl::Netlist netlist = nl::read_verilog(text, "top.v");
  // The inner wire 't' must be reachable under its instance path.
  EXPECT_TRUE(netlist.find_var("u0.t").has_value());
}

TEST(Hierarchy, MissingModuleIsDiagnosed) {
  const std::string text =
      "module top (a, z);\n"
      "  input a;\n  output z;\n"
      "  ghost u0 (.x(a), .y(z));\n"
      "endmodule\n";
  try {
    nl::read_verilog(text, "top.v");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("ghost"), std::string::npos)
        << e.what();
  }
}

TEST(Hierarchy, RecursiveInstantiationIsDiagnosed) {
  const std::string text =
      "module a (x, y);\n"
      "  input x;\n  output y;\n"
      "  b u0 (.x(x), .y(y));\n"
      "endmodule\n"
      "module b (x, y);\n"
      "  input x;\n  output y;\n"
      "  a u0 (.x(x), .y(y));\n"
      "endmodule\n"
      "module top (p, q);\n"
      "  input p;\n  output q;\n"
      "  a u0 (.x(p), .y(q));\n"
      "endmodule\n";
  try {
    nl::read_verilog(text, "top.v");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_TRUE(what.find("recursive") != std::string::npos ||
                what.find("too deep") != std::string::npos)
        << what;
  }
}

TEST(Hierarchy, TopOverrideSelectsAModule) {
  const std::string text =
      "module one (a, y);\n"
      "  input a;\n  output y;\n"
      "  buf g0 (y, a);\n"
      "endmodule\n"
      "module two (a, y);\n"
      "  input a;\n  output y;\n"
      "  not g0 (y, a);\n"
      "endmodule\n";
  frontend::FrontendOptions options;
  options.top = "two";
  const nl::Netlist netlist = nl::read_verilog(text, "t.v", options);
  EXPECT_EQ(netlist.name(), "two");
  ASSERT_EQ(netlist.num_gates(), 1u);
  EXPECT_EQ(netlist.gate(0).type, nl::CellType::Inv);
}

TEST(Include, ResolvesRelativeToTheIncludingFile) {
  const std::string dir = fresh_dir("include");
  write_file(dir + "/cells.vh",
             "module inv2 (x, y);\n"
             "  input x;\n  output y;\n"
             "  wire t;\n"
             "  not g0 (t, x);\n"
             "  not g1 (y, t);\n"
             "endmodule\n");
  write_file(dir + "/top.v",
             "`include \"cells.vh\"\n"
             "module top (a, z);\n"
             "  input a;\n  output z;\n"
             "  inv2 u0 (.x(a), .y(z));\n"
             "endmodule\n");
  const nl::Netlist netlist = core::load_netlist_file(dir + "/top.v");
  EXPECT_EQ(netlist.name(), "top");
  EXPECT_EQ(netlist.num_gates(), 2u);
}

TEST(Include, CycleIsDiagnosed) {
  const std::string dir = fresh_dir("include_cycle");
  write_file(dir + "/a.vh", "`include \"b.vh\"\n");
  write_file(dir + "/b.vh", "`include \"a.vh\"\n");
  write_file(dir + "/top.v",
             "`include \"a.vh\"\nmodule top (a);\n  input a;\nendmodule\n");
  try {
    core::load_netlist_file(dir + "/top.v");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("cycle"), std::string::npos)
        << e.what();
  }
}

TEST(Include, MissingFileIsDiagnosed) {
  const std::string dir = fresh_dir("include_missing");
  write_file(dir + "/top.v",
             "`include \"nope.vh\"\nmodule top (a);\n  input a;\nendmodule\n");
  EXPECT_THROW(core::load_netlist_file(dir + "/top.v"), ParseError);
}

TEST(Parameters, FoldInRangesAndSelects) {
  const std::string text =
      "module top #(parameter M = 4) (a, z);\n"
      "  localparam HALF = M / 2;\n"
      "  input [M-1:0] a;\n"
      "  output z;\n"
      "  and g0 (z, a[HALF], a[M-1]);\n"
      "endmodule\n";
  const nl::Netlist netlist = nl::read_verilog(text, "t.v");
  EXPECT_EQ(netlist.inputs().size(), 4u);
  ASSERT_EQ(netlist.num_gates(), 1u);
  // a[HALF] = a[2], a[M-1] = a[3].
  EXPECT_EQ(netlist.gate(0).inputs[0], *netlist.find_var("a[2]"));
  EXPECT_EQ(netlist.gate(0).inputs[1], *netlist.find_var("a[3]"));
}

TEST(Parameters, InstanceOverridesApply) {
  const std::string text =
      "module wide #(parameter W = 2) (a, y);\n"
      "  input [W-1:0] a;\n"
      "  output y;\n"
      "  xor g0 (y, a[0], a[W-1]);\n"
      "endmodule\n"
      "module top (p, q, r, s, y);\n"
      "  input p, q, r, s;\n  output y;\n"
      "  wide #(.W(4)) u0 (.a({s, r, q, p}), .y(y));\n"
      "endmodule\n";
  // Concatenation may or may not be in the subset; accept either a clean
  // parse or a diagnosed ParseError — never a crash.
  try {
    const nl::Netlist netlist = nl::read_verilog(text, "t.v");
    EXPECT_EQ(netlist.inputs().size(), 4u);
  } catch (const ParseError&) {
  }
}

TEST(Vectors, PortsFlattenToBracketBitsAndGroupBack) {
  const std::string text =
      "module mul (a, b, z);\n"
      "  input [1:0] a;\n"
      "  input [1:0] b;\n"
      "  output [1:0] z;\n"
      "  and g0 (z[0], a[0], b[0]);\n"
      "  xor g1 (z[1], a[1], b[1]);\n"
      "endmodule\n";
  const nl::Netlist netlist = nl::read_verilog(text, "t.v");
  ASSERT_EQ(netlist.inputs().size(), 4u);
  EXPECT_EQ(netlist.var_name(netlist.inputs()[0]), "a[0]");
  // find_word_port must fall back to bracket-style names...
  const auto a = nl::find_word_port(netlist, "a");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->width(), 2u);
  // ...and group_ports must split them for inference.
  const auto inferred = nl::infer_multiplier_ports(netlist);
  ASSERT_TRUE(inferred.has_value());
  EXPECT_EQ(inferred->m(), 2u);
}

TEST(EscapedIdentifiers, RoundTripThroughTheWriter) {
  nl::Netlist netlist("escaped");
  const nl::Var a = netlist.add_input("data.in[3]");
  const nl::Var b = netlist.add_input("clk$aux");
  const nl::Var y = netlist.add_gate(nl::CellType::And, {a, b}, "u0.y");
  netlist.mark_output(y);
  const std::string text = nl::write_verilog(netlist);
  const nl::Netlist back = nl::read_verilog(text, "esc.v");
  ASSERT_EQ(back.inputs().size(), 2u);
  EXPECT_EQ(back.var_name(back.inputs()[0]), "data.in[3]");
  EXPECT_EQ(back.var_name(back.inputs()[1]), "clk$aux");
  ASSERT_EQ(back.outputs().size(), 1u);
  EXPECT_EQ(back.var_name(back.outputs()[0]), "u0.y");
}

// ---------------------------------------------------------------------------
// Write -> parse round trips across the three dialects (satellite 3)

TEST(RoundTrip, EqnIsStructurePreserving) {
  Prng rng(2024);
  for (int i = 0; i < 8; ++i) {
    const nl::Netlist netlist = test::random_netlist(rng, 6, 30, 3);
    const nl::Netlist back =
        nl::read_eqn(nl::write_eqn(netlist), "roundtrip.eqn");
    expect_same_structure(back, netlist, "eqn roundtrip " + std::to_string(i));
  }
}

TEST(RoundTrip, BlifAndVerilogPreserveFunction) {
  Prng rng(7);
  for (int i = 0; i < 6; ++i) {
    const nl::Netlist netlist = test::random_netlist(rng, 6, 24, 3);
    const nl::Netlist via_blif =
        nl::read_blif(nl::write_blif(netlist), "rt.blif");
    EXPECT_TRUE(test::same_function(netlist, via_blif, rng))
        << "blif roundtrip " << i;
    const nl::Netlist via_verilog =
        nl::read_verilog(nl::write_verilog(netlist), "rt.v");
    EXPECT_TRUE(test::same_function(netlist, via_verilog, rng))
        << "verilog roundtrip " << i;
  }
}

TEST(RoundTrip, SniffedParseMatchesDirectParse) {
  Prng rng(99);
  const nl::Netlist netlist = test::random_netlist(rng, 5, 20, 2);
  const std::string eqn = nl::write_eqn(netlist);
  const std::string blif = nl::write_blif(netlist);
  const std::string verilog = nl::write_verilog(netlist);
  expect_same_structure(frontend::parse_netlist(eqn, "x"),
                        nl::read_eqn(eqn, "x"), "sniffed eqn");
  expect_same_structure(frontend::parse_netlist(blif, "x"),
                        nl::read_blif(blif, "x"), "sniffed blif");
  expect_same_structure(frontend::parse_netlist(verilog, "x"),
                        nl::read_verilog(verilog, "x"), "sniffed verilog");
}

// ---------------------------------------------------------------------------
// Hierarchical emission and the frozen cell-mapped fixture (the tentpole
// acceptance: flattened-hierarchical == pre-flattened-flat, bit for bit)

TEST(EmitHier, RoundTripsBitIdenticallyWithTheLibrary) {
  Prng rng(4242);
  // Ports named like a multiplier so the emitter vectorizes them.
  nl::Netlist netlist("unit");
  std::vector<nl::Var> pool;
  for (int i = 0; i < 4; ++i)
    pool.push_back(netlist.add_input("a" + std::to_string(i)));
  for (int i = 0; i < 4; ++i)
    pool.push_back(netlist.add_input("b" + std::to_string(i)));
  for (int g = 0; g < 40; ++g) {
    const nl::CellType kinds[] = {
        nl::CellType::And,   nl::CellType::Xor,   nl::CellType::Mux,
        nl::CellType::Aoi21, nl::CellType::Oai22, nl::CellType::Maj3,
        nl::CellType::Nand,  nl::CellType::Xnor};
    const nl::CellType type = kinds[rng.next_below(8)];
    std::size_t arity = type == nl::CellType::Oai22 ? 4
                        : (type == nl::CellType::Mux ||
                           type == nl::CellType::Aoi21 ||
                           type == nl::CellType::Maj3)
                            ? 3
                            : 2;
    std::vector<nl::Var> inputs;
    for (std::size_t i = 0; i < arity; ++i)
      inputs.push_back(pool[rng.next_below(pool.size())]);
    pool.push_back(netlist.add_gate(type, std::move(inputs)));
  }
  for (int i = 0; i < 4; ++i) {
    netlist.reserve_name("z" + std::to_string(i));
    const nl::Var z = netlist.add_gate(
        nl::CellType::Buf, {pool[pool.size() - 5 + i]},
        "z" + std::to_string(i));
    netlist.mark_output(z);
  }

  frontend::HierEmitOptions options;
  options.chunks = 3;
  options.library = basic_library();
  const frontend::HierEmitResult emitted =
      frontend::emit_hier_verilog(netlist, options);
  frontend::FrontendOptions parse_options;
  parse_options.library = basic_library();
  const nl::Netlist back =
      nl::read_verilog(emitted.top, "unit_hier.v", parse_options);
  expect_same_structure(back, netlist, "emit_hier roundtrip");
}

struct FrozenFixture {
  nl::Netlist flat;
  nl::Netlist hier;

  static FrozenFixture load() {
    return {core::load_netlist_file(
                data_path("frontend/mastrovito_hier_m16_flat.eqn")),
            core::load_netlist_file(
                data_path("frontend/mastrovito_hier_m16.v"),
                data_path("frontend/cells_basic.lib"))};
  }
};

TEST(FrozenFixture, HierarchicalParsesBitIdenticalToFlat) {
  const FrozenFixture fixture = FrozenFixture::load();
  expect_same_structure(fixture.hier, fixture.flat, "m16 frozen fixture");
}

TEST(FrozenFixture, FlowReportsAreBitIdenticalAtOneAndEightThreads) {
  const FrozenFixture fixture = FrozenFixture::load();
  for (const unsigned threads : {1u, 8u}) {
    core::FlowOptions options;
    options.threads = threads;
    const core::FlowReport flat_report =
        core::reverse_engineer(fixture.flat, options);
    const core::FlowReport hier_report =
        core::reverse_engineer(fixture.hier, options);
    ASSERT_TRUE(flat_report.success) << threads << " threads";
    EXPECT_EQ(flat_report.recovery.p.to_string(), "x^16+x^5+x^3+x+1");
    test::expect_reports_equal(hier_report, flat_report,
                               "m16 hier-vs-flat @" +
                                   std::to_string(threads) + " threads");
  }
}

}  // namespace
}  // namespace gfre
