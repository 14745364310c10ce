// Tests for the netlist graph: construction, topology, cones, validation.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "netlist/netlist.hpp"
#include "netlist/ports.hpp"
#include "util/error.hpp"
#include "util/name_table.hpp"

namespace gfre::nl {
namespace {

Netlist tiny_xor_and() {
  // z = (a & b) ^ c
  Netlist n("tiny");
  const Var a = n.add_input("a");
  const Var b = n.add_input("b");
  const Var c = n.add_input("c");
  const Var t = n.add_gate(CellType::And, {a, b}, "t");
  const Var z = n.add_gate(CellType::Xor, {t, c}, "z");
  n.mark_output(z);
  return n;
}

TEST(Netlist, BasicConstruction) {
  const Netlist n = tiny_xor_and();
  EXPECT_EQ(n.name(), "tiny");
  EXPECT_EQ(n.num_gates(), 2u);
  EXPECT_EQ(n.num_equations(), 2u);
  EXPECT_EQ(n.num_vars(), 5u);
  EXPECT_EQ(n.inputs().size(), 3u);
  EXPECT_EQ(n.outputs().size(), 1u);
  EXPECT_EQ(n.var_name(n.outputs()[0]), "z");
  n.validate();
}

TEST(Netlist, InputAndDriverQueries) {
  const Netlist n = tiny_xor_and();
  const Var a = *n.find_var("a");
  const Var t = *n.find_var("t");
  EXPECT_TRUE(n.is_input(a));
  EXPECT_FALSE(n.is_input(t));
  EXPECT_FALSE(n.driver(a).has_value());
  ASSERT_TRUE(n.driver(t).has_value());
  EXPECT_EQ(n.gate(*n.driver(t)).type, CellType::And);
  EXPECT_FALSE(n.find_var("nope").has_value());
}

TEST(Netlist, AutoNamesAreUnique) {
  Netlist n;
  const Var a = n.add_input("a");
  const Var g1 = n.add_gate(CellType::Inv, {a});
  const Var g2 = n.add_gate(CellType::Inv, {g1});
  EXPECT_NE(n.var_name(g1), n.var_name(g2));
}

TEST(Netlist, DuplicateNameRejected) {
  Netlist n;
  n.add_input("a");
  EXPECT_THROW(n.add_input("a"), Error);
  const Var a = *n.find_var("a");
  EXPECT_THROW(n.add_gate(CellType::Inv, {a}, "a"), Error);
}

TEST(NameTable, DenseIdsInInsertionOrder) {
  util::NameTable table;
  EXPECT_EQ(table.find("a"), util::NameTable::kMissing);
  EXPECT_EQ(table.intern("b"), std::make_pair(util::NameTable::Id{0}, true));
  EXPECT_EQ(table.intern("a"), std::make_pair(util::NameTable::Id{1}, true));
  EXPECT_EQ(table.intern("b"), std::make_pair(util::NameTable::Id{0}, false));
  EXPECT_EQ(table.intern(""), std::make_pair(util::NameTable::Id{2}, true));
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.name(0), "b");
  EXPECT_EQ(table.name(1), "a");
  EXPECT_EQ(table.find("a"), 1u);
  EXPECT_EQ(table.find(""), 2u);
  EXPECT_EQ(table.find("c"), util::NameTable::kMissing);
  EXPECT_EQ(table.find("bb"), util::NameTable::kMissing);
}

TEST(NameTable, GrowsThroughManyRehashesWithStableNames) {
  constexpr std::uint32_t kNames = 1u << 20;
  util::NameTable table;
  const std::string& first = table.name(table.intern("n0").first);
  for (std::uint32_t i = 1; i < kNames; ++i)
    ASSERT_EQ(table.intern("n" + std::to_string(i)).first, i);
  EXPECT_EQ(table.size(), kNames);
  EXPECT_EQ(&first, &table.name(0));  // names never move
  EXPECT_EQ(first, "n0");
  for (std::uint32_t i = 0; i < kNames; i += 997) {
    const std::string name = "n" + std::to_string(i);
    ASSERT_EQ(table.find(name), i);
    ASSERT_EQ(table.name(i), name);
    ASSERT_FALSE(table.intern(name).second);
  }
  EXPECT_EQ(table.find("n" + std::to_string(kNames)),
            util::NameTable::kMissing);
}

TEST(Netlist, CopiedAndMovedNetlistsOwnTheirNames) {
  auto original = std::make_unique<Netlist>(tiny_xor_and());
  original->reserve_name("kept");
  const Netlist copy = *original;
  Netlist source = *original;
  const Netlist moved = std::move(source);
  original.reset();
  for (const Netlist* n : {&copy, &moved}) {
    EXPECT_EQ(n->var_name(0), "a");
    EXPECT_EQ(n->var_name(3), "t");
    EXPECT_EQ(n->var_name(n->outputs()[0]), "z");
    EXPECT_EQ(n->find_var("c"), Var{2});
    EXPECT_EQ(n->find_var("z"), Var{4});
    EXPECT_FALSE(n->find_var("kept").has_value());
    EXPECT_FALSE(n->find_var("nope").has_value());
  }
  // A copy grows its own table: new names do not leak into the other.
  Netlist grown = copy;
  grown.add_gate(CellType::Inv, {0}, "fresh");
  EXPECT_TRUE(grown.find_var("fresh").has_value());
  EXPECT_FALSE(copy.find_var("fresh").has_value());
}

TEST(Netlist, ReservedNameIsInvisibleUntilANetTakesIt) {
  Netlist n;
  const Var a = n.add_input("a");
  n.reserve_name("out");
  n.reserve_name("out");  // reserving twice is harmless
  EXPECT_FALSE(n.find_var("out").has_value());
  EXPECT_EQ(n.num_vars(), 1u);
  const Var out = n.add_gate(CellType::Inv, {a}, "out");
  EXPECT_EQ(n.find_var("out"), out);
  EXPECT_EQ(n.var_name(out), "out");
  EXPECT_THROW(n.add_gate(CellType::Buf, {a}, "out"), Error);
}

TEST(Netlist, AutoNamesSkipDeclaredAndReservedNames) {
  Netlist n;
  const Var a = n.add_input("n0");
  n.reserve_name("n1");
  n.add_gate(CellType::Buf, {a}, "n3");
  const Var g1 = n.add_gate(CellType::Inv, {a});
  const Var g2 = n.add_gate(CellType::Inv, {g1});
  const Var g3 = n.add_gate(CellType::Inv, {g2});
  EXPECT_EQ(n.var_name(g1), "n2");
  EXPECT_EQ(n.var_name(g2), "n4");
  EXPECT_EQ(n.var_name(g3), "n5");
  // The reserved name is still free for the net it was reserved for.
  const Var late = n.add_gate(CellType::Inv, {g3}, "n1");
  EXPECT_EQ(n.find_var("n1"), late);
}

TEST(Netlist, AdoptedNamesAreReservedAndTakenById) {
  util::NameTable names;
  const NameId z = names.intern("z").first;
  const NameId a = names.intern("a").first;
  names.intern("n0");
  Netlist n;
  n.adopt_names(std::move(names));
  EXPECT_FALSE(n.find_var("a").has_value());
  const Var va = n.add_input(a);
  const Var aux = n.add_gate(CellType::Inv, {va});
  const Var vz = n.add_gate(CellType::Buf, {aux}, z);
  EXPECT_EQ(n.var_name(va), "a");
  EXPECT_EQ(n.var_name(aux), "n1");  // "n0" is reserved
  EXPECT_EQ(n.var_name(vz), "z");
  EXPECT_EQ(n.find_var("z"), vz);
  EXPECT_FALSE(n.find_var("n0").has_value());
  EXPECT_THROW(n.add_gate(CellType::Inv, {va}, z), Error);
  EXPECT_THROW(n.add_input(a), Error);
}

TEST(Netlist, BadArityRejected) {
  Netlist n;
  const Var a = n.add_input("a");
  EXPECT_THROW(n.add_gate(CellType::And, {a}), Error);
  EXPECT_THROW(n.add_gate(CellType::Inv, {a, a}), Error);
  EXPECT_THROW(n.add_gate(CellType::Mux, {a, a}), Error);
}

TEST(Netlist, UndeclaredInputRejected) {
  Netlist n;
  const Var a = n.add_input("a");
  EXPECT_THROW(n.add_gate(CellType::Inv, {static_cast<Var>(a + 100)}), Error);
}

TEST(Netlist, TopologicalOrderRespectsDependencies) {
  const Netlist n = tiny_xor_and();
  const auto order = n.topological_order();
  ASSERT_EQ(order.size(), 2u);
  // AND (driving t) must precede XOR (consuming t).
  EXPECT_EQ(n.gate(order[0]).type, CellType::And);
  EXPECT_EQ(n.gate(order[1]).type, CellType::Xor);
}

TEST(Netlist, FaninConeAndInputs) {
  // Two independent outputs share nothing.
  Netlist n;
  const Var a = n.add_input("a");
  const Var b = n.add_input("b");
  const Var c = n.add_input("c");
  const Var x = n.add_gate(CellType::And, {a, b}, "x");
  const Var y = n.add_gate(CellType::Inv, {c}, "y");
  n.mark_output(x);
  n.mark_output(y);

  const auto cone_x = n.fanin_cone(x);
  ASSERT_EQ(cone_x.size(), 1u);
  EXPECT_EQ(n.gate(cone_x[0]).output, x);
  EXPECT_EQ(n.cone_inputs(x), (std::vector<Var>{a, b}));
  EXPECT_EQ(n.cone_inputs(y), (std::vector<Var>{c}));
  // Cone of an input is empty.
  EXPECT_TRUE(n.fanin_cone(a).empty());
}

TEST(Netlist, ConeIsTransitive) {
  Netlist n;
  const Var a = n.add_input("a");
  const Var b = n.add_input("b");
  Var t = n.add_gate(CellType::And, {a, b});
  for (int i = 0; i < 5; ++i) t = n.add_gate(CellType::Inv, {t});
  n.mark_output(t);
  EXPECT_EQ(n.fanin_cone(t).size(), 6u);
}

TEST(Netlist, DepthLongestPath) {
  Netlist n;
  const Var a = n.add_input("a");
  const Var b = n.add_input("b");
  const Var g1 = n.add_gate(CellType::And, {a, b});
  const Var g2 = n.add_gate(CellType::Inv, {g1});
  const Var g3 = n.add_gate(CellType::Xor, {g2, a});
  n.mark_output(g3);
  EXPECT_EQ(n.depth(), 3u);
}

TEST(Netlist, CellHistogramAndXorCount) {
  Netlist n;
  const Var a = n.add_input("a");
  const Var b = n.add_input("b");
  const Var c = n.add_input("c");
  n.add_gate(CellType::Xor, {a, b, c});  // counts as 2 XOR2
  const Var x = n.add_gate(CellType::Xor, {a, b});
  const Var y = n.add_gate(CellType::Xnor, {x, c});
  n.mark_output(y);
  const auto histogram = n.cell_histogram();
  EXPECT_EQ(histogram.at(CellType::Xor), 2u);
  EXPECT_EQ(histogram.at(CellType::Xnor), 1u);
  EXPECT_EQ(n.xor2_equivalent_count(), 4u);
}

TEST(Netlist, ValidateCatchesMissingOutput) {
  Netlist n;
  const Var a = n.add_input("a");
  (void)a;
  // mark_output on undeclared id throws immediately.
  EXPECT_THROW(n.mark_output(static_cast<Var>(99)), Error);
}

TEST(Ports, FindWordPort) {
  Netlist n;
  for (int i = 0; i < 4; ++i) n.add_input("a" + std::to_string(i));
  n.add_input("clk");
  const auto port = find_word_port(n, "a");
  ASSERT_TRUE(port.has_value());
  EXPECT_EQ(port->width(), 4u);
  EXPECT_EQ(n.var_name(port->bits[2]), "a2");
  EXPECT_FALSE(find_word_port(n, "b").has_value());
}

TEST(Ports, GroupedInputPortsRequireDenseIndices) {
  Netlist n;
  n.add_input("a0");
  n.add_input("a1");
  n.add_input("b0");
  n.add_input("b2");  // gap: b1 missing
  n.add_input("en");
  const auto ports = input_word_ports(n);
  ASSERT_EQ(ports.size(), 1u);
  EXPECT_EQ(ports[0].base, "a");
  EXPECT_EQ(ports[0].width(), 2u);
}

TEST(Ports, IndexBeyondUnsignedIsNotAWordBit) {
  // 4294967297 = 2^32 + 1 must not wrap onto bit 1 of word a.
  Netlist n;
  n.add_input("a0");
  n.add_input("a4294967297");
  const auto ports = input_word_ports(n);
  ASSERT_EQ(ports.size(), 1u);
  EXPECT_EQ(ports[0].base, "a");
  EXPECT_EQ(ports[0].width(), 1u);
}

TEST(Ports, IndexBeyond64BitsIsNotAWordBit) {
  Netlist n;
  n.add_input("a0");
  n.add_input("a99999999999999999999");
  std::vector<WordPort> ports;
  ASSERT_NO_THROW(ports = input_word_ports(n));
  ASSERT_EQ(ports.size(), 1u);
  EXPECT_EQ(ports[0].width(), 1u);
}

TEST(Ports, MultiplierPortsValidation) {
  Netlist n;
  for (int i = 0; i < 3; ++i) n.add_input("a" + std::to_string(i));
  for (int i = 0; i < 3; ++i) n.add_input("b" + std::to_string(i));
  std::vector<Var> zs;
  for (int i = 0; i < 3; ++i) {
    const Var z = n.add_gate(
        CellType::And, {*n.find_var("a" + std::to_string(i)),
                        *n.find_var("b" + std::to_string(i))},
        "z" + std::to_string(i));
    n.mark_output(z);
    zs.push_back(z);
  }
  const auto ports = multiplier_ports(n);
  EXPECT_EQ(ports.m(), 3u);
  EXPECT_EQ(ports.z.bits, zs);
  EXPECT_THROW(multiplier_ports(n, "x", "b", "z"), InvalidArgument);
}

TEST(Ports, MultiplierPortsWidthMismatch) {
  Netlist n;
  for (int i = 0; i < 3; ++i) n.add_input("a" + std::to_string(i));
  for (int i = 0; i < 2; ++i) n.add_input("b" + std::to_string(i));
  const Var z = n.add_gate(CellType::And,
                           {*n.find_var("a0"), *n.find_var("b0")}, "z0");
  n.mark_output(z);
  EXPECT_THROW(multiplier_ports(n), InvalidArgument);
}

}  // namespace
}  // namespace gfre::nl
