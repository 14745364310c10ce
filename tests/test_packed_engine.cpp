// Differential suite for the packed cone-local ANF engine: the Packed
// engine and the NaiveScan textbook oracle must produce bit-exact
// identical ANFs on every generator family, the frozen fixtures, random
// netlists, the wide-cone spill path and the Overflow fallback — plus unit
// coverage of the engine's representation selection and open-addressed
// term table.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "anf/packed.hpp"
#include "core/flow.hpp"
#include "core/parallel_extract.hpp"
#include "core/rewriter.hpp"
#include "gen/karatsuba.hpp"
#include "gen/mastrovito.hpp"
#include "gen/montgomery_gate.hpp"
#include "gen/shift_add.hpp"
#include "gen/squarer.hpp"
#include "gf2m/field.hpp"
#include "gf2poly/catalog.hpp"
#include "gf2poly/irreducible.hpp"
#include "helpers.hpp"
#include "netlist/io_eqn.hpp"
#include "util/prng.hpp"

#ifndef GFRE_SOURCE_DIR
#define GFRE_SOURCE_DIR "."
#endif

namespace gfre::core {
namespace {

using anf::Anf;
using anf::packed::ConeEngine;
using anf::packed::RepKind;
using anf::packed::Slot;
using anf::packed::TermList;

std::string data_path(const std::string& file) {
  return std::string(GFRE_SOURCE_DIR) + "/data/" + file;
}

/// Extracts every output with the engine and the oracle and asserts
/// bit-exact ANF equality (Packed vs NaiveScan).
void expect_strategies_agree(const nl::Netlist& netlist,
                             const std::string& label) {
  for (nl::Var out : netlist.outputs()) {
    RewriteOptions packed, naive;
    packed.strategy = RewriteStrategy::Packed;
    naive.strategy = RewriteStrategy::NaiveScan;
    const Anf via_packed = extract_output_anf(netlist, out, packed);
    const Anf via_naive = extract_output_anf(netlist, out, naive);
    ASSERT_EQ(via_packed, via_naive)
        << label << " output '" << netlist.var_name(out) << "'";
  }
}

// -- Representation selection ----------------------------------------------

TEST(PackedRep, WidthChosenPerCone) {
  EXPECT_EQ(anf::packed::rep_for_cone(1), RepKind::Bits64);
  EXPECT_EQ(anf::packed::rep_for_cone(64), RepKind::Bits64);
  EXPECT_EQ(anf::packed::rep_for_cone(65), RepKind::Bits128);
  EXPECT_EQ(anf::packed::rep_for_cone(128), RepKind::Bits128);
  EXPECT_EQ(anf::packed::rep_for_cone(129), RepKind::Bits256);
  EXPECT_EQ(anf::packed::rep_for_cone(256), RepKind::Bits256);
  EXPECT_EQ(anf::packed::rep_for_cone(257), RepKind::Bits512);
  EXPECT_EQ(anf::packed::rep_for_cone(512), RepKind::Bits512);
  EXPECT_EQ(anf::packed::rep_for_cone(513), RepKind::Sparse);
  EXPECT_EQ(anf::packed::rep_for_cone(65536), RepKind::Sparse);
  EXPECT_EQ(anf::packed::rep_for_cone(anf::packed::kMaxSlots),
            RepKind::Sparse);
}

TEST(PackedRep, OversizedConeRaisesOverflow) {
  EXPECT_THROW(ConeEngine(anf::packed::kMaxSlots + 1, 0),
               anf::packed::Overflow);
}

// -- ConeEngine unit behavior (exercised at every representation width) ----

class PackedEngineWidths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PackedEngineWidths, ToggleCancelAndOccurrences) {
  const std::size_t num_slots = GetParam();
  // F = {x0}; substitute x0 = x1*x2 + x3, then x3 = x1*x2: everything
  // cancels mod 2 and F must end empty.
  ConeEngine engine(num_slots, 0);
  EXPECT_EQ(engine.size(), 1u);
  EXPECT_EQ(engine.occurrence_count(0), 1u);
  EXPECT_EQ(engine.occurrence_count(1), 0u);

  TermList terms;
  terms.add_term({1, 2});
  terms.add_term({3});
  engine.substitute(0, terms);
  EXPECT_EQ(engine.size(), 2u);
  EXPECT_EQ(engine.occurrence_count(0), 0u);
  EXPECT_EQ(engine.occurrence_count(1), 1u);
  EXPECT_EQ(engine.occurrence_count(3), 1u);

  terms.clear();
  terms.add_term({1, 2});
  engine.substitute(3, terms);
  EXPECT_EQ(engine.size(), 0u) << "x1*x2 + x1*x2 must cancel mod 2";
  EXPECT_EQ(engine.cancellations(), 1u);
  EXPECT_EQ(engine.peak_terms(), 2u);
  EXPECT_TRUE(engine.monomials().empty());
}

TEST_P(PackedEngineWidths, IdempotentVariableProduct) {
  const std::size_t num_slots = GetParam();
  // F = {x0}; x0 = x1 + 1, multiplied into a monomial that already holds
  // x1 via a second substitution chain: x*x = x must hold.
  ConeEngine engine(num_slots, 2);
  TermList terms;
  terms.add_term({0, 1});
  engine.substitute(2, terms);  // F = {x0*x1}
  terms.clear();
  terms.add_term({1});          // x0 := x1  ->  F = {x1*x1} = {x1}
  engine.substitute(0, terms);
  const auto monos = engine.monomials();
  ASSERT_EQ(monos.size(), 1u);
  EXPECT_EQ(monos[0], (anf::packed::SlotMono{1}));
}

TEST_P(PackedEngineWidths, SurvivesHeavyChurn) {
  // Hammer the open-addressed table through its grow/tombstone cycle: a
  // long alternating insert/cancel sequence must keep the live set exact.
  const std::size_t num_slots = GetParam();
  ConeEngine engine(num_slots, 0);
  TermList terms;
  // x0 := sum of 40 singletons -> F = 40 monomials.
  for (Slot s = 1; s <= 40; ++s) terms.add_term({s});
  engine.substitute(0, terms);
  EXPECT_EQ(engine.size(), 40u);
  // Each x_s := x_{s+8} shifts mass upward with heavy cancellation.
  for (Slot s = 1; s <= 32; ++s) {
    terms.clear();
    terms.add_term({static_cast<Slot>(s + 8)});
    engine.substitute(s, terms);
  }
  // Surviving: from {9..40} shifted... every monomial collapses into
  // {33..48}; each target hit twice cancels.  Verify against a replay on
  // the scalar Anf reference.
  Anf reference = Anf::var(0);
  {
    Anf sum;
    for (Slot s = 1; s <= 40; ++s) sum += Anf::var(s);
    reference.substitute(0, sum);
    for (Slot s = 1; s <= 32; ++s) reference.substitute(s, Anf::var(s + 8));
  }
  Anf got;
  for (const auto& mono : engine.monomials()) {
    std::vector<anf::Var> vars(mono.begin(), mono.end());
    got.toggle(anf::Monomial::from_vars(vars));
  }
  EXPECT_EQ(got, reference);
}

INSTANTIATE_TEST_SUITE_P(AllWidths, PackedEngineWidths,
                         ::testing::Values(std::size_t{50}, std::size_t{100},
                                           std::size_t{200},
                                           std::size_t{400}));

// -- Differential: all generator families, m in 4..16 ----------------------

struct FamilyCase {
  const char* name;
  nl::Netlist (*generate)(const gf2m::Field&);
};

class PackedFamilies : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(PackedFamilies, AgreesWithOracleForM4To16) {
  const FamilyCase family = GetParam();
  for (unsigned m = 4; m <= 16; ++m) {
    const gf2m::Field field(gf2::has_paper_polynomial(m)
                                ? gf2::paper_polynomial(m).p
                                : gf2::default_irreducible(m));
    expect_strategies_agree(family.generate(field),
                            std::string(family.name) + " m=" +
                                std::to_string(m));
  }
}

nl::Netlist make_mastrovito(const gf2m::Field& f) {
  return gen::generate_mastrovito(f);
}
nl::Netlist make_montgomery(const gf2m::Field& f) {
  return gen::generate_montgomery(f);
}
nl::Netlist make_karatsuba(const gf2m::Field& f) {
  return gen::generate_karatsuba(f);
}
nl::Netlist make_shift_add(const gf2m::Field& f) {
  return gen::generate_shift_add(f);
}
nl::Netlist make_squarer(const gf2m::Field& f) {
  return gen::generate_squarer(f);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, PackedFamilies,
    ::testing::Values(FamilyCase{"mastrovito", &make_mastrovito},
                      FamilyCase{"montgomery", &make_montgomery},
                      FamilyCase{"karatsuba", &make_karatsuba},
                      FamilyCase{"shiftadd", &make_shift_add},
                      FamilyCase{"squarer", &make_squarer}),
    [](const ::testing::TestParamInfo<FamilyCase>& info) {
      return std::string(info.param.name);
    });

// -- Differential: fixtures, scrambled outputs, random netlists ------------

TEST(PackedEngine, CorruptFixtureAgrees) {
  // The corrupt GF(4) netlist is not a multiplier; the engines must still
  // extract identical (non-multiplier) ANFs from it.
  const auto netlist = nl::read_eqn_file(data_path("corrupt_gf4.eqn"));
  expect_strategies_agree(netlist, "corrupt_gf4");
}

TEST(PackedEngine, HandwrittenAoiFixtureAgrees) {
  // Complex cells (AOI) take the generic cell_anf path in the packed
  // backend; the fixture pins that path against the oracle.
  const auto netlist =
      nl::read_eqn_file(data_path("handwritten_gf4_aoi.eqn"));
  expect_strategies_agree(netlist, "handwritten_gf4_aoi");
}

TEST(PackedEngine, ScrambledOutputFlowAgrees) {
  // Bus-scrambled multiplier: the whole flow (extraction + permutation
  // recovery + Algorithm 2) must land on the same P(x) on both engines.
  const gf2m::Field field(gf2::Poly{8, 4, 3, 1, 0});
  const auto netlist = gen::generate_mastrovito(field);
  const std::vector<unsigned> perm{3, 1, 4, 7, 6, 0, 2, 5};
  const auto scrambled = test::scramble_outputs(netlist, perm);
  expect_strategies_agree(scrambled, "scrambled mastrovito m=8");

  FlowOptions packed_options, naive_options;
  packed_options.strategy = RewriteStrategy::Packed;
  naive_options.strategy = RewriteStrategy::NaiveScan;
  const auto via_packed = reverse_engineer(scrambled, packed_options);
  const auto via_naive = reverse_engineer(scrambled, naive_options);
  EXPECT_TRUE(via_packed.success);
  EXPECT_EQ(via_packed.recovery.p, via_naive.recovery.p);
  EXPECT_EQ(via_packed.recovery.p, field.modulus());
  ASSERT_TRUE(via_packed.output_permutation.has_value());
  EXPECT_EQ(via_packed.output_permutation, via_naive.output_permutation);
}

TEST(PackedEngine, RandomNetlistsAgree) {
  Prng rng(20260730);
  for (int round = 0; round < 12; ++round) {
    const auto netlist = test::random_netlist(rng, 6, 40, 3);
    expect_strategies_agree(netlist, "random round " + std::to_string(round));
  }
}

// -- Wide-cone spill path --------------------------------------------------

/// Chain of n XOR gates over `inputs` primary inputs: the last gate's cone
/// contains every gate, forcing the cone-variable count past the bitset
/// widths and into the sparse spill representation.
nl::Netlist xor_chain(unsigned num_inputs, unsigned num_gates) {
  nl::Netlist netlist("chain");
  std::vector<nl::Var> ins;
  for (unsigned i = 0; i < num_inputs; ++i) {
    ins.push_back(netlist.add_input("i" + std::to_string(i)));
  }
  nl::Var prev = ins[0];
  for (unsigned g = 0; g < num_gates; ++g) {
    prev = netlist.add_gate(nl::CellType::Xor,
                            {prev, ins[(g + 1) % num_inputs]});
  }
  netlist.mark_output(prev);
  return netlist;
}

TEST(PackedSpill, WideConeUsesBits512AndAgrees) {
  // 400 gates + 8 inputs > 256 cone variables: rep_for_cone must pick the
  // Bits512 tier, and the result must match the oracle.
  const auto netlist = xor_chain(8, 400);
  const auto cone = netlist.fanin_cone(netlist.outputs()[0]);
  EXPECT_GT(cone.size(), 256u);
  EXPECT_EQ(anf::packed::rep_for_cone(cone.size() + 8), RepKind::Bits512);
  expect_strategies_agree(netlist, "xor chain bits512");
}

TEST(PackedSpill, WideConeUsesSparseRepAndAgrees) {
  // 700 gates + 8 inputs > 512 cone variables: past every bitset tier,
  // rep_for_cone must pick the sparse spill path, and the result must
  // match the oracle.
  const auto netlist = xor_chain(8, 700);
  const auto cone = netlist.fanin_cone(netlist.outputs()[0]);
  EXPECT_GT(cone.size(), 512u);
  EXPECT_EQ(anf::packed::rep_for_cone(cone.size() + 8), RepKind::Sparse);
  expect_strategies_agree(netlist, "xor chain spill");
}

/// Random multiplier-like DAG: XOR-heavy with occasional ANDs/INVs (the
/// structure of real GF(2^m) datapaths).  Unrestricted random cell soup is
/// deliberately avoided here — OR/AOI towers make intermediate expressions
/// blow up exponentially, which tests size, not the spill representation.
nl::Netlist wide_random_netlist(Prng& rng, unsigned num_inputs,
                                unsigned num_gates) {
  nl::Netlist netlist("wide_random");
  std::vector<nl::Var> pool;
  for (unsigned i = 0; i < num_inputs; ++i) {
    pool.push_back(netlist.add_input("i" + std::to_string(i)));
  }
  for (unsigned g = 0; g < num_gates; ++g) {
    const nl::Var a = pool[rng.next_below(pool.size())];
    const nl::Var b = pool[rng.next_below(pool.size())];
    const unsigned kind = static_cast<unsigned>(rng.next_below(10));
    nl::Var out;
    if (kind < 7) {
      out = netlist.add_gate(nl::CellType::Xor, {a, b});
    } else if (kind < 9) {
      out = netlist.add_gate(nl::CellType::And, {a, b});
    } else {
      out = netlist.add_gate(nl::CellType::Inv, {a});
    }
    pool.push_back(out);
  }
  netlist.mark_output(pool.back());
  netlist.mark_output(pool[pool.size() - 2]);
  return netlist;
}

TEST(PackedSpill, WideRandomNetlistsAgree) {
  // Random multiplier-like DAGs big enough that the output cones spill
  // past the bitset widths.
  Prng rng(424242);
  for (int round = 0; round < 4; ++round) {
    const auto netlist = wide_random_netlist(rng, 12, 320);
    expect_strategies_agree(netlist, "wide random round " +
                                         std::to_string(round));
  }
}

TEST(PackedSpill, DegreeOverflowFallsBackTransparently) {
  // A cone past every bitset tier whose final monomial degree exceeds
  // kSparseMaxDegree: the sparse rep raises Overflow, and the packed
  // engine must hand the cone to the NaiveScan oracle and still return
  // the exact ANF.  This is the only test of that fallback path.
  const unsigned n = anf::packed::kSparseMaxDegree + 5;
  nl::Netlist netlist("deep_and");
  std::vector<nl::Var> ins;
  for (unsigned i = 0; i < n; ++i) {
    ins.push_back(netlist.add_input("i" + std::to_string(i)));
  }
  // Pad the cone past 512 slots with a long XOR spine, then AND
  // everything together so one monomial holds all n > cap variables.
  nl::Var spine = ins[0];
  for (unsigned g = 0; g < 700; ++g) {
    spine = netlist.add_gate(nl::CellType::Xor, {spine, ins[g % n]});
  }
  nl::Var acc = spine;
  for (unsigned i = 0; i < n; ++i) {
    acc = netlist.add_gate(nl::CellType::And, {acc, ins[i]});
  }
  netlist.mark_output(acc);
  // The packed backend sizes its rep from the cone plus the undriven vars
  // (core/rewriter.cpp); that bound must land on the sparse tier, or the
  // degree cap never applies and the fallback is never reached.
  const auto cone = netlist.fanin_cone(acc);
  ASSERT_EQ(anf::packed::rep_for_cone(cone.size() + n), RepKind::Sparse);

  RewriteOptions packed, naive;
  packed.strategy = RewriteStrategy::Packed;
  naive.strategy = RewriteStrategy::NaiveScan;
  const Anf via_packed = extract_output_anf(netlist, acc, packed);
  EXPECT_EQ(via_packed, extract_output_anf(netlist, acc, naive));
  ASSERT_FALSE(via_packed.monomials().empty());
  EXPECT_GT(via_packed.degree(), anf::packed::kSparseMaxDegree);
}

// -- Parallel extraction and strategy plumbing -----------------------------

TEST(PackedEngine, ParallelExtractionDefaultsToPackedAndAgrees) {
  const gf2m::Field field(gf2::Poly{8, 4, 3, 1, 0});
  const auto netlist = gen::generate_montgomery(field);
  const auto by_default = extract_all_outputs(netlist, 4);
  const auto naive =
      extract_all_outputs(netlist, 4, RewriteStrategy::NaiveScan);
  ASSERT_EQ(by_default.anfs.size(), naive.anfs.size());
  for (std::size_t i = 0; i < by_default.anfs.size(); ++i) {
    EXPECT_EQ(by_default.anfs[i], naive.anfs[i]) << "bit " << i;
  }
}

}  // namespace
}  // namespace gfre::core
