// Regression corpus: static netlist files under data/ must parse in every
// format and reverse-engineer to the expected result.  Unlike the generator
// tests, these fixtures are frozen — a parser or flow regression cannot
// hide behind a matching generator change.
#include <gtest/gtest.h>

#include <string>

#include "core/batch.hpp"
#include "core/flow.hpp"
#include "gen/mastrovito.hpp"
#include "gf2m/field.hpp"
#include "netlist/io_blif.hpp"
#include "netlist/io_eqn.hpp"
#include "netlist/io_verilog.hpp"
#include "obf/passes.hpp"
#include "util/error.hpp"

#ifndef GFRE_SOURCE_DIR
#define GFRE_SOURCE_DIR "."
#endif

namespace gfre {
namespace {

using gf2::Poly;

std::string data_path(const std::string& file) {
  return std::string(GFRE_SOURCE_DIR) + "/data/" + file;
}

struct CorpusCase {
  std::string stem;       // file name without extension
  unsigned m;
  Poly expected_p;
};

class CorpusSweep : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(CorpusSweep, EveryFormatRecoversExpectedPolynomial) {
  const auto& c = GetParam();
  core::FlowOptions options;
  options.threads = 2;
  for (const char* ext : {".eqn", ".blif", ".v"}) {
    nl::Netlist netlist("x");
    const std::string path = data_path(c.stem + ext);
    if (std::string(ext) == ".eqn") {
      netlist = nl::read_eqn_file(path);
    } else if (std::string(ext) == ".blif") {
      netlist = nl::read_blif_file(path);
    } else {
      netlist = nl::read_verilog_file(path);
    }
    const auto report = core::reverse_engineer(netlist, options);
    EXPECT_TRUE(report.success) << path << "\n" << report.summary();
    EXPECT_EQ(report.recovery.p, c.expected_p) << path;
    EXPECT_EQ(report.m, c.m) << path;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, CorpusSweep,
    ::testing::Values(
        CorpusCase{"mastrovito_m8", 8, Poly{8, 4, 3, 1, 0}},
        CorpusCase{"mastrovito_matrix_m8", 8, Poly{8, 4, 3, 1, 0}},
        CorpusCase{"montgomery_m8", 8, Poly{8, 4, 3, 1, 0}},
        CorpusCase{"karatsuba_m8", 8, Poly{8, 4, 3, 1, 0}},
        CorpusCase{"shiftadd_m8", 8, Poly{8, 4, 3, 1, 0}},
        CorpusCase{"mastrovito_syn_m8", 8, Poly{8, 4, 3, 1, 0}},
        CorpusCase{"mastrovito_mapped_m8", 8, Poly{8, 4, 3, 1, 0}},
        // m=16 fixtures: output cones exceed 64 cone variables, so the
        // packed engine's multi-word (Bits128/Bits256) monomial
        // representations are exercised from frozen files, not only from
        // in-memory generators.
        CorpusCase{"montgomery_m16", 16, Poly{16, 5, 3, 1, 0}},
        CorpusCase{"karatsuba_m16", 16, Poly{16, 5, 3, 1, 0}}),
    [](const ::testing::TestParamInfo<CorpusCase>& info) {
      return info.param.stem;
    });

TEST(Corpus, CryptoScaleMastrovitoB163) {
  // NIST B-163 (P(x) = x^163 + x^7 + x^6 + x^3 + 1): the smallest field any
  // standardized ECC deployment actually uses.  Cones here have hundreds of
  // variables, so the packed engine's Bits256 tier and the SIMD kernel
  // layer run from a frozen file under tier-1 tests, not only in benches.
  // Only the .eqn form is checked in — at 54k equations the three-format
  // sweep would triple a file that exists to pin the extraction path.
  const auto netlist =
      nl::read_eqn_file(data_path("mastrovito_m163.eqn"));
  core::FlowOptions options;
  options.threads = 2;
  const auto report = core::reverse_engineer(netlist, options);
  EXPECT_TRUE(report.success) << report.summary();
  EXPECT_EQ(report.recovery.p, (Poly{163, 7, 6, 3, 0}));
  EXPECT_EQ(report.m, 163u);
}

TEST(Corpus, CryptoScaleMastrovitoB283InMemory) {
  // NIST B-283 (P(x) = x^283 + x^12 + x^7 + x^5 + 1), generated in memory
  // rather than frozen: Algorithm 2, the reduction-matrix analysis and the
  // golden verification run end to end above m = 163 in every test run.
  const gf2m::Field field(Poly{283, 12, 7, 5, 0});
  const auto netlist = gen::generate_mastrovito(field);
  core::FlowOptions options;
  options.threads = 2;
  const auto report = core::reverse_engineer(netlist, options);
  EXPECT_TRUE(report.success) << report.summary();
  EXPECT_EQ(report.recovery.p, field.modulus());
  EXPECT_TRUE(report.verification.equivalent) << report.verification.detail;
  EXPECT_EQ(report.m, 283u);
}

TEST(Corpus, HandWrittenAoiNandMultiplier) {
  // All-inverting-cell implementation (no AND/XOR at all): extraction must
  // see through the NAND/INV structure.
  const auto netlist = nl::read_eqn_file(data_path("handwritten_gf4_aoi.eqn"));
  for (const auto& gate : netlist.gates()) {
    EXPECT_TRUE(gate.type == nl::CellType::Nand ||
                gate.type == nl::CellType::Inv)
        << cell_name(gate.type);
  }
  const auto report = core::reverse_engineer(netlist);
  EXPECT_TRUE(report.success) << report.summary();
  EXPECT_EQ(report.recovery.p, (Poly{2, 1, 0}));
}

TEST(Corpus, FrozenKeyGatedFixtureUnlocksToItsCleanTwin) {
  // Frozen obfuscation pair (made by example_obfuscated_recovery
  // --emit-obf/--emit-key): a key-gated mastrovito m=16, its correct
  // 8-bit key, and the clean twin.  Pins the apply_key exact-inverse
  // contract to files — a key-gate or .eqn writer regression cannot hide
  // behind a matching change in the in-memory passes.
  const auto keyed =
      nl::read_eqn_file(data_path("obf/mastrovito_m16_keygate2_s1.eqn"));
  const auto clean =
      nl::read_eqn_file(data_path("obf/mastrovito_m16_clean.eqn"));
  const auto key =
      obf::read_key_file(data_path("obf/mastrovito_m16_keygate2_s1.key"));
  ASSERT_EQ(key.size(), 8u);

  const auto unlocked = obf::apply_key(keyed, key);
  EXPECT_EQ(core::netlist_content_hash(unlocked),
            core::netlist_content_hash(clean));

  core::FlowOptions options;
  options.threads = 2;
  const auto report = core::reverse_engineer(unlocked, options);
  EXPECT_TRUE(report.success) << report.summary();
  EXPECT_EQ(report.recovery.p, (Poly{16, 5, 3, 1, 0}));

  // The complement key must not pass for the true field.
  const auto wrong = obf::apply_key(keyed, obf::complement_key(key));
  const auto wrong_report = core::reverse_engineer(wrong, options);
  EXPECT_FALSE(wrong_report.success &&
               wrong_report.recovery.p == (Poly{16, 5, 3, 1, 0}));
}

TEST(Corpus, CorruptFixtureIsRejected) {
  const auto netlist = nl::read_eqn_file(data_path("corrupt_gf4.eqn"));
  const auto report = core::reverse_engineer(netlist);
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.recovery.circuit_class, core::CircuitClass::NotAMultiplier);
  EXPECT_FALSE(report.recovery.diagnosis.empty());
}

}  // namespace
}  // namespace gfre
