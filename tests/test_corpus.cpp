// Regression corpus: static netlist files under data/ must parse in every
// format and reverse-engineer to the expected result.  Unlike the generator
// tests, these fixtures are frozen — a parser or flow regression cannot
// hide behind a matching generator change.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/batch.hpp"
#include "core/flow.hpp"
#include "core/result_cache.hpp"
#include "gen/mastrovito.hpp"
#include "gf2m/field.hpp"
#include "netlist/io_blif.hpp"
#include "netlist/io_eqn.hpp"
#include "netlist/io_verilog.hpp"
#include "obf/passes.hpp"
#include "util/bytes.hpp"
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
  // variables, so the packed engine's Bits256 tier and its word kernels
  // run from a frozen file under tier-1 tests, not only in benches.
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

// Pinned identities of frozen fixtures: the structural content hash and
// both cache keys (threads=1 options).  Net numbering and net names feed
// the hash and the in-memory key, so a name-storage or parser refactor
// that renumbers or renames a single net fails here, and so does any
// change that would silently orphan existing disk-cache entries.
struct GoldenIdentity {
  const char* file;
  std::uint64_t hash_a;
  std::uint64_t hash_b;
  const char* key_for_file;
  const char* key_for_netlist;
};

TEST(CorpusGolden, ContentHashAndCacheKeysArePinned) {
  static const GoldenIdentity kGolden[] = {
      {"karatsuba_m8.eqn", 0x12ebe05a1c011d92, 0xa010f4b9fcbd4ca0,
       "99aff1389074eb74f8601f707cecfec3c65df730fc87525c3d32afb3e0c456a9",
       "c8b228ef2dc43e4f1622952f06142c58e40a3f477060b3311a1119bc8bbc14a7"},
      {"karatsuba_m8.blif", 0xdefe1aa76b075725, 0x8a2416789fdb32bd,
       "79dc788f84482fd9bb755077ce1cade1cd58f217dc8d5bcb7a26a8e1819cf765",
       "ec634bf414916985d5ac632d72a1fdfc24c78ceadad210d77ea1a8f88503a166"},
      {"karatsuba_m8.v", 0x12ebe05a1c011d92, 0xa010f4b9fcbd4ca0,
       "056da32417dde19a8b7077b8dbad3c1a9e1cc36a54e84e8e26daabe5acb021dd",
       "c8b228ef2dc43e4f1622952f06142c58e40a3f477060b3311a1119bc8bbc14a7"},
      {"mastrovito_m8.eqn", 0x580688582f1f2bef, 0x4017762231fe8fa5,
       "1960471072d28807b6ec235648ac1f99aca246d68ba990947b47ea7f9e6d4acb",
       "feca4c82bd7987e6233a66bf024e4bad1e21b7194b4d416aae9d0f76527b534d"},
      {"mastrovito_m8.blif", 0x64fb6b124dd49ee8, 0x527257757a1466b0,
       "3200421fe225012f3666cb9de3fe5bef94a74b21880248133012e6fd86c62cee",
       "fb0e83b6035c66af75aeee72265471b6bc11847b0164c05ce2bfd8230311e1a3"},
      {"mastrovito_m8.v", 0x580688582f1f2bef, 0x4017762231fe8fa5,
       "201ff22bac2bc133a264c074f35861df7dd8b97aae22ffb8fad9670d2bf166ea",
       "feca4c82bd7987e6233a66bf024e4bad1e21b7194b4d416aae9d0f76527b534d"},
      {"montgomery_m16.eqn", 0x8897c8b759f8ecc7, 0xf92d1095225925f9,
       "49757f6897f40c01a46ddc9258544c0c540fa2b6acb00b51645930b0f59be5bd",
       "491ee30002b2505a75b567869fa1b039628906ad1907338ef519e842cf3c558f"},
      {"montgomery_m16.blif", 0x64c9b889b7948e23, 0x587b6aea680e6c3f,
       "a3a6e9f216512a2a2a96e66c1a705bcb33ec9b9b8829c0a8339d89dccef2ff42",
       "d0abf2f468b509c9f2251683ae1f7a7681b32f2d13239e2d3592226a4a0ffb57"},
      {"montgomery_m16.v", 0x8897c8b759f8ecc7, 0xf92d1095225925f9,
       "46d883938375ae0958f6d30a606ba7b8f424012b030b623a9d533ee2a1ca779d",
       "491ee30002b2505a75b567869fa1b039628906ad1907338ef519e842cf3c558f"},
      {"mastrovito_m163.eqn", 0xde1b6d68f301c903, 0x0be70bdfe71787ed,
       "31a527e26b8608a7a7481fc065ed7c73ed6c0b3416a8668b3c8f9215ca300eb9",
       "9b20febefd6a2d1151a2d159790154ad313c044cbc264a6072adebfdb6b61158"},
  };
  core::FlowOptions options;
  options.threads = 1;
  for (const GoldenIdentity& golden : kGolden) {
    const std::string path = data_path(golden.file);
    std::string bytes;
    ASSERT_TRUE(util::read_file_to_string(path, &bytes)) << path;
    const nl::Netlist netlist = core::load_netlist_file(path);
    EXPECT_EQ(core::netlist_content_hash(netlist),
              (core::NetlistHash{golden.hash_a, golden.hash_b}))
        << path;
    EXPECT_EQ(core::ResultCache::key_for_file(bytes, options),
              golden.key_for_file)
        << path;
    EXPECT_EQ(core::ResultCache::key_for_netlist(netlist, options),
              golden.key_for_netlist)
        << path;
  }
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
