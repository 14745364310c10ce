// Obfuscation scenario wall — the attack/defense campaign's tier-1 tests.
//
// The contract is recover-or-diagnose-never-crash, with two sharper
// differentials on top:
//   * a correctly-keyed (de-obfuscated) netlist is content-hash-identical
//     to its clean twin, so its FlowReport is bit-identical at 1 and 8
//     threads;
//   * key-gate simulation proves wrong keys actually corrupt outputs.
// Plus the seed-determinism guarantee the campaign records depend on:
// same (pass, strength, seed) => byte-identical obfuscated netlist,
// regardless of how many flow threads ran in between.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/flow.hpp"
#include "gen/mastrovito.hpp"
#include "gf2m/field.hpp"
#include "gf2poly/irreducible.hpp"
#include "helpers.hpp"
#include "netlist/io_eqn.hpp"
#include "obf/campaign.hpp"
#include "obf/passes.hpp"
#include "sim/equivalence.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"

namespace gfre {
namespace {

nl::Netlist clean_multiplier(const std::string& family, unsigned m) {
  const gf2m::Field field(obf::field_polynomial(m));
  return obf::generate_family(family, field);
}

const std::vector<obf::PassKind> kAllPasses = {
    obf::PassKind::KeyGates, obf::PassKind::PxMix, obf::PassKind::Rewrite,
    obf::PassKind::FaultStuckAt, obf::PassKind::FaultFlip};

TEST(ObfPasses, NamesRoundTripAndStacksParse) {
  for (obf::PassKind kind : kAllPasses) {
    const auto back = obf::pass_from_name(obf::to_string(kind));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(obf::pass_from_name("nope").has_value());

  const auto stack = obf::parse_pass_stack("keygate:2+pxmix");
  ASSERT_EQ(stack.size(), 2u);
  EXPECT_EQ(stack[0].kind, obf::PassKind::KeyGates);
  EXPECT_EQ(stack[0].strength, 2u);
  EXPECT_EQ(stack[1].kind, obf::PassKind::PxMix);
  EXPECT_EQ(stack[1].strength, 1u);
  EXPECT_EQ(obf::to_string(stack), "keygate:2+pxmix:1");
  EXPECT_THROW(obf::parse_pass_stack("keygate:x"), InvalidArgument);
  EXPECT_THROW(obf::parse_pass_stack(""), InvalidArgument);
  EXPECT_THROW(obf::parse_pass_stack("bogus:1"), InvalidArgument);
}

TEST(ObfPasses, StrengthZeroIsIdentityForEveryPass) {
  const nl::Netlist clean = clean_multiplier("mastrovito", 8);
  const core::NetlistHash want = core::netlist_content_hash(clean);
  for (obf::PassKind kind : kAllPasses) {
    const obf::ObfuscationResult result = obf::apply_pass(clean, kind, 0);
    EXPECT_EQ(core::netlist_content_hash(result.netlist), want)
        << obf::to_string(kind);
    EXPECT_TRUE(result.key.empty()) << obf::to_string(kind);
  }
}

TEST(ObfPasses, SameSeedIsByteIdenticalAcrossRunsAndThreadCounts) {
  const nl::Netlist clean = clean_multiplier("mastrovito", 8);
  obf::PassOptions options;
  options.seed = 42;
  for (obf::PassKind kind : kAllPasses) {
    const std::string first =
        nl::write_eqn(obf::apply_pass(clean, kind, 2, options).netlist);
    // An 8-thread flow in between must not perturb the next application
    // (passes are pure functions of (netlist, kind, strength, seed)).
    core::FlowOptions flow;
    flow.threads = 8;
    core::reverse_engineer(clean, flow);
    const std::string second =
        nl::write_eqn(obf::apply_pass(clean, kind, 2, options).netlist);
    EXPECT_EQ(first, second) << obf::to_string(kind);
    obf::PassOptions other = options;
    other.seed = 43;
    if (kind == obf::PassKind::KeyGates) {
      EXPECT_NE(first,
                nl::write_eqn(obf::apply_pass(clean, kind, 2, other).netlist));
    }
  }
}

TEST(ObfKeyGates, CorrectKeyIsExactInverseOfInsertion) {
  const nl::Netlist clean = clean_multiplier("mastrovito", 16);
  obf::PassOptions options;
  options.seed = 3;
  const obf::ObfuscationResult obfd =
      obf::apply_pass(clean, obf::PassKind::KeyGates, 2, options);
  ASSERT_EQ(obfd.key.size(), 8u);  // 4 key gates per strength level
  EXPECT_NE(core::netlist_content_hash(obfd.netlist),
            core::netlist_content_hash(clean));
  const nl::Netlist deobf = obf::apply_key(obfd.netlist, obfd.key);
  EXPECT_EQ(core::netlist_content_hash(deobf),
            core::netlist_content_hash(clean));
  EXPECT_EQ(nl::write_eqn(deobf), nl::write_eqn(clean));
}

TEST(ObfKeyGates, StackedKeyGatePassesInvertThroughChains) {
  const nl::Netlist clean = clean_multiplier("montgomery", 8);
  const obf::ObfuscationResult obfd = obf::apply_stack(
      clean, {{obf::PassKind::KeyGates, 1}, {obf::PassKind::KeyGates, 2}});
  ASSERT_EQ(obfd.key.size(), 12u);
  const nl::Netlist deobf = obf::apply_key(obfd.netlist, obfd.key);
  EXPECT_EQ(core::netlist_content_hash(deobf),
            core::netlist_content_hash(clean));
}

TEST(ObfKeyGates, CorrectKeyReportBitIdenticalAt1And8Threads) {
  const unsigned m = 16;
  const nl::Netlist clean = clean_multiplier("mastrovito", m);
  obf::PassOptions options;
  options.seed = 7;
  const obf::ObfuscationResult obfd =
      obf::apply_pass(clean, obf::PassKind::KeyGates, 3, options);
  const nl::Netlist deobf = obf::apply_key(obfd.netlist, obfd.key);

  core::FlowOptions flow;
  const core::FlowReport want = core::reverse_engineer(clean, flow);
  ASSERT_TRUE(want.success);
  EXPECT_EQ(want.recovery.p, obf::field_polynomial(m));

  const core::FlowReport got1 = core::reverse_engineer(deobf, flow);
  test::expect_reports_equal(got1, want, "deobf @1T");
  flow.threads = 8;
  const core::FlowReport got8 = core::reverse_engineer(deobf, flow);
  test::expect_reports_equal(got8, want, "deobf @8T");
}

TEST(ObfKeyGates, WrongKeyCorruptsOutputsUnderSimulation) {
  const nl::Netlist clean = clean_multiplier("mastrovito", 16);
  obf::PassOptions options;
  options.seed = 11;
  const obf::ObfuscationResult obfd =
      obf::apply_pass(clean, obf::PassKind::KeyGates, 2, options);
  const nl::Netlist wrong =
      obf::apply_key(obfd.netlist, obf::complement_key(obfd.key));
  Prng rng(1);
  const auto mismatch = sim::check_netlists_equal(clean, wrong, rng);
  ASSERT_TRUE(mismatch.has_value()) << "wrong key did not corrupt outputs";

  // The attack on the wrong-keyed netlist must diagnose, not recover.
  core::FlowOptions flow;
  flow.max_terms = 200000;
  const core::FlowReport report = core::reverse_engineer(wrong, flow);
  EXPECT_FALSE(report.success);
  // Flipping a single key bit (not all of them) must corrupt too.
  std::vector<bool> one_off = obfd.key;
  one_off[0] = !one_off[0];
  const nl::Netlist nearly = obf::apply_key(obfd.netlist, one_off);
  Prng rng2(2);
  EXPECT_TRUE(sim::check_netlists_equal(clean, nearly, rng2).has_value());
}

TEST(ObfKeyGates, FreeKeyInputsAreDiagnosedNotCrashed) {
  const nl::Netlist clean = clean_multiplier("mastrovito", 8);
  const obf::ObfuscationResult obfd =
      obf::apply_pass(clean, obf::PassKind::KeyGates, 2);
  core::FlowOptions flow;
  flow.max_terms = 200000;
  core::FlowReport report;
  ASSERT_NO_THROW(report = core::reverse_engineer(obfd.netlist, flow));
  EXPECT_FALSE(report.success);
}

TEST(ObfKeyGates, ApplyKeyRejectsKeysWithoutInputs) {
  const nl::Netlist clean = clean_multiplier("mastrovito", 8);
  const obf::ObfuscationResult obfd =
      obf::apply_pass(clean, obf::PassKind::KeyGates, 1);
  std::vector<bool> too_long = obfd.key;
  too_long.push_back(false);
  EXPECT_THROW(obf::apply_key(obfd.netlist, too_long), InvalidArgument);
}

TEST(ObfPxMix, PreservesFunctionAndTruePolynomialRecovers) {
  const unsigned m = 8;
  const nl::Netlist clean = clean_multiplier("mastrovito", m);
  const gf2::Poly truth = obf::field_polynomial(m);
  obf::PassOptions options;
  options.seed = 5;
  for (const gf2::Poly& candidate : gf2::all_irreducible(m)) {
    if (candidate != truth) {
      options.decoy = candidate;
      break;
    }
  }
  ASSERT_NE(options.decoy, truth);
  const obf::ObfuscationResult obfd =
      obf::apply_pass(clean, obf::PassKind::PxMix, 3, options);
  EXPECT_EQ(obfd.decoy, options.decoy);
  EXPECT_GT(obfd.netlist.num_equations(), clean.num_equations());

  Prng rng(3);
  EXPECT_FALSE(sim::check_netlists_equal(clean, obfd.netlist, rng).has_value())
      << "pxmix must preserve the function";

  core::FlowOptions flow;
  flow.threads = 2;
  const core::FlowReport clean_report = core::reverse_engineer(clean, flow);
  const core::FlowReport report = core::reverse_engineer(obfd.netlist, flow);
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.recovery.p, truth) << "decoy must not displace true P(x)";
  // The decoy pair cancels, but only after rewriting paid to expand it.
  EXPECT_GT(report.extraction.total_peak_terms,
            clean_report.extraction.total_peak_terms);
}

TEST(ObfPxMix, StackedMixesPickFreeNames) {
  // A second pxmix meets the first one's `<z>__raw` and `obf_mix*` names
  // in its input; it must pick free names, not die on a duplicate net.
  const unsigned m = 8;
  const nl::Netlist clean = clean_multiplier("mastrovito", m);
  const gf2::Poly truth = obf::field_polynomial(m);
  for (const char* text : {"pxmix:2+pxmix:2", "pxmix:1+keygate:1+pxmix:1"}) {
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
      obf::PassOptions options;
      options.seed = seed;
      obf::ObfuscationResult obfd;
      ASSERT_NO_THROW(obfd = obf::apply_stack(
                          clean, obf::parse_pass_stack(text), options))
          << text << " seed " << seed;
      const nl::Netlist attack =
          obfd.key.empty() ? obfd.netlist
                           : obf::apply_key(obfd.netlist, obfd.key);
      Prng rng(seed);
      EXPECT_FALSE(sim::check_netlists_equal(clean, attack, rng).has_value())
          << text << " seed " << seed;
      core::FlowOptions flow;
      flow.max_terms = 200000;
      const core::FlowReport report = core::reverse_engineer(attack, flow);
      if (report.success) {
        EXPECT_EQ(report.recovery.p, truth) << text << " seed " << seed;
      } else {
        EXPECT_FALSE(report.recovery.diagnosis.empty())
            << text << " seed " << seed;
      }
    }
  }
}

TEST(ObfRewrite, PreservesFunctionAndRecoversAtEveryStrength) {
  const unsigned m = 8;
  const nl::Netlist clean = clean_multiplier("mastrovito", m);
  const gf2::Poly truth = obf::field_polynomial(m);
  for (unsigned strength : {1u, 2u, 3u}) {
    obf::PassOptions options;
    options.seed = 9 + strength;
    const obf::ObfuscationResult obfd =
        obf::apply_pass(clean, obf::PassKind::Rewrite, strength, options);
    ASSERT_NO_THROW(obfd.netlist.validate());
    Prng rng(strength);
    EXPECT_FALSE(
        sim::check_netlists_equal(clean, obfd.netlist, rng).has_value())
        << "rewrite strength " << strength;
    core::FlowOptions flow;
    flow.threads = 2;
    const core::FlowReport report =
        core::reverse_engineer(obfd.netlist, flow);
    ASSERT_TRUE(report.success) << "rewrite strength " << strength;
    EXPECT_EQ(report.recovery.p, truth) << "rewrite strength " << strength;
  }
}

TEST(ObfFaults, DiagnoseOrRecoverNeverCrash) {
  const nl::Netlist clean = clean_multiplier("mastrovito", 8);
  for (obf::PassKind kind :
       {obf::PassKind::FaultStuckAt, obf::PassKind::FaultFlip}) {
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
      obf::PassOptions options;
      options.seed = seed;
      const obf::ObfuscationResult obfd =
          obf::apply_pass(clean, kind, 2, options);
      ASSERT_NO_THROW(obfd.netlist.validate());
      core::FlowOptions flow;
      flow.max_terms = 200000;
      core::FlowReport report;
      ASSERT_NO_THROW(report = core::reverse_engineer(obfd.netlist, flow))
          << obf::to_string(kind) << " seed " << seed;
      if (report.success) {
        EXPECT_TRUE(report.recovery.p_is_irreducible);
      } else {
        EXPECT_FALSE(report.recovery.diagnosis.empty());
      }
    }
  }
}

TEST(ObfKeyUtils, RenderParseComplementRoundTrip) {
  const std::vector<bool> key = {true, false, true, true};
  EXPECT_EQ(obf::render_key(key), "1011");
  EXPECT_EQ(obf::parse_key("1011"), key);
  EXPECT_EQ(obf::complement_key(key),
            (std::vector<bool>{false, true, false, false}));
  EXPECT_THROW(obf::parse_key("10x1"), InvalidArgument);
}

TEST(ObfCampaign, ScenarioMatrixSmokeWithSchedulerAndJsonl) {
  using obf::KeyMode;
  using obf::PassKind;
  std::vector<obf::Scenario> scenarios;
  scenarios.push_back({"", "mastrovito", 8, {{PassKind::KeyGates, 1}}, 1,
                       KeyMode::Correct, std::nullopt});
  scenarios.push_back({"", "mastrovito", 8, {{PassKind::KeyGates, 1}}, 1,
                       KeyMode::Wrong, std::nullopt});
  scenarios.push_back({"", "montgomery", 8, {{PassKind::PxMix, 1}}, 2,
                       KeyMode::None, std::nullopt});
  scenarios.push_back(
      {"", "mastrovito", 8, {}, 1, KeyMode::None, std::nullopt});

  obf::CampaignOptions options;
  options.threads = 2;
  options.max_terms = 500000;
  const obf::CampaignReport report = obf::run_campaign(scenarios, options);
  ASSERT_EQ(report.outcomes.size(), scenarios.size());

  const obf::ScenarioOutcome& correct = report.outcomes[0];
  EXPECT_TRUE(correct.recovered) << correct.diagnosis;
  EXPECT_EQ(correct.key_mode, "correct");
  ASSERT_TRUE(correct.corrupts.has_value());
  EXPECT_TRUE(*correct.corrupts);
  EXPECT_EQ(correct.recovered_p, obf::field_polynomial(8));

  const obf::ScenarioOutcome& wrong = report.outcomes[1];
  EXPECT_FALSE(wrong.ok);
  EXPECT_FALSE(wrong.recovered);

  const obf::ScenarioOutcome& pxmix = report.outcomes[2];
  EXPECT_TRUE(pxmix.recovered) << pxmix.diagnosis;
  EXPECT_EQ(pxmix.key_mode, "none");
  EXPECT_GE(pxmix.blowup, 1.0);

  const obf::ScenarioOutcome& clean = report.outcomes[3];
  EXPECT_TRUE(clean.recovered) << clean.diagnosis;
  EXPECT_EQ(clean.pass, "");

  // Clean twins deduplicate through the scheduler's content-hash memo.
  EXPECT_GE(report.stats.cache_hits, 2u);

  const std::string line = obf::outcome_json(correct).render();
  EXPECT_NE(line.find("\"scenario\""), std::string::npos);
  EXPECT_NE(line.find("\"recovered\": true"), std::string::npos);
  EXPECT_NE(line.find("\"corrupts\": true"), std::string::npos);
}

TEST(ObfCampaign, PreparedScenariosAreDeterministic) {
  obf::Scenario scenario;
  scenario.family = "karatsuba";
  scenario.m = 8;
  scenario.passes = {{obf::PassKind::KeyGates, 1}, {obf::PassKind::PxMix, 1}};
  scenario.seed = 77;
  const obf::PreparedScenario a = obf::prepare_scenario(scenario);
  const obf::PreparedScenario b = obf::prepare_scenario(scenario);
  EXPECT_EQ(nl::write_eqn(a.obf.netlist), nl::write_eqn(b.obf.netlist));
  EXPECT_EQ(a.obf.key, b.obf.key);
  EXPECT_EQ(nl::write_eqn(a.attack), nl::write_eqn(b.attack));
  EXPECT_EQ(a.scenario.name, "karatsuba_m8_keygate_1_pxmix_1_s77_correct");
}

}  // namespace
}  // namespace gfre
