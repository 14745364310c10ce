#include "obf/campaign.hpp"

#include <cctype>
#include <utility>

#include "gen/karatsuba.hpp"
#include "gen/mastrovito.hpp"
#include "gen/montgomery_gate.hpp"
#include "gen/shift_add.hpp"
#include "gf2poly/catalog.hpp"
#include "gf2poly/irreducible.hpp"
#include "sim/equivalence.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"

namespace gfre::obf {

const char* to_string(KeyMode mode) {
  switch (mode) {
    case KeyMode::None:
      return "none";
    case KeyMode::Correct:
      return "correct";
    case KeyMode::Wrong:
      return "wrong";
    case KeyMode::Free:
      return "free";
  }
  return "?";
}

std::optional<KeyMode> key_mode_from_name(std::string_view name) {
  std::string lower;
  for (char c : name)
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  for (KeyMode mode :
       {KeyMode::None, KeyMode::Correct, KeyMode::Wrong, KeyMode::Free})
    if (lower == to_string(mode)) return mode;
  return std::nullopt;
}

const std::vector<std::string>& campaign_families() {
  static const std::vector<std::string> families = {
      "mastrovito", "montgomery", "karatsuba", "shiftadd"};
  return families;
}

nl::Netlist generate_family(const std::string& family,
                            const gf2m::Field& field) {
  if (family == "mastrovito") return gen::generate_mastrovito(field);
  if (family == "montgomery") return gen::generate_montgomery(field);
  if (family == "karatsuba") return gen::generate_karatsuba(field);
  if (family == "shiftadd") return gen::generate_shift_add(field);
  throw InvalidArgument("unknown campaign family '" + family + "'");
}

gf2::Poly field_polynomial(unsigned m) {
  return gf2::has_paper_polynomial(m) ? gf2::paper_polynomial(m).p
                                      : gf2::default_irreducible(m);
}

std::string scenario_name(const Scenario& scenario) {
  std::string stack = to_string(scenario.passes);
  for (char& c : stack)
    if (c == '+' || c == ':') c = '_';
  if (stack.empty()) stack = "clean";
  return scenario.family + "_m" + std::to_string(scenario.m) + "_" + stack +
         "_s" + std::to_string(scenario.seed) + "_" +
         to_string(scenario.key_mode);
}

PreparedScenario prepare_scenario(const Scenario& scenario) {
  PreparedScenario prepared{scenario,
                            field_polynomial(scenario.m),
                            nl::Netlist(),
                            {nl::Netlist(), {}, "k", {}},
                            nl::Netlist(),
                            {}};
  if (prepared.scenario.name.empty())
    prepared.scenario.name = scenario_name(scenario);
  const gf2m::Field field(prepared.truth);
  prepared.clean = generate_family(scenario.family, field);
  PassOptions options;
  options.seed = scenario.seed;
  prepared.obf = apply_stack(prepared.clean, scenario.passes, options);

  const std::vector<bool>& key = prepared.obf.key;
  if (scenario.explicit_key) {
    prepared.attack_key = *scenario.explicit_key;
    prepared.attack = apply_key(prepared.obf.netlist, prepared.attack_key,
                                prepared.obf.key_base);
    return prepared;
  }
  switch (scenario.key_mode) {
    case KeyMode::Correct:
      if (!key.empty()) prepared.attack_key = key;
      break;
    case KeyMode::Wrong:
      if (!key.empty()) prepared.attack_key = complement_key(key);
      break;
    case KeyMode::None:
    case KeyMode::Free:
      break;
  }
  prepared.attack = prepared.attack_key.empty()
                        ? prepared.obf.netlist
                        : apply_key(prepared.obf.netlist, prepared.attack_key,
                                    prepared.obf.key_base);
  return prepared;
}

bool CampaignReport::all_recovered() const {
  for (const ScenarioOutcome& outcome : outcomes)
    if (!outcome.recovered) return false;
  return true;
}

CampaignReport run_campaign(const std::vector<Scenario>& scenarios,
                            const CampaignOptions& options) {
  std::vector<PreparedScenario> prepared;
  prepared.reserve(scenarios.size());
  for (const Scenario& scenario : scenarios)
    prepared.push_back(prepare_scenario(scenario));

  core::FlowOptions flow;
  flow.max_terms = options.max_terms;
  flow.verify_with_golden = options.verify_with_golden;

  std::vector<core::BatchJob> jobs;
  jobs.reserve(prepared.size() * 2);
  for (const PreparedScenario& p : prepared) {
    core::BatchJob attack;
    attack.name = p.scenario.name;
    attack.netlist = std::make_shared<const nl::Netlist>(p.attack);
    attack.options = flow;
    jobs.push_back(std::move(attack));
    if (options.measure_clean) {
      core::BatchJob clean;
      clean.name = p.scenario.family + "_m" + std::to_string(p.scenario.m) +
                   "_clean";
      clean.netlist = std::make_shared<const nl::Netlist>(p.clean);
      clean.options = flow;
      jobs.push_back(std::move(clean));
    }
  }

  core::BatchOptions batch;
  batch.threads = options.threads;
  batch.result_cache = options.result_cache;
  core::BatchReport report = core::run_batch(std::move(jobs), batch);

  CampaignReport campaign;
  campaign.stats = report.stats;
  campaign.wall_seconds = report.wall_seconds;
  const std::size_t stride = options.measure_clean ? 2 : 1;
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    const PreparedScenario& p = prepared[i];
    const core::BatchJobResult& attack = report.results[i * stride];
    ScenarioOutcome outcome;
    outcome.name = p.scenario.name;
    outcome.family = p.scenario.family;
    outcome.m = p.scenario.m;
    outcome.pass = to_string(p.scenario.passes);
    for (const PassSpec& spec : p.scenario.passes)
      outcome.strength += spec.strength;
    outcome.key_mode = to_string(
        p.obf.key.empty() ? KeyMode::None : p.scenario.key_mode);
    outcome.key_bits = p.obf.key.size();
    outcome.truth = p.truth;
    outcome.clean_equations = p.clean.num_equations();
    outcome.obf_equations = p.obf.netlist.num_equations();
    outcome.ok = attack.ok;
    outcome.recovered_p = attack.report.recovery.p;
    outcome.recovered = attack.ok && attack.report.recovery.p == p.truth;
    outcome.diagnosis =
        !attack.error.empty() ? attack.error : attack.report.recovery.diagnosis;
    outcome.seconds = attack.report.extraction.wall_seconds;
    outcome.peak_terms = attack.report.extraction.total_peak_terms;
    outcome.cache_hit = attack.cache_hit;
    if (options.measure_clean) {
      const core::BatchJobResult& clean = report.results[i * stride + 1];
      outcome.clean_peak_terms = clean.report.extraction.total_peak_terms;
      if (outcome.clean_peak_terms > 0)
        outcome.blowup = static_cast<double>(outcome.peak_terms) /
                         static_cast<double>(outcome.clean_peak_terms);
    }
    if (options.check_corruption && !p.obf.key.empty()) {
      Prng rng(p.scenario.seed ^ 0xc0ffee);
      const nl::Netlist wrong = apply_key(
          p.obf.netlist, complement_key(p.obf.key), p.obf.key_base);
      outcome.corrupts =
          sim::check_netlists_equal(p.clean, wrong, rng).has_value();
    }
    campaign.outcomes.push_back(std::move(outcome));
  }
  return campaign;
}

JsonLine outcome_json(const ScenarioOutcome& outcome) {
  JsonLine line;
  line.add("scenario", outcome.name)
      .add("family", outcome.family)
      .add("m", outcome.m)
      .add("pass", outcome.pass.empty() ? "clean" : outcome.pass)
      .add("strength", outcome.strength)
      .add("key_mode", outcome.key_mode)
      .add("key_bits", outcome.key_bits)
      .add("expected_p", outcome.truth.to_paper_string())
      .add("ok", outcome.ok)
      .add("recovered", outcome.recovered)
      .add("p", outcome.ok ? outcome.recovered_p.to_paper_string()
                           : std::string());
  if (!outcome.ok) line.add("diagnosis", outcome.diagnosis);
  if (outcome.corrupts) line.add("corrupts", *outcome.corrupts);
  line.add("equations", outcome.clean_equations)
      .add("obf_equations", outcome.obf_equations)
      .add("extract_seconds", outcome.seconds)
      .add("peak_terms", outcome.peak_terms)
      .add("clean_peak_terms", outcome.clean_peak_terms)
      .add("blowup", outcome.blowup)
      .add("cache_hit", outcome.cache_hit);
  return line;
}

}  // namespace gfre::obf
