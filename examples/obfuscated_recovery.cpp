// Obfuscated-circuit recovery — one campaign scenario as a CLI.
//
// Generates the clean multiplier, applies an obfuscation pass stack
// (src/obf/), derives the attacked netlist per the key mode, and runs the
// full reverse-engineering flow through the campaign driver (batch
// scheduler + content-hash cache — the same path the bench and the test
// wall use).  The outcome is printed and optionally written as one JSONL
// record in the shared campaign schema.
//
// Exit code 0 when the outcome matches the scenario's contract:
//   correct key / no key on a semantics-preserving stack => recovered;
//   wrong key => NOT recovered AND corruption proven by simulation;
//   free (unknown) key => NOT recovered, diagnosed without crashing;
//   fault stacks (stuckat/flip) => recover-or-diagnose (any completed
//   run).  1 when the contract is violated, 2 on usage errors.
//
// --emit-obf / --emit-key freeze the obfuscated netlist (.eqn) and its
// correct key to disk — how the data/obf/ corpus fixtures were made.
#include <climits>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "netlist/io_eqn.hpp"
#include "obf/campaign.hpp"
#include "obf/passes.hpp"
#include "util/error.hpp"
#include "util/jsonl.hpp"
#include "util/options.hpp"

namespace {

void usage(std::ostream& os) {
  os << "usage: obfuscated_recovery [options]\n"
     << "\n"
     << "  --family NAME      mastrovito|montgomery|karatsuba|shiftadd\n"
     << "                     (default mastrovito)\n"
     << "  --m N              field width (default 16)\n"
     << "  --pass STACK       '+'-separated obfuscation passes, each\n"
     << "                     optionally ':N' strength: keygate, pxmix,\n"
     << "                     rewrite, stuckat, flip (default keygate)\n"
     << "  --strength N       strength for passes without an explicit\n"
     << "                     ':N' (default 2; 0 = identity)\n"
     << "  --key MODE         correct (de-obfuscate, default), wrong\n"
     << "                     (complement key), free (key inputs left\n"
     << "                     unknown), or an explicit 0/1 bit string\n"
     << "  --seed N           obfuscation seed (default 1)\n"
     << "  --threads N        flow worker threads (default: hardware)\n"
     << "  --max-terms N      per-bit term budget (default 2000000)\n"
     << "  --out FILE         write the scenario as one JSONL record\n"
     << "  --emit-obf FILE    write the obfuscated netlist as .eqn\n"
     << "  --emit-key FILE    write the correct key as a 0/1 line\n"
     << "  --quiet            suppress the human-readable summary\n"
     << "  --help             print this message and exit\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gfre;

  obf::Scenario scenario;
  scenario.family = "mastrovito";
  scenario.m = 16;
  scenario.seed = 1;
  scenario.key_mode = obf::KeyMode::Correct;
  std::string pass_text = "keygate";
  unsigned default_strength = 2;
  obf::CampaignOptions campaign;
  campaign.threads = static_cast<unsigned>(configured_threads());
  std::string out_path, emit_obf, emit_key;
  bool quiet = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--family" && i + 1 < argc) {
        scenario.family = argv[++i];
      } else if (arg == "--m" && i + 1 < argc) {
        scenario.m =
            static_cast<unsigned>(parse_u64(argv[++i], arg, 2, 1024));
      } else if (arg == "--pass" && i + 1 < argc) {
        pass_text = argv[++i];
      } else if (arg == "--strength" && i + 1 < argc) {
        default_strength = static_cast<unsigned>(
            parse_u64(argv[++i], arg, 0, UINT_MAX));
      } else if (arg == "--key" && i + 1 < argc) {
        const std::string value = argv[++i];
        if (const auto mode = obf::key_mode_from_name(value)) {
          scenario.key_mode = *mode;
        } else {
          scenario.explicit_key = obf::parse_key(value);  // throws on junk
        }
      } else if (arg == "--seed" && i + 1 < argc) {
        scenario.seed = parse_u64(argv[++i], arg);
      } else if (arg == "--threads" && i + 1 < argc) {
        campaign.threads =
            static_cast<unsigned>(parse_u64(argv[++i], arg, 1, 4096));
      } else if (arg == "--max-terms" && i + 1 < argc) {
        campaign.max_terms = parse_u64(argv[++i], arg);
      } else if (arg == "--out" && i + 1 < argc) {
        out_path = argv[++i];
      } else if (arg == "--emit-obf" && i + 1 < argc) {
        emit_obf = argv[++i];
      } else if (arg == "--emit-key" && i + 1 < argc) {
        emit_key = argv[++i];
      } else if (arg == "--quiet") {
        quiet = true;
      } else if (arg == "--help") {
        usage(std::cout);
        return 0;
      } else {
        std::cerr << "unknown argument '" << arg << "'\n";
        usage(std::cerr);
        return 2;
      }
    }
    scenario.passes = obf::parse_pass_stack(pass_text, default_strength);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    usage(std::cerr);
    return 2;
  }

  try {
    const obf::PreparedScenario prepared = obf::prepare_scenario(scenario);
    if (!emit_obf.empty()) {
      nl::write_eqn_file(prepared.obf.netlist, emit_obf);
      if (!quiet) std::printf("wrote %s\n", emit_obf.c_str());
    }
    if (!emit_key.empty()) {
      obf::write_key_file(prepared.obf.key, emit_key);
      if (!quiet) std::printf("wrote %s\n", emit_key.c_str());
    }

    const obf::CampaignReport report = obf::run_campaign({scenario}, campaign);
    const obf::ScenarioOutcome& outcome = report.outcomes.at(0);

    if (!quiet) {
      std::printf("scenario:   %s\n", outcome.name.c_str());
      std::printf("field:      GF(2^%u), P(x) = %s\n", outcome.m,
                  outcome.truth.to_string().c_str());
      std::printf("pass stack: %s   key: %s (%zu bits)\n",
                  outcome.pass.empty() ? "clean" : outcome.pass.c_str(),
                  outcome.key_mode.c_str(), outcome.key_bits);
      std::printf("equations:  clean %zu -> obfuscated %zu\n",
                  outcome.clean_equations, outcome.obf_equations);
      if (outcome.corrupts)
        std::printf("wrong key:  %s\n",
                    *outcome.corrupts ? "corrupts outputs (simulation)"
                                      : "NO CORRUPTION DETECTED");
      if (outcome.ok) {
        std::printf("recovered:  %s (%s)\n",
                    outcome.recovered_p.to_string().c_str(),
                    outcome.recovered ? "matches the true field"
                                      : "DOES NOT match the true field");
      } else {
        std::printf("diagnosed:  %s\n", outcome.diagnosis.c_str());
      }
      std::printf(
          "cost:       %.3fs extraction, peak terms %zu (%.2fx of clean)\n",
          outcome.seconds, outcome.peak_terms, outcome.blowup);
    }
    if (!out_path.empty()) {
      JsonlWriter writer(out_path);
      writer.write(obf::outcome_json(outcome));
      writer.close();
      if (!writer.ok()) {
        std::cerr << "error: failed writing " << out_path << "\n";
        return 2;
      }
    }

    // Scenario contract (see file header).
    bool preserving = true;
    for (const obf::PassSpec& spec : scenario.passes)
      preserving = preserving &&
                   (obf::semantics_preserving(spec.kind) || spec.strength == 0);
    bool contract_met;
    if (scenario.explicit_key) {
      const bool is_correct = *scenario.explicit_key == prepared.obf.key;
      contract_met = !preserving || outcome.recovered == is_correct;
    } else if (!preserving) {
      contract_met = outcome.ok || !outcome.diagnosis.empty();
    } else if (outcome.key_bits > 0 &&
               (scenario.key_mode == obf::KeyMode::Wrong ||
                scenario.key_mode == obf::KeyMode::Free)) {
      contract_met = !outcome.recovered;
      if (scenario.key_mode == obf::KeyMode::Wrong)
        contract_met = contract_met && outcome.corrupts.value_or(false);
    } else {
      contract_met = outcome.recovered;
    }
    if (!quiet)
      std::printf("contract:   %s\n", contract_met ? "MET" : "VIOLATED");
    return contract_met ? 0 : 1;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
