// Fault-injection campaign — what the verification leg of the flow is for.
//
// The paper's pipeline does not just emit a polynomial: it checks the
// implementation against a golden model built from the recovered P(x).
// This CLI drives the campaign's fault passes (src/obf/fault.cpp) through
// the same scenario driver as examples/obfuscated_recovery.cpp: a control
// scenario (clean multiplier, must recover) plus fault scenarios
// (stuck-at pins / flipped cells, must diagnose or recover, never crash),
// all through the batch scheduler, all in the shared JSONL schema.
//
//   fault_injection [--family NAME] [--m N] [--fault stuckat|flip|both]
//                   [--count N] [--seed N] [--threads N]
//                   [--out report.jsonl] [--quiet] [--help]
//
// Exit code 0 when the control recovers the true P(x) and every fault
// scenario completes (diagnosed or recovered); 1 otherwise; 2 on usage
// errors.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "obf/campaign.hpp"
#include "obf/passes.hpp"
#include "util/error.hpp"
#include "util/jsonl.hpp"
#include "util/options.hpp"

namespace {

void usage(std::ostream& os) {
  os << "usage: fault_injection [options]\n"
     << "\n"
     << "  --family NAME   mastrovito|montgomery|karatsuba|shiftadd\n"
     << "                  (default mastrovito)\n"
     << "  --m N           field width (default 8)\n"
     << "  --fault KIND    stuckat, flip, or both (default both)\n"
     << "  --count N       faults injected per scenario (default 1)\n"
     << "  --seed N        fault-site seed (default 1)\n"
     << "  --threads N     flow worker threads (default: hardware)\n"
     << "  --out FILE      write one JSONL record per scenario\n"
     << "  --quiet         suppress the human-readable summary\n"
     << "  --help          print this message and exit\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gfre;

  std::string family = "mastrovito";
  unsigned m = 8;
  std::string fault = "both";
  unsigned count = 1;
  std::uint64_t seed = 1;
  obf::CampaignOptions campaign;
  campaign.threads = static_cast<unsigned>(configured_threads());
  std::string out_path;
  bool quiet = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--family" && i + 1 < argc) {
        family = argv[++i];
      } else if (arg == "--m" && i + 1 < argc) {
        m = static_cast<unsigned>(parse_u64(argv[++i], arg, 2, 1024));
      } else if (arg == "--fault" && i + 1 < argc) {
        fault = argv[++i];
        if (fault != "stuckat" && fault != "flip" && fault != "both") {
          std::cerr << "--fault wants stuckat, flip or both\n";
          usage(std::cerr);
          return 2;
        }
      } else if (arg == "--count" && i + 1 < argc) {
        count = static_cast<unsigned>(parse_u64(argv[++i], arg, 1, 1024));
      } else if (arg == "--seed" && i + 1 < argc) {
        seed = parse_u64(argv[++i], arg);
      } else if (arg == "--threads" && i + 1 < argc) {
        campaign.threads =
            static_cast<unsigned>(parse_u64(argv[++i], arg, 1, 4096));
      } else if (arg == "--out" && i + 1 < argc) {
        out_path = argv[++i];
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
  } catch (const InvalidArgument& e) {
    std::cerr << "bad argument: " << e.what() << "\n";
    usage(std::cerr);
    return 2;
  }

  // Control first (the clean twin the scheduler dedups against), then one
  // scenario per requested fault kind.
  std::vector<obf::Scenario> scenarios;
  obf::Scenario control;
  control.family = family;
  control.m = m;
  control.seed = seed;
  control.key_mode = obf::KeyMode::None;
  scenarios.push_back(control);
  const auto add_fault = [&](obf::PassKind kind) {
    obf::Scenario scenario = control;
    scenario.passes = {obf::PassSpec{kind, count}};
    scenarios.push_back(scenario);
  };
  if (fault == "stuckat" || fault == "both")
    add_fault(obf::PassKind::FaultStuckAt);
  if (fault == "flip" || fault == "both") add_fault(obf::PassKind::FaultFlip);

  try {
    const obf::CampaignReport report = obf::run_campaign(scenarios, campaign);

    bool all_met = true;
    for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
      const obf::ScenarioOutcome& outcome = report.outcomes[i];
      const bool is_control = i == 0;
      // Control must recover; fault scenarios must complete either way —
      // a diagnosed fault and a masked (still-correct) fault both honor
      // the recover-or-diagnose contract.
      const bool met = is_control ? outcome.recovered
                                  : (outcome.ok || !outcome.diagnosis.empty());
      all_met = all_met && met;
      if (!quiet) {
        std::printf("=== %s ===\n", outcome.name.c_str());
        if (outcome.ok) {
          std::printf("recovered P(x) = %s (%s)\n",
                      outcome.recovered_p.to_string().c_str(),
                      outcome.recovered ? "true field"
                                        : "NOT the true field");
        } else {
          std::printf("diagnosed: %s\n", outcome.diagnosis.c_str());
        }
        std::printf("%s\n\n", met ? "contract MET" : "contract VIOLATED");
      }
    }
    if (!out_path.empty()) {
      JsonlWriter writer(out_path);
      for (const obf::ScenarioOutcome& outcome : report.outcomes)
        writer.write(obf::outcome_json(outcome));
      writer.close();
      if (!writer.ok()) {
        std::cerr << "error: failed writing " << out_path << "\n";
        return 2;
      }
    }
    if (!quiet)
      std::printf("%zu scenarios, %.2fs wall: %s\n", report.outcomes.size(),
                  report.wall_seconds,
                  all_met ? "all contracts met" : "CONTRACT VIOLATIONS");
    return all_met ? 0 : 1;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
