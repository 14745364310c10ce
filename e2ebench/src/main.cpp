// gfre end-to-end benchmark: netlist bytes in, P(x) report out.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--scale full|tiny]
//
// Prints a host block, one line per metric (name = value unit), and as the
// last line of standard output one JSON object:
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (e2ebench/README.md).  Exit status: 0 when every report matched its known
// answer, 1 when any did not, 2 on usage or set-up errors (no result line).
#include <csignal>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "anf/simd.hpp"
#include "workloads.hpp"

namespace {

using gfre::e2e::RunConfig;
using gfre::e2e::RunResult;

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string host_json() {
  namespace simd = gfre::anf::simd;
  const char* env = std::getenv("GFRE_SIMD");
  return std::string("{\"nproc\": ") +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"simd_detected\": " + quoted(simd::to_string(simd::detect_level())) +
         ", \"simd_active\": " + quoted(simd::to_string(simd::active_level())) +
         ", \"GFRE_SIMD\": " + quoted(env != nullptr ? env : "") +
         ", \"build_type\": " + quoted(E2EBENCH_BUILD_TYPE) +
         ", \"compiler\": " + quoted(E2EBENCH_COMPILER) + "}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "crypto_single|dialect_163|serve_cold|serve_warm --seed N "
               "--seconds S --trace 0|1 [--scale full|tiny]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // The serving tier writes to worker sockets; a dead peer must surface as
  // a failed write, not kill the benchmark.
  std::signal(SIGPIPE, SIG_IGN);

  RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        cfg.workload = value;
      } else if (flag == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        cfg.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        cfg.trace = value == "1";
      } else if (flag == "--scale") {
        if (value != "full" && value != "tiny") return usage("bad --scale");
        cfg.tiny = value == "tiny";
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  bool known = false;
  for (const auto& name : gfre::e2e::workload_names()) known |= name == cfg.workload;
  if (!known) return usage("missing or unknown --workload");
  if (!(cfg.seconds > 0)) return usage("--seconds must be positive");
  cfg.work_dir = ".bench_work/" + cfg.workload;

  std::printf("e2ebench: workload=%s seed=%llu seconds=%s trace=%d scale=%s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              number(cfg.seconds).c_str(), cfg.trace ? 1 : 0,
              cfg.tiny ? "tiny" : "full");
  std::printf("host: %s\n", host_json().c_str());
  std::fflush(stdout);

  RunResult result;
  try {
    result = gfre::e2e::run_workload(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 2;
  }

  for (const auto& problem : result.problems) {
    std::fprintf(stderr, "e2ebench: WRONG: %s\n", problem.c_str());
  }
  for (const auto& m : result.metrics) {
    std::printf("%-34s = %s %s%s%s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str(), m.note.empty() ? "" : "  ", m.note.c_str());
  }
  if (!result.trace_path.empty()) {
    std::printf("trace: %s (Chrome trace-event JSON)\n", result.trace_path.c_str());
  }
  const bool correct = result.failed == 0 && result.problems.empty() &&
                       result.attempted > 0;
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& m = result.metrics[i];
    json += (i == 0 ? "" : ", ") + quoted(m.name) + ": {\"value\": " +
            number(m.value) + ", \"unit\": " + quoted(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
