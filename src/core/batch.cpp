#include "core/batch.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <future>
#include <set>
#include <sstream>

#include "core/scheduler.hpp"
#include "util/error.hpp"
#include "util/options.hpp"
#include "util/timer.hpp"

namespace gfre::core {

bool BatchReport::all_ok() const {
  return std::all_of(results.begin(), results.end(),
                     [](const BatchJobResult& r) { return r.ok; });
}

const char* to_string(JobPriority priority) {
  switch (priority) {
    case JobPriority::High:
      return "high";
    case JobPriority::Normal:
      return "normal";
    case JobPriority::Low:
      return "low";
  }
  return "normal";
}

std::optional<JobPriority> priority_from_name(std::string_view name) {
  std::string lowered(name);
  std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lowered == "high") return JobPriority::High;
  if (lowered == "normal") return JobPriority::Normal;
  if (lowered == "low") return JobPriority::Low;
  return std::nullopt;
}

// The submit-all-then-wait entry point, reimplemented as a thin wrapper
// over the long-lived scheduler: submit every job, drain, collect the
// futures in submission order.  All scheduling behavior (state machine,
// memoization, in-flight dedup, affinity, cone stealing) lives in
// core/scheduler.cpp — there is exactly one engine, so the differential
// guarantees proven for run_batch hold for the async path by construction.
BatchReport run_batch(std::vector<BatchJob> jobs,
                      const BatchOptions& options) {
  GFRE_ASSERT(options.threads >= 1, "batch needs at least one worker");
  Timer clock;
  BatchReport out;
  out.threads = options.threads;
  std::vector<std::future<BatchJobResult>> futures;
  futures.reserve(jobs.size());
  {
    BatchScheduler scheduler(options);
    for (auto& job : jobs) {
      futures.push_back(scheduler.submit(std::move(job)).result);
    }
    scheduler.drain();
    out.stats = scheduler.stats();
  }
  out.results.reserve(futures.size());
  // get() rethrows only for engine bugs (per-job failures are results) —
  // the same surface the old in-place scheduler exposed via parallel_for.
  for (auto& future : futures) out.results.push_back(future.get());
  out.wall_seconds = clock.seconds();
  return out;
}

// ---------------------------------------------------------------------------
// Manifest parsing
// ---------------------------------------------------------------------------

namespace {

bool parse_bool(const std::string& value) {
  if (value == "1" || value == "true" || value == "yes") return true;
  if (value == "0" || value == "false" || value == "no") return false;
  throw InvalidArgument("expected a boolean, got '" + value + "'");
}

}  // namespace

void parse_port_spec(const std::string& spec, FlowOptions& options) {
  const auto c1 = spec.find(',');
  const auto c2 = c1 == std::string::npos ? c1 : spec.find(',', c1 + 1);
  // 'a,b,z,extra' must not silently fold ",extra" into the z base name —
  // that is a job analyzing the wrong port.
  if (c2 == std::string::npos || spec.find(',', c2 + 1) != std::string::npos) {
    throw InvalidArgument("ports wants exactly three base names a,b,z, got '" +
                          spec + "'");
  }
  options.a_base = spec.substr(0, c1);
  options.b_base = spec.substr(c1 + 1, c2 - c1 - 1);
  options.z_base = spec.substr(c2 + 1);
}

std::optional<BatchJob> parse_manifest_line(const std::string& line,
                                            int lineno,
                                            const std::string& manifest_path,
                                            const std::string& base_dir,
                                            const FlowOptions& defaults) {
  std::string text = line;
  // Manifests written on Windows (or fetched through a CRLF-normalizing
  // transport) end lines in \r\n; getline leaves the \r attached.
  if (!text.empty() && text.back() == '\r') text.pop_back();

  const std::filesystem::path base(base_dir);
  std::istringstream tokens(text);
  std::string token;
  BatchJob job;
  job.options = defaults;
  bool have_path = false;
  bool have_options = false;
  std::set<std::string> seen_keys;
  while (tokens >> token) {
    if (token[0] == '#') break;
    const auto eq = token.find('=');
    if (!have_path && eq == std::string::npos) {
      std::filesystem::path p(token);
      job.path = p.is_absolute() ? p.string() : (base / p).string();
      have_path = true;
      continue;
    }
    if (eq == std::string::npos) {
      throw ParseError(manifest_path, lineno,
                       "expected key=value, got '" + token + "'");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    have_options = true;
    // A repeated key is near-certainly an editing mistake ("deadline_ms=1
    // deadline_ms=1000"); letting the last one win silently runs the job
    // under whichever value happened to be typed second.
    if (!seen_keys.insert(key).second) {
      throw ParseError(manifest_path, lineno,
                       "duplicate manifest key '" + key + "'");
    }
    try {
      if (key == "name") {
        job.name = value;
      } else if (key == "ports") {
        parse_port_spec(value, job.options);
      } else if (key == "infer") {
        job.options.infer_ports = parse_bool(value);
      } else if (key == "verify") {
        job.options.verify_with_golden = parse_bool(value);
      } else if (key == "permute") {
        job.options.try_output_permutation = parse_bool(value);
      } else if (key == "max_terms") {
        job.options.max_terms = parse_u64(value, key);
      } else if (key == "deadline_ms") {
        job.deadline_ms = parse_u64(value, key);
      } else if (key == "library") {
        // Library paths resolve like netlist paths: against the
        // manifest's directory.
        std::filesystem::path p(value);
        job.options.library =
            p.is_absolute() ? p.string() : (base / p).string();
      } else if (key == "priority") {
        const auto priority = priority_from_name(value);
        if (!priority.has_value()) {
          throw InvalidArgument("unknown priority '" + value +
                                "' (want high|normal|low)");
        }
        job.priority = *priority;
      } else {
        throw InvalidArgument("unknown manifest key '" + key + "'");
      }
    } catch (const std::exception& e) {
      throw ParseError(manifest_path, lineno, e.what());
    }
  }
  if (!have_path) {
    // Blank and comment-only lines are fine; a line that parsed options
    // but no path is a dropped job waiting to go unnoticed.
    if (have_options) {
      throw ParseError(manifest_path, lineno,
                       "job line has key=value options but no netlist "
                       "path");
    }
    return std::nullopt;
  }
  return job;
}

std::vector<BatchJob> parse_manifest(const std::string& path,
                                     const FlowOptions& defaults) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open manifest '" + path + "'");
  const std::string base =
      std::filesystem::path(path).parent_path().string();

  std::vector<BatchJob> jobs;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (auto job = parse_manifest_line(line, lineno, path, base, defaults)) {
      jobs.push_back(std::move(*job));
    }
  }
  return jobs;
}

}  // namespace gfre::core
