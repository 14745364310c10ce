#include "workloads.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>

#include "core/flow.hpp"
#include "core/parallel_extract.hpp"
#include "core/poly_extract.hpp"
#include "core/redmatrix.hpp"
#include "core/report_io.hpp"
#include "core/report_json.hpp"
#include "core/result_cache.hpp"
#include "core/scheduler.hpp"
#include "core/verify.hpp"
#include "frontend/frontend.hpp"
#include "gf2m/field.hpp"
#include "inputs.hpp"
#include "serve/coordinator.hpp"
#include "serve/wire.hpp"
#include "trace.hpp"
#include "util/bytes.hpp"

namespace gfre::e2e {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// An end-to-end run sets up at least kSetupReps times, and keeps going
/// (up to kSetupMaxReps) until set-up has taken kSetupMinSeconds, then
/// reports the median: cheap set-ups get more samples.
constexpr int kSetupReps = 3;
constexpr int kSetupMaxReps = 9;
constexpr double kSetupMinSeconds = 2.0;

/// Fleet runs hold at least this many latency samples, so p99 has at
/// least ten samples beyond it.
constexpr std::size_t kMinFleetSamples = 1000;

// ---------------------------------------------------------------------------
// Workload shapes
// ---------------------------------------------------------------------------

struct Shape {
  /// Jobs go through a serve::Coordinator fleet (else an in-process
  /// core::BatchScheduler).
  bool fleet = false;
  /// The fleet replays a disk cache filled during set-up.
  bool warm = false;
  /// In-process pool width; for the fleet, threads per worker.
  unsigned threads = 4;
  unsigned workers = 2;
  /// Jobs in flight from the one submitting thread (closed loop).
  unsigned window = 1;
  /// Seconds one round (in process) or pass (fleet) of jobs takes on the
  /// reference host (4 cores, AVX-512).  A run executes a fixed number of
  /// them, enough to fill --seconds there, so every run of a workload does
  /// the same work whatever the host's speed of the moment.
  double round_estimate_s = 0;
  /// Seeds the job list; serve_cold and serve_warm share it, so both run
  /// the identical job list for a given --seed.
  std::uint64_t salt = 0;
};

Shape shape_of(const std::string& workload) {
  Shape s;
  if (workload == "crypto_single") {
    s.round_estimate_s = 6.8;
    s.salt = 0xc0ffee01;
  } else if (workload == "dialect_163") {
    s.round_estimate_s = 4.9;
    s.salt = 0xc0ffee02;
  } else if (workload == "serve_cold" || workload == "serve_warm") {
    s.fleet = true;
    s.warm = workload == "serve_warm";
    s.threads = 2;
    // Cold: one job per worker, so p99 is the big jobs' service time, not
    // which of them meet in one worker.  Warm: hits are short, so two per
    // worker keep the fleet busy and p99 clear of each fresh fleet's
    // first-job warm-up.
    s.window = s.warm ? 4 : 2;
    s.round_estimate_s = s.warm ? 0.23 : 4.0;
    s.salt = 0xc0ffee03;
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return s;
}

/// Rounds (passes) one run executes: enough to fill --seconds on the
/// reference host.
std::size_t planned_rounds(const RunConfig& cfg, const Shape& shape) {
  if (cfg.tiny) return 2;
  return static_cast<std::size_t>(
      std::max(1.0, std::ceil(cfg.seconds / shape.round_estimate_s)));
}

// ---------------------------------------------------------------------------
// Job lists
// ---------------------------------------------------------------------------

struct JobList {
  std::vector<Circuit> jobs;  ///< in submission order
  /// Jobs per round.  A run measures whole rounds, so every run sees the
  /// same mix of sizes.
  std::size_t round = 0;
};

/// The file name, e.g. mastrovito_m163_r0.eqn: job name and error label.
std::string label(const Circuit& c) {
  return fs::path(c.path).filename().string();
}

template <typename T>
void shuffle(std::vector<T>& v, Prng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

/// Draws until `draw` yields a polynomial not used yet for `family`.
template <typename Draw>
gf2::Poly draw_unused(Family family, std::set<std::string>& used, Draw draw) {
  for (int attempt = 0; attempt < 10000; ++attempt) {
    gf2::Poly p = draw();
    if (used.insert(std::string(family_name(family)) + ":" + p.to_string())
            .second) {
      return p;
    }
  }
  throw std::runtime_error("ran out of distinct irreducible polynomials");
}

JobList make_jobs(const std::string& workload, const Shape& shape,
                  const RunConfig& cfg, const std::string& dir) {
  Prng rng(cfg.seed ^ shape.salt);
  std::set<std::string> used;
  JobList list;
  std::size_t twin = 0;
  const std::size_t rounds = planned_rounds(cfg, shape);

  if (workload == "crypto_single") {
    const std::vector<unsigned> ms =
        cfg.tiny ? std::vector<unsigned>{16, 24, 32}
                 : std::vector<unsigned>{163, 233, 283};
    list.round = ms.size() * 2;
    for (std::size_t r = 0; r < rounds; ++r) {
      std::vector<Circuit> round;
      for (const unsigned m : ms) {
        for (const Family f : {Family::Mastrovito, Family::Montgomery}) {
          const gf2::Poly p = draw_unused(
              f, used, [&] { return draw_pentanomial(m, 64, rng); });
          const std::string name = std::string(family_name(f)) + "_m" +
                                   std::to_string(m) + "_r" +
                                   std::to_string(r);
          round.push_back(
              write_multiplier(f, p, {Dialect::Eqn}, dir, name, twin++)[0]);
        }
      }
      shuffle(round, rng);
      list.jobs.insert(list.jobs.end(), round.begin(), round.end());
    }
  } else if (workload == "dialect_163") {
    const unsigned m = cfg.tiny ? 16 : 163;
    list.round = 6;
    for (std::size_t r = 0; r < rounds; ++r) {
      std::vector<Circuit> round;
      for (const Family f : {Family::Mastrovito, Family::Montgomery}) {
        const gf2::Poly p = draw_unused(
            f, used, [&] { return draw_pentanomial(m, 64, rng); });
        const std::string name = std::string(family_name(f)) + "_m" +
                                 std::to_string(m) + "_r" + std::to_string(r);
        for (Circuit& c :
             write_multiplier(f, p, {Dialect::Eqn, Dialect::Blif,
                                     Dialect::Verilog},
                              dir, name, twin++)) {
          round.push_back(std::move(c));
        }
      }
      shuffle(round, rng);
      list.jobs.insert(list.jobs.end(), round.begin(), round.end());
    }
  } else {
    // Every family at every even m in range, so the size mix is the same
    // for every seed; the seed picks each P(x) and the submission order.
    const unsigned max_m = cfg.tiny ? 10 : 48;
    for (unsigned m = 8; m <= max_m; m += 2) {
      for (const Family f : {Family::Mastrovito, Family::Montgomery,
                             Family::Karatsuba, Family::ShiftAdd}) {
        const gf2::Poly p = draw_unused(
            f, used, [&] { return draw_pentanomial(m, m / 2 + 2, rng); });
        const std::string name =
            std::string(family_name(f)) + "_m" + std::to_string(m);
        for (Circuit& c : write_multiplier(
                 f, p, {Dialect::Eqn, Dialect::Blif, Dialect::Verilog}, dir,
                 name, twin++)) {
          list.jobs.push_back(std::move(c));
        }
      }
    }
    shuffle(list.jobs, rng);
    list.round = list.jobs.size();
  }
  return list;
}

// ---------------------------------------------------------------------------
// Checking results against the known answers
// ---------------------------------------------------------------------------

/// A report line without the fields documented as volatile
/// (core/report_json.hpp): what must replay bit-identically.
std::string stable_form(const serve::WireObject& obj) {
  std::string out;
  for (const auto& [key, value] : obj) {
    if (key == "completed_seconds" || key == "extract_seconds" ||
        key == "cache_hit") {
      continue;
    }
    out += key;
    out += '=';
    out += value.kind == serve::WireValue::Kind::Bool
               ? (value.boolean ? "true" : "false")
               : value.text;
    out += '\n';
  }
  return out;
}

/// Empty when the rendered report line carries the circuit's known answer:
/// a success whose recovered P(x) is the generating polynomial.  The line
/// carries the reduction matrix's P(x) only; Algorithm 2's is checked on
/// the structured report, in process (check_result).
std::string check_line(const std::string& line, const Circuit& c,
                       serve::WireObject* parsed) {
  try {
    *parsed = serve::parse_wire_object(line);
    const serve::WireObject& obj = *parsed;
    const std::string who = label(c) + ": ";
    if (!serve::get_bool(obj, "ok")) return who + "not ok: " + line;
    if (serve::get_u64(obj, "m") != c.m) return who + "wrong m: " + line;
    if (serve::get_string(obj, "circuit_class") != "standard-product") {
      return who + "wrong circuit class: " + line;
    }
    if (serve::get_string(obj, "p") != c.p.to_paper_string()) {
      return who + "recovered " + serve::get_string(obj, "p") +
             ", generated from " + c.p.to_paper_string();
    }
    if (!serve::get_bool(obj, "p_irreducible")) {
      return who + "P(x) not irreducible: " + line;
    }
    const std::string verification = serve::get_string(obj, "verification");
    if (verification.empty() || verification.rfind("skipped", 0) == 0) {
      return who + "verification did not run: " + line;
    }
    return {};
  } catch (const std::exception& e) {
    return label(c) + ": bad report line (" + e.what() + "): " + line;
  }
}

/// The same check on an in-process result, on the structured report.
std::string check_result(const core::BatchJobResult& r, const Circuit& c) {
  const std::string who = label(c) + ": ";
  if (!r.error.empty()) return who + r.error;
  if (!r.report.success) return who + "flow failed: " + r.report.summary();
  if (!r.report.verification.equivalent) return who + "not equivalent";
  if (r.report.recovery.p != c.p || r.report.algorithm2_p != c.p) {
    return who + "recovered " + r.report.recovery.p.to_string() +
           " / Algorithm 2 " + r.report.algorithm2_p.to_string() +
           ", generated from " + c.p.to_string();
  }
  return {};
}

struct Sample {
  std::size_t job = 0;   ///< index into JobList::jobs
  double latency = 0;    ///< seconds from submit to rendered result
  std::string line;      ///< rendered JSONL report line
  std::string problem;   ///< structured check failure (in-process only)
};

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;

  void count(const std::string& problem) {
    ++attempted;
    if (problem.empty()) return;
    ++failed;
    if (problems.size() < 5) problems.push_back(problem);
  }
};

/// Checks every sample against its circuit's answer, dialect twins against
/// each other, and each report's stable form against `reference` (per job,
/// when given) or against the first report seen for the same job.  With
/// `want_hits`, every report must also be a cache hit.
void check_samples(const JobList& list, const std::vector<Sample>& samples,
                   const std::vector<std::string>* reference, bool want_hits,
                   Tally& tally) {
  std::map<std::size_t, std::string> twin_answer;
  std::map<std::size_t, std::string> first_seen;
  for (const Sample& s : samples) {
    const Circuit& c = list.jobs[s.job];
    serve::WireObject obj;
    std::string problem = s.problem;
    if (problem.empty()) problem = check_line(s.line, c, &obj);
    if (problem.empty() && want_hits && !serve::get_bool(obj, "cache_hit")) {
      problem = label(c) + ": not a cache hit";
    }
    if (problem.empty()) {
      const std::string stable = stable_form(obj);
      const std::string& want =
          reference != nullptr ? (*reference)[s.job]
                               : first_seen.emplace(s.job, stable).first->second;
      if (stable != want) {
        problem = label(c) + ": report differs from the reference run's";
      }
      const std::string answer = serve::get_string(obj, "p") + "|" +
                                 serve::get_string(obj, "circuit_class");
      if (twin_answer.emplace(c.twin, answer).first->second != answer) {
        problem = label(c) + ": dialect twins disagree";
      }
    }
    tally.count(problem);
  }
}

// ---------------------------------------------------------------------------
// Closed-loop drivers
// ---------------------------------------------------------------------------

core::BatchJob job_for(const Circuit& c) {
  core::BatchJob job;
  job.name = label(c);
  job.path = c.path;
  return job;
}

Sample run_in_process(core::BatchScheduler& scheduler, const Circuit& c,
                      std::size_t index) {
  Sample s;
  s.job = index;
  const auto t0 = Clock::now();
  const core::BatchJobResult r = scheduler.submit(job_for(c)).result.get();
  s.line = core::result_json_line(r).render();
  s.latency = since(t0);
  s.problem = check_result(r, c);
  return s;
}

/// Submits every job through the fleet in the given order (all of `jobs`
/// in list order when `order` is empty), keeping `window` in flight.
std::vector<Sample> run_fleet_pass(serve::Coordinator& fleet,
                                   const std::vector<Circuit>& jobs,
                                   std::vector<std::size_t> order,
                                   unsigned window, double* wall) {
  if (order.empty()) {
    order.resize(jobs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
  }
  std::mutex mu;
  std::condition_variable cv;
  unsigned in_flight = 0;
  std::vector<Sample> samples(order.size());
  const auto start = Clock::now();
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t i = order[k];
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return in_flight < window; });
      ++in_flight;
    }
    const auto t0 = Clock::now();
    fleet.submit(job_for(jobs[i]),
                 [&, i, k, t0](const serve::ServeResult& r) {
                   const double latency = since(t0);
                   std::lock_guard<std::mutex> lock(mu);
                   samples[k].job = i;
                   samples[k].latency = latency;
                   samples[k].line = r.line;
                   --in_flight;
                   cv.notify_all();
                 });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return in_flight == 0; });
  *wall = since(start);
  return samples;
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

std::unique_ptr<serve::Coordinator> start_fleet(const Shape& shape,
                                                const std::string& cache_dir) {
  serve::CoordinatorOptions options;
  options.workers = shape.workers;
  options.threads_per_worker = shape.threads;
  options.worker.cache_dir = cache_dir;
  return std::make_unique<serve::Coordinator>(options);
}

void stop_fleet(std::unique_ptr<serve::Coordinator>& fleet) {
  if (!fleet) return;
  fleet->shutdown(std::chrono::seconds(30));
  fleet.reset();
}

/// Cache pre-fill helpers that have exited but are not reaped yet.
std::vector<pid_t> unreaped_helpers;

void reap_helpers() {
  for (const pid_t pid : unreaped_helpers) {
    while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
    }
  }
  unreaped_helpers.clear();
}

/// Fills `cache_dir` with one cold pass of every job through a fleet and
/// returns each job's report line, in list order.  The pass runs in a
/// forked helper process that starts, stops and reaps that fleet itself.
/// The helper is waited for but left unreaped (WNOWAIT) until
/// reap_helpers(): getrusage counts a child only once it is reaped, so the
/// pre-fill's workers stay out of the measured run's peak_rss_mb.  Call it
/// while no other thread runs.
std::vector<std::string> prefill_cache(const Shape& shape, const JobList& list,
                                       const std::string& cache_dir,
                                       const std::string& lines_file) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("cannot fork the cache pre-fill");
  if (pid == 0) {
    int status = 1;
    try {
      auto fleet = start_fleet(shape, cache_dir);
      double wall = 0;
      const auto samples =
          run_fleet_pass(*fleet, list.jobs, {},
                         static_cast<unsigned>(list.jobs.size()), &wall);
      stop_fleet(fleet);
      std::ofstream out(lines_file, std::ios::trunc);
      for (const Sample& s : samples) out << s.line << '\n';
      if (out.flush()) status = 0;
    } catch (...) {
    }
    ::_exit(status);
  }
  unreaped_helpers.push_back(pid);
  siginfo_t info{};
  while (::waitid(P_PID, static_cast<id_t>(pid), &info, WEXITED | WNOWAIT) <
         0) {
    if (errno != EINTR) throw std::runtime_error("cannot wait for pre-fill");
  }
  if (info.si_code != CLD_EXITED || info.si_status != 0) {
    throw std::runtime_error("cache pre-fill failed");
  }
  std::vector<std::string> lines;
  std::ifstream in(lines_file);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  if (lines.size() != list.jobs.size()) {
    throw std::runtime_error("cache pre-fill returned " +
                             std::to_string(lines.size()) + " of " +
                             std::to_string(list.jobs.size()) + " reports");
  }
  return lines;
}

struct Setup {
  std::string dir;
  JobList list;
  std::unique_ptr<core::BatchScheduler> scheduler;
  std::string cache_dir;  ///< the fleet's shared disk cache
  std::unique_ptr<serve::Coordinator> fleet;
  /// serve_warm: stable form of each job's report from the cold pre-fill.
  std::vector<std::string> cold_lines;
};

/// Generates and writes the inputs, starts the scheduler or fleet and, for
/// serve_warm, pre-fills the disk cache with a cold pass through a fleet.
/// `dir` must not exist yet.
Setup set_up(const RunConfig& cfg, const Shape& shape, const std::string& dir,
             Tally& tally) {
  Setup s;
  s.dir = dir;
  fs::create_directories(dir + "/in");
  s.list = make_jobs(cfg.workload, shape, cfg, dir + "/in");
  if (!shape.fleet) {
    core::BatchOptions options;
    options.threads = shape.threads;
    s.scheduler = std::make_unique<core::BatchScheduler>(options);
    return s;
  }
  s.cache_dir = dir + "/cache";
  if (shape.warm) {
    const std::vector<std::string> lines =
        prefill_cache(shape, s.list, s.cache_dir, dir + "/prefill.jsonl");
    std::vector<Sample> samples(lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
      samples[i].job = i;
      samples[i].line = lines[i];
    }
    Tally cold;
    check_samples(s.list, samples, nullptr, false, cold);
    tally.attempted += cold.failed;
    tally.failed += cold.failed;
    for (const std::string& p : cold.problems) {
      tally.problems.push_back("cache pre-fill: " + p);
    }
    s.cold_lines.resize(s.list.jobs.size());
    for (const Sample& sample : samples) {
      serve::WireObject obj;
      (void)check_line(sample.line, s.list.jobs[sample.job], &obj);
      s.cold_lines[sample.job] = stable_form(obj);
    }
  }
  s.fleet = start_fleet(shape, s.cache_dir);
  return s;
}

void tear_down(Setup& s) {
  s.scheduler.reset();
  stop_fleet(s.fleet);
  fs::remove_all(s.dir);
}

// ---------------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------------

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Peak resident memory of this process plus its largest reaped child (a
/// worker of the measured fleets), from getrusage, in MiB.
double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

std::string count_note(std::size_t n) {
  return "n=" + std::to_string(n);
}

// ---------------------------------------------------------------------------
// End-to-end run (tracing off)
// ---------------------------------------------------------------------------

RunResult measured_run(const RunConfig& cfg, const Shape& shape) {
  Tally tally;
  std::vector<double> setup_times;
  Setup s;
  double setup_total = 0;
  for (int rep = 0; rep < kSetupMaxReps; ++rep) {
    if (rep >= kSetupReps && setup_total >= kSetupMinSeconds) break;
    if (rep > 0) tear_down(s);
    // Start every set-up from the same I/O state: the previous one's
    // writes and deletes are flushed first, outside the timing.
    ::sync();
    const auto t0 = Clock::now();
    s = set_up(cfg, shape, cfg.work_dir + "/setup", tally);
    setup_times.push_back(since(t0));
    setup_total += setup_times.back();
  }
  // Nor may set-up's writeback land inside the measurement.
  ::sync();

  // Rounds (in process) or passes (fleet) each run the same mix of job
  // sizes, so their medians damp a slow stretch of the host.
  std::vector<std::vector<double>> rounds;
  std::vector<double> round_walls;
  std::vector<Sample> samples;
  if (!shape.fleet) {
    for (std::size_t i = 0; i < s.list.jobs.size(); i += s.list.round) {
      const auto t0 = Clock::now();
      rounds.emplace_back();
      for (std::size_t j = i; j < i + s.list.round; ++j) {
        samples.push_back(run_in_process(*s.scheduler, s.list.jobs[j], j));
        rounds.back().push_back(samples.back().latency);
      }
      round_walls.push_back(since(t0));
    }
  } else {
    // Each pass replays the whole list into a freshly started fleet, so no
    // worker's in-memory memo carries over; a cold pass also gets a fresh
    // disk cache.  Fleet start and stop between passes are not timed.
    // Each pass submits in its own seeded order, so which large jobs meet
    // in one worker varies within the run instead of between seeds.
    Prng order_rng(cfg.seed ^ shape.salt ^ 0x9a55e5ull);
    std::vector<std::size_t> order(s.list.jobs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    const std::size_t n = s.list.jobs.size();
    const std::size_t passes =
        cfg.tiny ? planned_rounds(cfg, shape)
                 : std::max(planned_rounds(cfg, shape),
                            (kMinFleetSamples + n - 1) / n);
    for (std::size_t pass = 0; pass < passes; ++pass) {
      if (pass > 0) {
        if (!shape.warm) {
          s.cache_dir = s.dir + "/cache-" + std::to_string(pass);
        }
        s.fleet = start_fleet(shape, s.cache_dir);
      }
      if (pass > 0) shuffle(order, order_rng);
      double pass_wall = 0;
      auto pass_samples = run_fleet_pass(*s.fleet, s.list.jobs, order,
                                         shape.window, &pass_wall);
      round_walls.push_back(pass_wall);
      stop_fleet(s.fleet);
      if (!shape.warm) fs::remove_all(s.cache_dir);
      rounds.emplace_back();
      for (Sample& sample : pass_samples) {
        rounds.back().push_back(sample.latency);
        samples.push_back(std::move(sample));
      }
    }
  }
  const double rss = peak_rss_mb();
  check_samples(s.list, samples, shape.warm ? &s.cold_lines : nullptr,
                shape.warm, tally);
  tear_down(s);

  std::vector<double> latencies;
  for (const Sample& sample : samples) latencies.push_back(sample.latency);
  std::vector<double> round_rates;
  std::vector<double> round_p99;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    round_rates.push_back(static_cast<double>(rounds[r].size()) /
                          round_walls[r]);
    round_p99.push_back(percentile(rounds[r], 0.99));
  }
  // p99 is the median over rounds (passes) of each one's p99, so one burst
  // of host contention moves one round's figure, not the run's.  A fleet
  // run holds >= 1000 jobs; an in-process round holds 6, so there each
  // round's p99 is close to its slowest job.
  const std::string rounds_note =
      "median of " + std::to_string(rounds.size()) +
      (shape.fleet ? " passes" : " rounds") + " of " +
      std::to_string(rounds.front().size()) + " jobs";
  RunResult out;
  out.attempted = tally.attempted;
  out.failed = tally.failed;
  out.problems = tally.problems;
  const double ok = static_cast<double>(tally.attempted - tally.failed);
  out.metrics = {
      {"jobs_per_s", percentile(round_rates, 0.5), "1/s", rounds_note},
      {"latency_ms.p50", percentile(latencies, 0.50) * 1e3, "ms",
       count_note(latencies.size())},
      {"latency_ms.p99", percentile(round_p99, 0.5) * 1e3, "ms",
       rounds_note + ", " + count_note(latencies.size())},
      {"ok_ratio", ok / static_cast<double>(tally.attempted), "ratio",
       "fail_ratio=" + std::to_string(static_cast<double>(tally.failed) /
                                      static_cast<double>(tally.attempted)) +
           " (" + std::to_string(tally.failed) + " of " +
           std::to_string(tally.attempted) + ")"},
      {"setup_s", percentile(setup_times, 0.5), "s",
       "median of " + std::to_string(setup_times.size()) + " set-ups"},
      {"peak_rss_mb", rss, "MB", "getrusage self + largest measured child"},
  };
  return out;
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

struct LayerCounts {
  std::uint64_t input_bytes = 0;
  std::uint64_t eqns = 0;
  std::uint64_t cones = 0;
  std::uint64_t peak_terms = 0;
  std::uint64_t report_bytes = 0;
};

struct TracedJob {
  double wall = 0;
  std::string line;
};

/// One job, replayed in process through the public layer functions in the
/// order the scheduler runs them (read, cache lookup, parse, ports,
/// extraction, then analyze_extraction's phases, cache store, render),
/// with a span around each call.
TracedJob traced_job(Tracer& tracer, const Circuit& c, std::uint64_t id,
                     core::ResultCache* cache, unsigned threads,
                     LayerCounts& counts) {
  TracedJob out;
  core::BatchJobResult result;
  const core::BatchJob spec = job_for(c);
  result.name = spec.name;
  result.path = spec.path;
  const core::FlowOptions options = spec.options;
  {
    Tracer::Scope job(tracer, "job", id);
    std::string text;
    {
      Tracer::Scope span(tracer, "frontend", id);
      if (!util::read_file_to_string(c.path, &text)) {
        throw std::runtime_error("cannot read " + c.path);
      }
    }
    counts.input_bytes += text.size();

    std::string key;
    bool hit = false;
    if (cache != nullptr) {
      Tracer::Scope span(tracer, "core.result_cache.lookup", id);
      key = core::ResultCache::key_for_file(text, options);
      if (auto cached = cache->lookup(key)) {
        result.report = std::move(cached->report);
        result.error = std::move(cached->error);
        hit = true;
      }
    }

    if (!hit) {
      core::FlowReport& report = result.report;
      nl::Netlist net;
      {
        Tracer::Scope span(tracer, "frontend", id);
        net = frontend::parse_netlist(text, c.path);
      }
      counts.eqns += net.num_equations();
      std::optional<nl::MultiplierPorts> ports;
      {
        Tracer::Scope span(tracer, "core.ports", id);
        ports = core::resolve_flow_ports(net, options, &report);
      }
      if (ports) {
        report.m = ports->m();
        report.equations = net.num_equations();
        {
          Tracer::Scope span(tracer, "core.extract", id);
          report.extraction =
              core::extract_outputs(net, ports->z.bits, threads,
                                    options.strategy, options.max_terms);
        }
        counts.cones += ports->z.bits.size();
        for (const auto& bit : report.extraction.per_bit) {
          counts.peak_terms =
              std::max<std::uint64_t>(counts.peak_terms, bit.peak_terms);
        }
        const auto& anfs = report.extraction.anfs;
        {
          Tracer::Scope span(tracer, "core.alg2", id);
          report.algorithm2_p = core::recover_irreducible(anfs, *ports);
        }
        {
          Tracer::Scope span(tracer, "core.redmatrix", id);
          report.recovery = core::recover_reduction_matrix(anfs, *ports);
        }
        const auto& rec = report.recovery;
        if (rec.circuit_class != core::CircuitClass::NotAMultiplier &&
            rec.p_is_irreducible) {
          Tracer::Scope span(tracer, "core.verify", id);
          const gf2m::Field field(rec.p);
          report.verification =
              core::verify_against_golden(anfs, field, *ports,
                                          rec.circuit_class);
        } else {
          report.verification.detail =
              "skipped: no irreducible P(x) recovered";
        }
        report.success =
            rec.circuit_class != core::CircuitClass::NotAMultiplier &&
            rec.p_is_irreducible && rec.rows_consistent &&
            report.verification.equivalent;
      }
      if (cache != nullptr) {
        Tracer::Scope span(tracer, "core.result_cache.store", id);
        cache->store(key, report);
      }
      {
        // The scheduler frees a job's netlist before it delivers the
        // result, so the release is on the blocking path too.
        Tracer::Scope span(tracer, "frontend.release", id);
        net = nl::Netlist{};
      }
    }
    result.cache_hit = hit;
    result.ok = result.error.empty() && result.report.success;
    {
      Tracer::Scope span(tracer, "core.report_json", id);
      out.line = core::result_json_line(result).render();
    }
    out.wall = job.seconds();
  }

  // Report (de)serialization runs inside store() and lookup(); these direct
  // calls on the same report time the codec alone.  They sit beside the
  // job, not inside it, so they do not count twice.
  if (cache != nullptr) {
    std::string bytes;
    {
      Tracer::Scope span(tracer, "core.report_io.serialize", id);
      bytes = core::serialize_report(result.report);
    }
    {
      Tracer::Scope span(tracer, "core.report_io.deserialize", id);
      (void)core::deserialize_report(bytes);
    }
    counts.report_bytes += bytes.size();
  }
  return out;
}

double median_of_differences(const std::vector<double>& a,
                             const std::vector<double>& b) {
  std::vector<double> d;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    d.push_back(a[i] - b[i]);
  }
  return percentile(d, 0.5);
}

RunResult traced_run(const RunConfig& cfg, const Shape& shape) {
  Tally tally;
  Setup s = set_up(cfg, shape, cfg.work_dir + "/setup", tally);
  ::sync();  // keep set-up's writeback out of the measurement
  // A fixed job set, so per-layer totals compare across commits: two
  // rounds in process, the whole list through the fleet.
  JobList list = s.list;
  list.jobs.resize(
      std::min(list.jobs.size(), shape.fleet ? list.round : 2 * list.round));

  // 1. Fleet (serve_*): one job in flight, so the round trip has no queue.
  std::vector<double> roundtrip;
  std::uint64_t fleet_cones = 0;
  std::uint64_t fleet_disk_hits = 0;
  serve::CoordinatorStats fleet_stats;
  if (shape.fleet) {
    double wall = 0;
    const auto samples = run_fleet_pass(*s.fleet, list.jobs, {}, 1, &wall);
    check_samples(list, samples, shape.warm ? &s.cold_lines : nullptr,
                  shape.warm, tally);
    for (const Sample& sample : samples) roundtrip.push_back(sample.latency);
    for (unsigned k = 0; k < s.fleet->workers(); ++k) {
      if (auto w = s.fleet->worker_stats(k, std::chrono::seconds(10))) {
        fleet_cones += serve::get_u64(*w, "cones_extracted");
        fleet_disk_hits += serve::get_u64(*w, "disk_hits");
      } else {
        tally.count("no stats from worker " + std::to_string(k));
      }
    }
    fleet_stats = s.fleet->stats();
    stop_fleet(s.fleet);
  }

  // 2. Each job through the in-process scheduler (untraced, one in flight)
  //    and replayed through the layer functions (traced).  Interleaving
  //    the two gives both the same page-cache state; which of the pair
  //    runs first alternates, so neither always meets the heap the other
  //    has just grown.
  std::shared_ptr<core::ResultCache> sched_cache;
  std::unique_ptr<core::ResultCache> cache;
  if (shape.fleet) {
    sched_cache = std::make_shared<core::ResultCache>(
        shape.warm ? s.cache_dir : s.dir + "/cache-scheduler");
    cache = std::make_unique<core::ResultCache>(
        shape.warm ? s.cache_dir : s.dir + "/cache-traced");
    core::BatchOptions options;
    options.threads = shape.threads;
    options.result_cache = sched_cache;
    s.scheduler = std::make_unique<core::BatchScheduler>(options);
  }
  Tracer tracer;
  LayerCounts counts;
  std::vector<Sample> untraced;
  std::vector<Sample> traced;
  std::vector<double> traced_wall;
  for (std::size_t i = 0; i < list.jobs.size(); ++i) {
    const bool traced_first = i % 2 == 1;
    TracedJob t;
    if (traced_first) {
      t = traced_job(tracer, list.jobs[i], i, cache.get(), shape.threads,
                     counts);
    }
    untraced.push_back(run_in_process(*s.scheduler, list.jobs[i], i));
    if (!traced_first) {
      t = traced_job(tracer, list.jobs[i], i, cache.get(), shape.threads,
                     counts);
    }
    traced_wall.push_back(t.wall);
    Sample sample;
    sample.job = i;
    sample.line = std::move(t.line);
    traced.push_back(std::move(sample));
  }
  check_samples(list, untraced, shape.warm ? &s.cold_lines : nullptr,
                shape.warm, tally);
  const core::BatchStats sched_stats = s.scheduler->stats();
  s.scheduler.reset();

  // The traced verdicts must equal the untraced run's, field for field.
  std::vector<std::string> untraced_stable(list.jobs.size());
  for (const Sample& sample : untraced) {
    serve::WireObject obj;
    if (check_line(sample.line, list.jobs[sample.job], &obj).empty()) {
      untraced_stable[sample.job] = stable_form(obj);
    }
  }
  check_samples(list, traced, &untraced_stable, shape.warm, tally);
  const core::ResultCache::Stats cache_stats =
      cache ? cache->stats() : core::ResultCache::Stats{};
  cache.reset();
  sched_cache.reset();
  tear_down(s);

  std::vector<double> sched_latency;
  for (const Sample& sample : untraced) sched_latency.push_back(sample.latency);
  const double untraced_total =
      std::accumulate(sched_latency.begin(), sched_latency.end(), 0.0);
  const double traced_total =
      std::accumulate(traced_wall.begin(), traced_wall.end(), 0.0);
  auto self = tracer.self_seconds();
  double layer_total = 0;
  for (const auto& [name, seconds] : self) {
    if (name != "job" && name.rfind("core.report_io.", 0) != 0) {
      layer_total += seconds;
    }
  }

  const fs::path trace_file = fs::path(cfg.work_dir).parent_path() /
                              ("trace-" + cfg.workload + "-seed" +
                               std::to_string(cfg.seed) + ".json");
  RunResult out;
  if (tracer.write_chrome_json(trace_file.string(),
                               "{\"workload\": \"" + cfg.workload +
                                   "\", \"seed\": " +
                                   std::to_string(cfg.seed) + "}")) {
    out.trace_path = trace_file.string();
  }
  const std::string jobs_note = count_note(list.jobs.size()) + " jobs";
  const double hop = shape.fleet ? median_of_differences(roundtrip, traced_wall)
                                 : 0.0;
  out.attempted = tally.attempted;
  out.failed = tally.failed;
  out.problems = tally.problems;
  out.metrics = {
      {"frontend.parse_s", self["frontend"], "s", "read + parse, " + jobs_note},
      {"frontend.input_mb", static_cast<double>(counts.input_bytes) / 1e6,
       "MB", ""},
      {"frontend.eqns", static_cast<double>(counts.eqns), "count", ""},
      {"frontend.release_s", self["frontend.release"], "s",
       "netlist teardown"},
      {"core.ports_s", self["core.ports"], "s", ""},
      {"core.extract_s", self["core.extract"], "s", ""},
      {"core.extract.cones", static_cast<double>(counts.cones), "count", ""},
      {"anf.peak_terms", static_cast<double>(counts.peak_terms), "count",
       "largest cone"},
      {"core.alg2_s", self["core.alg2"], "s", ""},
      {"core.redmatrix_s", self["core.redmatrix"], "s", ""},
      {"core.verify_s", self["core.verify"], "s", ""},
      {"core.report_io.serialize_s", self["core.report_io.serialize"], "s",
       "direct calls beside the job"},
      {"core.report_io.deserialize_s", self["core.report_io.deserialize"],
       "s", "direct calls beside the job"},
      {"core.report_io.bytes", static_cast<double>(counts.report_bytes), "B",
       ""},
      {"core.result_cache.lookup_s", self["core.result_cache.lookup"], "s",
       "key + lookup"},
      {"core.result_cache.store_s", self["core.result_cache.store"], "s", ""},
      {"core.result_cache.hits", static_cast<double>(cache_stats.hits),
       "count", ""},
      {"core.result_cache.misses", static_cast<double>(cache_stats.misses),
       "count", ""},
      {"core.report_json.render_s", self["core.report_json"], "s", ""},
      {"core.scheduler.overhead_ms.p50",
       median_of_differences(sched_latency, traced_wall) * 1e3, "ms",
       count_note(sched_latency.size())},
      {"core.scheduler.cones_extracted",
       static_cast<double>(shape.fleet ? fleet_cones
                                       : sched_stats.cones_extracted),
       "count", shape.fleet ? "fleet workers" : "in-process scheduler"},
      {"core.scheduler.disk_hits",
       static_cast<double>(shape.fleet ? fleet_disk_hits
                                       : sched_stats.disk_hits),
       "count", shape.fleet ? "fleet workers" : "in-process scheduler"},
      {"core.scheduler.cone_steals",
       static_cast<double>(sched_stats.cone_steals), "count",
       "in-process scheduler"},
      {"serve.roundtrip_ms.p50", percentile(roundtrip, 0.5) * 1e3, "ms",
       count_note(roundtrip.size())},
      {"serve.hop_ms.p50", hop * 1e3, "ms", count_note(roundtrip.size())},
      {"serve.requeues", static_cast<double>(fleet_stats.requeues), "count",
       ""},
      {"serve.worker_deaths", static_cast<double>(fleet_stats.worker_deaths),
       "count", ""},
      {"trace.overhead_ratio", traced_total / untraced_total, "ratio",
       "traced replay / untraced scheduler pass, same jobs"},
      {"trace.layer_sum_ratio", layer_total / untraced_total, "ratio",
       "sum of layer self times / untraced latencies"},
  };
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "crypto_single", "dialect_163", "serve_cold", "serve_warm"};
  return names;
}

RunResult run_workload(const RunConfig& cfg) {
  const Shape shape = shape_of(cfg.workload);
  fs::remove_all(cfg.work_dir);
  fs::create_directories(cfg.work_dir);
  RunResult result = cfg.trace ? traced_run(cfg, shape)
                               : measured_run(cfg, shape);
  reap_helpers();
  fs::remove_all(cfg.work_dir);
  return result;
}

}  // namespace gfre::e2e
