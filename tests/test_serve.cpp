// Serving-tier suite: the line-delimited JSON wire codec (round trips,
// escapes, strictness), the submit-message <-> BatchJob round trip, and
// the forked-fleet Coordinator end to end — bit-identity against a
// single-process run_batch reference, warm-run disk hits across fleet
// generations, worker-kill requeue losing no job, fleet death diagnosing
// worker_failed, admission rejection at a full fleet, and the two-process
// shared-cache contention guarantee.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.hpp"
#include "core/report_json.hpp"
#include "core/result_cache.hpp"
#include "serve/coordinator.hpp"
#include "serve/wire.hpp"
#include "serve/worker.hpp"
#include "util/error.hpp"

#ifndef GFRE_SOURCE_DIR
#define GFRE_SOURCE_DIR "."
#endif

namespace gfre::serve {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

std::string data_path(const std::string& file) {
  return std::string(GFRE_SOURCE_DIR) + "/data/" + file;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "serve_" + name;
  fs::remove_all(dir);
  return dir;
}

/// The m=8/m=16 fixture mix the batch CI smoke uses — distinct contents,
/// so every job is a real extraction on a cold cache.
std::vector<std::string> fixture_files() {
  return {"mastrovito_m8.eqn",     "mastrovito_matrix_m8.blif",
          "montgomery_m8.v",       "karatsuba_m8.eqn",
          "shiftadd_m8.blif",      "mastrovito_syn_m8.v",
          "mastrovito_mapped_m8.eqn", "montgomery_m16.eqn",
          "karatsuba_m16.v",       "handwritten_gf4_aoi.eqn"};
}

core::BatchJob fixture_job(const std::string& file) {
  core::BatchJob job;
  job.path = data_path(file);
  job.name = file;
  return job;
}

/// Removes one scalar field from a rendered report line.  Only safe for
/// non-string fields (numbers/bools) — a string value could contain the
/// ", " separator.
std::string drop_field(std::string line, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return line;
  const auto end = line.find(", ", pos);
  if (end != std::string::npos) {
    line.erase(pos, end + 2 - pos);
  } else {
    // Last field: also drop the separator in front of it.
    line.erase(pos - 2, line.find('}', pos) - (pos - 2));
  }
  return line;
}

/// Strips the fields that legitimately differ between runs: timings and
/// where in the memo/disk hierarchy the result came from.
std::string strip_volatile(std::string line) {
  line = drop_field(std::move(line), "extract_seconds");
  line = drop_field(std::move(line), "completed_seconds");
  line = drop_field(std::move(line), "cache_hit");
  return line;
}

/// Collects ServeResults from coordinator callbacks, keyed by job id.
struct Collector {
  std::mutex mu;
  std::condition_variable cv;
  std::map<std::uint64_t, ServeResult> results;

  Coordinator::Callback callback() {
    return [this](const ServeResult& r) {
      std::lock_guard<std::mutex> lock(mu);
      results.emplace(r.id, r);
      cv.notify_all();
    };
  }
  ServeResult wait_for(std::uint64_t id) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return results.count(id) != 0; });
    return results.at(id);
  }
};

/// Reference lines: the same jobs through a plain single-process
/// run_batch, rendered by the one shared renderer.
std::vector<std::string> reference_lines(std::vector<core::BatchJob> jobs) {
  core::BatchOptions options;
  options.threads = 1;
  const core::BatchReport report = core::run_batch(std::move(jobs), options);
  std::vector<std::string> lines;
  for (const auto& result : report.results) {
    lines.push_back(core::result_json_line(result).render());
  }
  return lines;
}

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

TEST(Wire, RoundTripsScalars) {
  const WireObject msg = parse_wire_object(
      R"({"op": "submit", "id": 42, "ok": true, "ratio": 1.5, )"
      R"("nothing": null, "name": "job one"})");
  EXPECT_EQ(require_string(msg, "op"), "submit");
  EXPECT_EQ(get_u64(msg, "id"), 42u);
  EXPECT_TRUE(get_bool(msg, "ok"));
  EXPECT_EQ(find(msg, "ratio")->as_double(), 1.5);
  EXPECT_EQ(find(msg, "nothing")->kind, WireValue::Kind::Null);
  EXPECT_EQ(get_string(msg, "name"), "job one");
}

TEST(Wire, DecodesEscapesAndUnicode) {
  const WireObject msg = parse_wire_object(
      "{\"text\": \"a\\\"b\\\\c\\n\\t\", \"unicode\": \"\\u00e9\\u20ac\", "
      "\"astral\": \"\\ud83d\\ude00\"}");
  EXPECT_EQ(get_string(msg, "text"), "a\"b\\c\n\t");
  EXPECT_EQ(get_string(msg, "unicode"), "\xc3\xa9\xe2\x82\xac");
  EXPECT_EQ(get_string(msg, "astral"), "\xf0\x9f\x98\x80");
}

TEST(Wire, RejectsNestingDuplicatesAndJunk) {
  EXPECT_THROW(parse_wire_object(R"({"a": {"b": 1}})"), Error);
  EXPECT_THROW(parse_wire_object(R"({"a": [1, 2]})"), Error);
  EXPECT_THROW(parse_wire_object(R"({"a": 1, "a": 2})"), Error);
  EXPECT_THROW(parse_wire_object(R"({"a": 1} trailing)"), Error);
  EXPECT_THROW(parse_wire_object(R"({"a": 01})"), Error);
  EXPECT_THROW(parse_wire_object(R"({"a": "unterminated})"), Error);
  EXPECT_THROW(parse_wire_object("not json at all"), Error);
  EXPECT_THROW(parse_wire_object(""), Error);
}

TEST(Wire, FdLineReaderReassemblesSplitWrites) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string payload = "first line\nsecond";
  ASSERT_TRUE(::write(fds[1], payload.data(), payload.size()) ==
              static_cast<ssize_t>(payload.size()));
  FdLineReader reader(fds[0]);
  auto line = reader.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "first line");
  const std::string rest = " half\n";
  ASSERT_TRUE(::write(fds[1], rest.data(), rest.size()) ==
              static_cast<ssize_t>(rest.size()));
  line = reader.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "second half");
  ::close(fds[1]);
  EXPECT_FALSE(reader.read_line().has_value()) << "EOF after writer closes";
  ::close(fds[0]);
}

TEST(Wire, SubmitMessageRoundTripsTheJob) {
  core::BatchJob job = fixture_job("mastrovito_m8.eqn");
  job.options.infer_ports = true;
  job.options.verify_with_golden = false;
  job.options.try_output_permutation = false;
  job.options.max_terms = 123;
  job.options.a_base = "x";
  job.options.b_base = "y";
  job.options.z_base = "w";
  job.deadline_ms = 4500;
  job.priority = core::JobPriority::High;

  const WireObject msg = parse_wire_object(submit_message(7, job));
  EXPECT_EQ(get_u64(msg, "id"), 7u);
  const core::BatchJob back = job_from_wire(msg);
  EXPECT_EQ(back.path, job.path);
  EXPECT_EQ(back.name, job.name);
  EXPECT_EQ(back.options.infer_ports, job.options.infer_ports);
  EXPECT_EQ(back.options.verify_with_golden,
            job.options.verify_with_golden);
  EXPECT_EQ(back.options.try_output_permutation,
            job.options.try_output_permutation);
  EXPECT_EQ(back.options.max_terms, job.options.max_terms);
  EXPECT_EQ(back.options.a_base, "x");
  EXPECT_EQ(back.options.b_base, "y");
  EXPECT_EQ(back.options.z_base, "w");
  EXPECT_EQ(back.deadline_ms, 4500u);
  EXPECT_EQ(back.priority, core::JobPriority::High);
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

TEST(Coordinator, FleetMatchesSingleProcessBatchBitForBit) {
  const std::string cache = fresh_dir("fleet_vs_batch");
  CoordinatorOptions options;
  options.workers = 2;
  options.worker.cache_dir = cache;

  std::vector<core::BatchJob> jobs;
  for (const auto& file : fixture_files()) jobs.push_back(fixture_job(file));
  const std::vector<std::string> reference = reference_lines(jobs);

  Collector collector;
  std::vector<std::uint64_t> ids;
  {
    Coordinator coordinator(options);
    for (auto& job : jobs) {
      ids.push_back(coordinator.submit(job, collector.callback()));
    }
    coordinator.drain();
    const CoordinatorStats stats = coordinator.stats();
    EXPECT_EQ(stats.submitted, jobs.size());
    EXPECT_EQ(stats.resolved, jobs.size());
    EXPECT_EQ(stats.worker_failed, 0u);
    coordinator.shutdown(30s);
  }

  ASSERT_EQ(ids.size(), reference.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const ServeResult result = collector.wait_for(ids[i]);
    EXPECT_TRUE(result.ok) << jobs[i].name;
    EXPECT_EQ(strip_volatile(result.line), strip_volatile(reference[i]))
        << jobs[i].name;
  }
}

TEST(Coordinator, WarmFleetHitsDiskForEveryJob) {
  const std::string cache = fresh_dir("warm_fleet");
  CoordinatorOptions options;
  options.workers = 2;
  options.worker.cache_dir = cache;

  const auto run_fleet = [&] {
    Collector collector;
    Coordinator coordinator(options);
    std::vector<std::uint64_t> ids;
    for (const auto& file : fixture_files()) {
      ids.push_back(
          coordinator.submit(fixture_job(file), collector.callback()));
    }
    coordinator.drain();
    // Sum the per-worker scheduler counters over the wire.
    std::size_t disk_hits = 0, disk_misses = 0;
    for (unsigned k = 0; k < coordinator.workers(); ++k) {
      const auto stats = coordinator.worker_stats(k, 5000ms);
      if (!stats.has_value()) continue;
      disk_hits += get_u64(*stats, "disk_hits");
      disk_misses += get_u64(*stats, "disk_misses");
    }
    coordinator.shutdown(30s);
    for (const std::uint64_t id : ids) {
      EXPECT_TRUE(collector.wait_for(id).ok);
    }
    return std::make_pair(disk_hits, disk_misses);
  };

  const auto cold = run_fleet();
  EXPECT_EQ(cold.first, 0u) << "cold cache cannot hit";
  EXPECT_EQ(cold.second, fixture_files().size());

  // A brand-new fleet (fresh processes, empty memos) on the same cache
  // dir must serve EVERY job from disk.
  const auto warm = run_fleet();
  EXPECT_EQ(warm.first, fixture_files().size())
      << "warm fleet must hit disk for every job";
  EXPECT_EQ(warm.second, 0u);
}

TEST(Coordinator, KilledWorkerLosesNoJob) {
  const std::string cache = fresh_dir("kill_worker");
  CoordinatorOptions options;
  options.workers = 2;
  options.worker.cache_dir = cache;

  // Every distinct fixture in data/, plus the slow m=163 circuit to keep
  // the fleet busy past the kill.
  std::vector<core::BatchJob> jobs;
  for (const auto& entry : fs::directory_iterator(data_path(""))) {
    const std::string ext = entry.path().extension().string();
    if (ext != ".eqn" && ext != ".blif" && ext != ".v") continue;
    if (entry.path().filename().string().find("corrupt") == 0) continue;
    jobs.push_back(fixture_job(entry.path().filename().string()));
  }
  ASSERT_GE(jobs.size(), 20u);

  Collector collector;
  Coordinator coordinator(options);
  const std::vector<pid_t> pids = coordinator.worker_pids();
  ASSERT_EQ(pids.size(), 2u);
  std::vector<std::uint64_t> ids;
  for (auto& job : jobs) {
    ids.push_back(coordinator.submit(job, collector.callback()));
  }
  // Both workers have in-flight jobs now (dispatch is synchronous);
  // killing one forces the death -> requeue -> re-dispatch path.
  ASSERT_EQ(::kill(pids[0], SIGKILL), 0);
  coordinator.drain();
  const CoordinatorStats stats = coordinator.stats();
  coordinator.shutdown(30s);

  EXPECT_EQ(stats.worker_deaths, 1u);
  EXPECT_EQ(stats.respawns, 1u);
  EXPECT_EQ(stats.resolved, jobs.size());
  EXPECT_EQ(stats.worker_failed, 0u) << "retries must absorb one death";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_TRUE(collector.wait_for(ids[i]).ok) << jobs[i].name;
  }
}

TEST(Coordinator, FleetDeathWithoutRespawnDiagnosesWorkerFailed) {
  CoordinatorOptions options;
  options.workers = 1;
  options.respawn = false;
  options.max_retries = 0;

  Collector collector;
  Coordinator coordinator(options);
  const std::vector<pid_t> pids = coordinator.worker_pids();
  ASSERT_EQ(pids.size(), 1u);

  // ~0.4 s of real extraction — comfortably in flight when the kill lands.
  const std::uint64_t id = coordinator.submit(
      fixture_job("mastrovito_m163.eqn"), collector.callback());
  ASSERT_EQ(::kill(pids[0], SIGKILL), 0);
  const ServeResult victim = collector.wait_for(id);
  EXPECT_FALSE(victim.ok);
  EXPECT_NE(victim.line.find("worker_failed"), std::string::npos)
      << victim.line;

  // The fleet is gone: later submissions resolve worker_failed at once.
  const std::uint64_t late = coordinator.submit(
      fixture_job("mastrovito_m8.eqn"), collector.callback());
  const ServeResult orphan = collector.wait_for(late);
  EXPECT_FALSE(orphan.ok);
  EXPECT_NE(orphan.line.find("worker_failed"), std::string::npos)
      << orphan.line;

  const CoordinatorStats stats = coordinator.stats();
  EXPECT_EQ(stats.worker_deaths, 1u);
  EXPECT_EQ(stats.respawns, 0u);
  EXPECT_EQ(stats.worker_failed, 2u);
  coordinator.shutdown(5s);
}

TEST(Coordinator, TrySubmitRejectsAtFullFleet) {
  CoordinatorOptions options;
  options.workers = 1;
  options.worker_queue_cap = 1;

  Collector collector;
  Coordinator coordinator(options);
  // Occupy the only slot with the slow job...
  const std::uint64_t slow = coordinator.submit(
      fixture_job("mastrovito_m163.eqn"), collector.callback());
  // ...so the non-blocking submission has nowhere to go.
  const std::uint64_t turned_away = coordinator.try_submit(
      fixture_job("mastrovito_m8.eqn"), collector.callback());
  const ServeResult rejected = collector.wait_for(turned_away);
  EXPECT_TRUE(rejected.rejected);
  EXPECT_FALSE(rejected.ok);
  EXPECT_NE(rejected.line.find("rejected"), std::string::npos)
      << rejected.line;

  coordinator.drain();
  EXPECT_TRUE(collector.wait_for(slow).ok);
  const CoordinatorStats stats = coordinator.stats();
  EXPECT_EQ(stats.rejected, 1u);
  coordinator.shutdown(30s);
}

TEST(Coordinator, ClosedLoopAtQueueCapIsNeverRejected) {
  // A client that keeps exactly worker_queue_cap jobs in flight never meets
  // a full fleet: the coordinator frees a slot on each result event and the
  // client refills it at once.  The worker must take that job even though
  // its scheduler may not have retired the finished one yet.
  CoordinatorOptions options;
  options.workers = 1;
  options.threads_per_worker = 2;
  options.worker_queue_cap = 2;

  std::mutex mu;
  std::condition_variable cv;
  std::size_t in_flight = 0;
  std::size_t resolved = 0;
  std::size_t rejected = 0;
  std::size_t ok = 0;
  const Coordinator::Callback on_result = [&](const ServeResult& r) {
    std::lock_guard<std::mutex> lock(mu);
    --in_flight;
    ++resolved;
    if (r.rejected) ++rejected;
    if (r.ok) ++ok;
    cv.notify_all();
  };

  constexpr std::size_t kJobs = 200;
  const std::vector<std::string> files = fixture_files();
  Coordinator coordinator(options);
  for (std::size_t i = 0; i < kJobs; ++i) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return in_flight < options.worker_queue_cap; });
      ++in_flight;
    }
    coordinator.try_submit(fixture_job(files[i % files.size()]), on_result);
  }
  coordinator.drain();
  const CoordinatorStats stats = coordinator.stats();
  coordinator.shutdown(30s);

  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(resolved, kJobs);
  EXPECT_EQ(rejected, 0u) << "a closed loop at window = cap was turned away";
  EXPECT_EQ(ok, kJobs);
  EXPECT_EQ(stats.rejected, 0u);
}

// ---------------------------------------------------------------------------
// Two-process cache contention (the crash/contention satellite)
// ---------------------------------------------------------------------------

TEST(ServeContention, TwoProcessesShareOneCacheDirBitForBit) {
  const std::string cache = fresh_dir("contention");
  const std::string out_dir = fresh_dir("contention_out");
  fs::create_directories(out_dir);

  // Overlapping windows of the fixture set: files 0..6 and 3..9, so four
  // jobs race from both processes at once.
  const std::vector<std::string> files = fixture_files();
  const auto window = [&](std::size_t begin, std::size_t end) {
    std::vector<core::BatchJob> jobs;
    for (std::size_t i = begin; i < end; ++i) {
      jobs.push_back(fixture_job(files[i]));
    }
    return jobs;
  };

  const auto run_child = [&](std::vector<core::BatchJob> jobs,
                             const std::string& out_path) -> pid_t {
    const pid_t pid = ::fork();
    if (pid != 0) return pid;
    // Child: its own scheduler + its own ResultCache handle on the SHARED
    // directory — a genuine cross-process writer/reader race.
    int status = 0;
    try {
      core::BatchOptions options;
      options.threads = 1;
      options.result_cache = std::make_shared<core::ResultCache>(cache);
      const core::BatchReport report =
          core::run_batch(std::move(jobs), options);
      std::ofstream out(out_path, std::ios::trunc);
      for (const auto& result : report.results) {
        out << core::result_json_line(result).render() << "\n";
      }
      out.close();
      if (!out.good() || !report.all_ok()) status = 1;
    } catch (...) {
      status = 2;
    }
    ::_exit(status);
  };

  const std::string out_a = out_dir + "/a.jsonl";
  const std::string out_b = out_dir + "/b.jsonl";
  const pid_t child_a = run_child(window(0, 7), out_a);
  const pid_t child_b = run_child(window(3, 10), out_b);
  for (const pid_t pid : {child_a, child_b}) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "child " << pid << " status " << status;
  }

  // Both processes' lines must match a quiet single-process reference —
  // whatever interleaving of lookup/store the race produced.
  const std::vector<std::string> reference = reference_lines(window(0, 10));
  const auto check = [&](const std::string& path, std::size_t begin) {
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::string line;
    std::size_t i = begin;
    while (std::getline(in, line)) {
      ASSERT_LT(i, reference.size());
      EXPECT_EQ(strip_volatile(line), strip_volatile(reference[i]))
          << path << " line " << (i - begin);
      ++i;
    }
    EXPECT_EQ(i - begin, 7u) << path << " must carry its 7 jobs";
  };
  check(out_a, 0);
  check(out_b, 3);

  // No writer ever observed a torn entry.
  EXPECT_FALSE(fs::exists(fs::path(cache) / "quarantine"))
      << "contention must never quarantine an entry";
}

}  // namespace
}  // namespace gfre::serve
