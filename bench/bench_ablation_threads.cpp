// Ablation — parallel extraction scaling and batch throughput.
//
// Section 1 (the paper's Theorem 2 claim): wall-clock extraction of ONE
// multiplier at 1/2/4 threads — per-bit work is identical, so wall time
// shrinks until the physical core count is reached.
//
// Section 2 (the serving workload): a 100-job mixed-family manifest
// (mastrovito/montgomery/karatsuba/shiftadd, m=8..32, on-disk .eqn files)
// run (a) sequentially — load + run_flow one job at a time, the
// pre-batch-engine baseline — and (b) through core::run_batch at growing
// worker counts, plus (c) a duplicate-heavy manifest exercising the
// content-hash cache, (d) the same 100 jobs streamed incrementally
// through a long-lived core::BatchScheduler (submit -> future per job, the
// serving-tier ingest path) against the submit-all-then-wait run_batch,
// and (e) a cold/warm pair through the persistent disk cache
// (core/result_cache.hpp) — the warm leg must replay every report with
// zero extractions — (f) the same manifest through a bounded
// admission queue (max_queued=8): backpressure must cap the queue's
// high-water mark without costing throughput — and (g) the manifest
// fanned across 1/2/4 forked worker processes by the serving tier's
// serve::Coordinator (fork + wire round trip per job).
// Every batch/scheduler report must agree with the sequential baseline;
// results land in BENCH_batch.json for CI trend tracking.
//
// Shape gate: on multi-core hosts batch@4 must beat sequential by >1.5x
// jobs/sec; on single-core hosts raw interleaving cannot beat sequential,
// so the gate falls to the cache run (same engine, same manifest format),
// which must clear 1.5x there.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "core/batch.hpp"
#include "core/parallel_extract.hpp"
#include "core/result_cache.hpp"
#include "core/scheduler.hpp"
#include "serve/coordinator.hpp"
#include "gen/karatsuba.hpp"
#include "gen/mastrovito.hpp"
#include "gen/montgomery_gate.hpp"
#include "gen/shift_add.hpp"
#include "gf2poly/irreducible.hpp"
#include "netlist/io_eqn.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace {

using namespace gfre;

struct NamedGen {
  const char* name;
  nl::Netlist (*generate)(const gf2m::Field&);
};

nl::Netlist gen_mastrovito(const gf2m::Field& f) {
  return gen::generate_mastrovito(f);
}
nl::Netlist gen_montgomery(const gf2m::Field& f) {
  return gen::generate_montgomery(f);
}
nl::Netlist gen_karatsuba(const gf2m::Field& f) {
  return gen::generate_karatsuba(f);
}
nl::Netlist gen_shiftadd(const gf2m::Field& f) {
  return gen::generate_shift_add(f);
}

constexpr NamedGen kFamilies[] = {
    {"mastrovito", &gen_mastrovito},
    {"montgomery", &gen_montgomery},
    {"karatsuba", &gen_karatsuba},
    {"shiftadd", &gen_shiftadd},
};

/// Writes the 100-job corpus (4 families x m=8..32) and its manifest;
/// returns the manifest path.  Generation is outside every timed section.
std::string write_corpus(const std::filesystem::path& dir,
                         bool duplicate_each) {
  std::filesystem::create_directories(dir);
  const std::string manifest_name =
      duplicate_each ? "manifest_dup.txt" : "manifest.txt";
  std::FILE* manifest =
      std::fopen((dir / manifest_name).string().c_str(), "w");
  GFRE_ASSERT(manifest != nullptr, "cannot write bench manifest");
  for (unsigned m = 8; m <= 32; ++m) {
    const gf2m::Field field(gf2::default_irreducible(m));
    for (const auto& family : kFamilies) {
      const std::string file =
          std::string(family.name) + "_m" + std::to_string(m) + ".eqn";
      const auto path = dir / file;
      // Always rewrite: reusing files from a previous binary would let a
      // generator change silently benchmark stale circuits.  The second
      // (duplicate-manifest) pass within one run skips the regeneration.
      if (!duplicate_each) {
        nl::write_eqn_file(family.generate(field), path.string());
      }
      std::fprintf(manifest, "%s\n", file.c_str());
      if (duplicate_each) {
        std::fprintf(manifest, "%s name=dup_%s\n", file.c_str(),
                     file.c_str());
      }
    }
  }
  std::fclose(manifest);
  return (dir / manifest_name).string();
}

/// Light-weight outcome equality against the sequential baseline (the
/// rigorous per-field bit-identity lives in tests/test_batch.cpp).
bool same_outcome(const core::FlowReport& got, const core::FlowReport& want) {
  return got.success == want.success && got.m == want.m &&
         got.recovery.p == want.recovery.p &&
         got.algorithm2_p == want.algorithm2_p &&
         got.recovery.circuit_class == want.recovery.circuit_class;
}

/// The pre-batch-engine flow: port resolution, single-threaded extraction
/// and analysis composed on the caller's thread, with no scheduler.  It is
/// the sequential baseline every batch mode's speedup is measured against.
core::FlowReport sequential_flow(const nl::Netlist& netlist,
                                 const core::FlowOptions& options) {
  core::FlowReport report;
  const auto ports = core::resolve_flow_ports(netlist, options, &report);
  if (!ports.has_value()) return report;
  try {
    return core::analyze_extraction(
        netlist, *ports,
        core::extract_outputs(netlist, ports->z.bits, 1, options.strategy,
                              options.max_terms),
        options);
  } catch (const Error& e) {
    return core::extraction_failure_report(netlist, *ports, e.what());
  }
}

}  // namespace

int main() {
  bench::print_header("Ablation: Theorem-2 scaling + batch throughput");

  // -- Section 1: single-circuit thread scaling (the original ablation) ----
  const unsigned m1 = full_scale_requested() ? 233 : 96;
  const gf2m::Field field1(gf2::paper_polynomial(m1).p);
  const auto netlist1 = gen::generate_mastrovito(field1);
  std::printf("single flow: GF(2^%u), %zu equations\n", m1,
              netlist1.num_equations());

  bench::JsonReport json("ablation_threads_batch");
  TextTable scaling({"threads", "wall(s)", "speedup vs 1T"});
  double wall_1t = 0, wall_2t = 0;
  for (unsigned threads : {1u, 2u, 4u}) {
    const auto result = core::extract_all_outputs(netlist1, threads);
    if (threads == 1) wall_1t = result.wall_seconds;
    if (threads == 2) wall_2t = result.wall_seconds;
    scaling.add_row({std::to_string(threads),
                     fmt_double(result.wall_seconds, 3),
                     fmt_double(wall_1t / result.wall_seconds, 2)});
    json.add_record()
        .add("mode", "single_flow_extraction")
        .add("m", m1)
        .add("threads", threads)
        .add("wall_s", result.wall_seconds);
  }
  std::printf("%s\n", scaling.render("Theorem-2 thread scaling").c_str());

  // -- Section 2: 100-job batch throughput ---------------------------------
  const auto dir =
      std::filesystem::temp_directory_path() / "gfre_bench_batch";
  std::printf("generating the 100-job corpus under %s ...\n",
              dir.string().c_str());
  Timer gen_timer;
  const std::string manifest = write_corpus(dir, false);
  const std::string manifest_dup = write_corpus(dir, true);
  std::printf("corpus ready in %.2f s\n\n", gen_timer.seconds());

  core::FlowOptions defaults;
  defaults.verify_with_golden = false;  // the paper's "extraction" timing
  const auto jobs = core::parse_manifest(manifest, defaults);
  GFRE_ASSERT(jobs.size() == 100, "expected the 100-job manifest, got "
                                      << jobs.size());

  // (a) Sequential baseline: the pre-batch world — one load + flow at a
  // time, single-threaded extraction on this thread.
  std::vector<core::FlowReport> baseline;
  baseline.reserve(jobs.size());
  Timer seq_timer;
  for (const auto& job : jobs) {
    const auto netlist = core::load_netlist_file(job.path);
    baseline.push_back(sequential_flow(netlist, job.options));
  }
  const double seq_wall = seq_timer.seconds();
  const double seq_rate = static_cast<double>(jobs.size()) / seq_wall;
  std::printf("sequential run_flow: %zu jobs in %.2f s  (%.1f jobs/s)\n",
              jobs.size(), seq_wall, seq_rate);
  std::size_t baseline_ok = 0;
  for (const auto& report : baseline) baseline_ok += report.success ? 1 : 0;
  json.add_record()
      .add("mode", "sequential")
      .add("jobs", jobs.size())
      .add("threads", 1u)
      .add("wall_s", seq_wall)
      .add("jobs_per_sec", seq_rate)
      .add("speedup_vs_sequential", 1.0);

  // (b) Batch engine at growing pool widths.
  bool outcomes_match = true;
  double batch4_rate = 0;
  double batch_rate_at_cache_width = 0;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned cache_width = std::min(4u, hw);
  TextTable table({"workers", "wall(s)", "jobs/s", "speedup vs seq",
                   "cones", "steals"});
  std::vector<unsigned> widths = {1u, 2u, 4u};
  if (hw > 4) widths.push_back(hw);
  for (unsigned threads : widths) {
    core::BatchOptions options;
    options.threads = threads;
    const auto batch = core::run_batch(jobs, options);
    const double rate =
        static_cast<double>(batch.stats.jobs) / batch.wall_seconds;
    if (threads == 4) batch4_rate = rate;
    if (threads == cache_width) batch_rate_at_cache_width = rate;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (!batch.results[i].error.empty() ||
          !same_outcome(batch.results[i].report, baseline[i])) {
        std::printf("MISMATCH vs sequential baseline: %s @%uT\n",
                    batch.results[i].name.c_str(), threads);
        outcomes_match = false;
      }
    }
    table.add_row({std::to_string(threads),
                   fmt_double(batch.wall_seconds, 2), fmt_double(rate, 1),
                   fmt_double(rate / seq_rate, 2),
                   std::to_string(batch.stats.cones_extracted),
                   std::to_string(batch.stats.cone_steals)});
    json.add_record()
        .add("mode", "batch")
        .add("jobs", batch.stats.jobs)
        .add("threads", threads)
        .add("wall_s", batch.wall_seconds)
        .add("jobs_per_sec", rate)
        .add("speedup_vs_sequential", rate / seq_rate)
        .add("cones", batch.stats.cones_extracted)
        .add("cone_steals", batch.stats.cone_steals)
        .add("cache_hits", batch.stats.cache_hits);
    std::printf("  done %u workers\n", threads);
    std::fflush(stdout);
  }
  std::printf("\n%s\n", table.render("Batch throughput (100 jobs)").c_str());

  // (c) Duplicate-heavy manifest: the memoization path (real verification
  // queues resubmit identical netlists constantly).  Best of two runs —
  // a transient load spike on the host must not flip the shape gate.
  const auto dup_jobs = core::parse_manifest(manifest_dup, defaults);
  core::BatchOptions cache_options;
  cache_options.threads = cache_width;
  auto cached = core::run_batch(dup_jobs, cache_options);
  {
    auto second = core::run_batch(dup_jobs, cache_options);
    if (second.wall_seconds < cached.wall_seconds) cached = std::move(second);
  }
  const double cached_rate =
      static_cast<double>(cached.stats.jobs) / cached.wall_seconds;
  std::printf("duplicate-heavy manifest: %zu jobs (%zu cache hits) in "
              "%.2f s  (%.1f jobs/s, %.2fx sequential)\n",
              cached.stats.jobs, cached.stats.cache_hits,
              cached.wall_seconds, cached_rate, cached_rate / seq_rate);
  json.add_record()
      .add("mode", "batch_cached")
      .add("jobs", cached.stats.jobs)
      .add("threads", cache_options.threads)
      .add("wall_s", cached.wall_seconds)
      .add("jobs_per_sec", cached_rate)
      .add("speedup_vs_sequential", cached_rate / seq_rate)
      .add("cache_hits", cached.stats.cache_hits);

  // (d) Long-lived scheduler, incremental submission: the async ingest
  // path a serving front end uses.  Same engine underneath run_batch, so
  // the rate must land within noise of the batch rate at the same width —
  // this measures the submit/future/promise overhead, which is one
  // allocation + two mutex acquisitions per job against a whole
  // extraction of work.
  double scheduler_rate = 0;
  {
    core::BatchOptions sched_options;
    sched_options.threads = cache_width;
    Timer sched_timer;
    std::vector<std::future<core::BatchJobResult>> futures;
    futures.reserve(jobs.size());
    core::BatchScheduler scheduler(sched_options);
    for (const auto& job : jobs) {
      futures.push_back(scheduler.submit(job).result);
    }
    scheduler.drain();
    const double sched_wall = sched_timer.seconds();
    scheduler_rate = static_cast<double>(jobs.size()) / sched_wall;
    const auto stats = scheduler.stats();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const auto result = futures[i].get();
      if (!result.error.empty() ||
          !same_outcome(result.report, baseline[i])) {
        std::printf("MISMATCH vs sequential baseline: %s @scheduler\n",
                    result.name.c_str());
        outcomes_match = false;
      }
    }
    std::printf("scheduler stream: %zu jobs in %.2f s  (%.1f jobs/s, "
                "%.2fx sequential, %zu cones, %zu steals)\n",
                stats.jobs, sched_wall, scheduler_rate,
                scheduler_rate / seq_rate, stats.cones_extracted,
                stats.cone_steals);
    json.add_record()
        .add("mode", "scheduler_stream")
        .add("jobs", stats.jobs)
        .add("threads", sched_options.threads)
        .add("wall_s", sched_wall)
        .add("jobs_per_sec", scheduler_rate)
        .add("speedup_vs_sequential", scheduler_rate / seq_rate)
        .add("cones", stats.cones_extracted)
        .add("cone_steals", stats.cone_steals);
  }

  // (e) Persistent disk cache (core/result_cache.hpp): a cold run extracts
  // and stores every outcome; a warm run — a fresh scheduler whose
  // in-memory memo is empty, i.e. the next CI invocation — replays all 100
  // reports from disk with ZERO extractions.  This is the cross-process
  // layer the in-memory cache of section (c) cannot provide.
  double disk_cold_rate = 0, disk_warm_rate = 0;
  std::size_t disk_warm_cones = 0;
  {
    const auto cache_dir = dir / "result_cache";
    std::filesystem::remove_all(cache_dir);
    core::BatchOptions disk_options;
    disk_options.threads = cache_width;
    disk_options.result_cache =
        std::make_shared<core::ResultCache>(cache_dir.string());

    Timer cold_timer;
    const auto cold = core::run_batch(jobs, disk_options);
    const double cold_wall = cold_timer.seconds();
    disk_cold_rate = static_cast<double>(cold.stats.jobs) / cold_wall;

    Timer warm_timer;
    const auto warm = core::run_batch(jobs, disk_options);
    const double warm_wall = warm_timer.seconds();
    disk_warm_rate = static_cast<double>(warm.stats.jobs) / warm_wall;
    disk_warm_cones = warm.stats.cones_extracted;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (!warm.results[i].error.empty() ||
          !same_outcome(warm.results[i].report, baseline[i])) {
        std::printf("MISMATCH vs sequential baseline: %s @disk-warm\n",
                    warm.results[i].name.c_str());
        outcomes_match = false;
      }
    }
    std::printf(
        "persistent cache: cold %.2f s (%.1f jobs/s, %zu stores) -> warm "
        "%.2f s (%.1f jobs/s, %zu disk hits, %zu cones extracted)\n",
        cold_wall, disk_cold_rate, cold.stats.disk_stores, warm_wall,
        disk_warm_rate, warm.stats.disk_hits, warm.stats.cones_extracted);
    json.add_record()
        .add("mode", "batch_disk_cold")
        .add("jobs", cold.stats.jobs)
        .add("threads", disk_options.threads)
        .add("wall_s", cold_wall)
        .add("jobs_per_sec", disk_cold_rate)
        .add("disk_stores", cold.stats.disk_stores);
    json.add_record()
        .add("mode", "batch_disk_warm")
        .add("jobs", warm.stats.jobs)
        .add("threads", disk_options.threads)
        .add("wall_s", warm_wall)
        .add("jobs_per_sec", disk_warm_rate)
        .add("speedup_vs_cold", disk_warm_rate / disk_cold_rate)
        .add("disk_hits", warm.stats.disk_hits)
        .add("cones", warm.stats.cones_extracted);
  }

  // (f) Bounded admission queue: the serving tier never holds more than
  // max_queued unresolved jobs — the submitting thread blocks for room
  // instead.  Same engine, same jobs; the cost of backpressure is the
  // submitter occasionally sleeping, so throughput must stay within noise
  // of the unbounded run while the high-water mark respects the cap.
  double bounded_rate = 0;
  std::size_t bounded_peak = 0;
  {
    constexpr std::size_t kQueueCap = 8;
    core::BatchOptions bounded_options;
    bounded_options.threads = cache_width;
    bounded_options.max_queued = kQueueCap;
    Timer bounded_timer;
    const auto bounded = core::run_batch(jobs, bounded_options);
    const double bounded_wall = bounded_timer.seconds();
    bounded_rate = static_cast<double>(bounded.stats.jobs) / bounded_wall;
    bounded_peak = bounded.stats.queue_peak;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (!bounded.results[i].error.empty() ||
          !same_outcome(bounded.results[i].report, baseline[i])) {
        std::printf("MISMATCH vs sequential baseline: %s @bounded\n",
                    bounded.results[i].name.c_str());
        outcomes_match = false;
      }
    }
    std::printf("bounded queue (cap %zu): %zu jobs in %.2f s  (%.1f jobs/s, "
                "%.2fx sequential, queue peak %zu, %zu rejected)\n",
                kQueueCap, bounded.stats.jobs, bounded_wall, bounded_rate,
                bounded_rate / seq_rate, bounded.stats.queue_peak,
                bounded.stats.rejected);
    json.add_record()
        .add("mode", "batch_bounded")
        .add("jobs", bounded.stats.jobs)
        .add("threads", bounded_options.threads)
        .add("queue_cap", kQueueCap)
        .add("queue_peak", bounded.stats.queue_peak)
        .add("rejected", bounded.stats.rejected)
        .add("wall_s", bounded_wall)
        .add("jobs_per_sec", bounded_rate)
        .add("speedup_vs_sequential", bounded_rate / seq_rate);
  }

  // (g) Multi-process serving fleet: the same 100 jobs fanned across
  // 1/2/4 forked worker processes by the serve::Coordinator — fork + IPC
  // + per-job wire round trip on top of the same engine.  On multi-core
  // hosts the fleet parallelizes like the in-process pool; on a one-core
  // host the point of the record is the overhead trend, not a speedup.
  double serve_best_rate = 0;
  bool serve_all_ok = true;
  {
    TextTable serve_table(
        {"workers", "wall(s)", "jobs/s", "speedup vs seq", "ok"});
    for (const unsigned workers : {1u, 2u, 4u}) {
      serve::CoordinatorOptions fleet;
      fleet.workers = workers;
      fleet.threads_per_worker = 1;
      std::atomic<std::size_t> fleet_ok{0};
      Timer fleet_timer;
      double fleet_wall = 0;
      {
        serve::Coordinator coordinator(fleet);
        for (const auto& job : jobs) {
          coordinator.submit(job, [&fleet_ok](const serve::ServeResult& r) {
            if (r.ok) ++fleet_ok;
          });
        }
        coordinator.drain();
        fleet_wall = fleet_timer.seconds();
        coordinator.shutdown(std::chrono::seconds(30));
      }
      const double rate = static_cast<double>(jobs.size()) / fleet_wall;
      serve_best_rate = std::max(serve_best_rate, rate);
      serve_all_ok = serve_all_ok && fleet_ok.load() == jobs.size();
      serve_table.add_row({std::to_string(workers),
                           fmt_double(fleet_wall, 2), fmt_double(rate, 1),
                           fmt_double(rate / seq_rate, 2),
                           std::to_string(fleet_ok.load())});
      json.add_record()
          .add("mode", "serve_workers")
          .add("jobs", jobs.size())
          .add("workers", workers)
          .add("wall_s", fleet_wall)
          .add("jobs_per_sec", rate)
          .add("speedup_vs_sequential", rate / seq_rate);
    }
    std::printf("\n%s\n",
                serve_table
                    .render("serve::Coordinator fleet (forked workers, "
                            "wire round trip per job)")
                    .c_str());
  }

  json.add_record()
      .add("mode", "host")
      .add("hardware_threads", hw);
  json.write("BENCH_batch.json");

  // -- Shape gates ----------------------------------------------------------
  bool pass = outcomes_match;
  std::printf("\nshape check: every batch report matches the sequential "
              "baseline: %s\n",
              outcomes_match ? "PASS" : "FAIL");
  if (hw >= 2) {
    const bool throughput = batch4_rate > 1.5 * seq_rate;
    std::printf("shape check: batch@4 > 1.5x sequential jobs/s on this "
                "%u-thread host: %s (%.2fx)\n",
                hw, throughput ? "PASS" : "FAIL", batch4_rate / seq_rate);
    pass = pass && throughput;
  } else {
    // Paired against the no-cache batch rate at the same worker count —
    // the same engine path measured moments earlier — so a host load
    // spike between the sequential baseline and this run cannot flip the
    // gate.  The 50%-duplicate manifest should land near 2x.
    const bool cache_throughput =
        cached_rate > 1.5 * batch_rate_at_cache_width;
    std::printf("shape check: single-core host — cone interleaving cannot "
                "beat sequential here; memoized batch > 1.5x the uncached "
                "batch jobs/s instead: %s (%.2fx; %.2fx vs sequential)\n",
                cache_throughput ? "PASS" : "FAIL",
                cached_rate / batch_rate_at_cache_width,
                cached_rate / seq_rate);
    pass = pass && cache_throughput;
  }
  // The scheduler IS the batch engine plus a future per job — a big gap at
  // the same worker count means the async wrapper grew real overhead.  The
  // 0.6 factor leaves room for host noise, not for a regression class.
  const bool scheduler_ok = scheduler_rate > 0.6 * batch_rate_at_cache_width;
  std::printf("shape check: streamed scheduler within noise of run_batch at "
              "%u workers: %s (%.2fx)\n",
              cache_width, scheduler_ok ? "PASS" : "FAIL",
              scheduler_rate / batch_rate_at_cache_width);
  pass = pass && scheduler_ok;

  // The warm disk run replays serialized reports: any extraction at all
  // means the persistent key or the store path broke, and a warm run
  // slower than cold means deserialization costs more than extraction —
  // both are defects, not noise.
  const bool disk_ok =
      disk_warm_cones == 0 && disk_warm_rate > disk_cold_rate;
  std::printf("shape check: warm persistent-cache run extracts 0 cones and "
              "beats the cold run: %s (%zu cones, %.2fx)\n",
              disk_ok ? "PASS" : "FAIL", disk_warm_cones,
              disk_warm_rate / disk_cold_rate);
  pass = pass && disk_ok;

  // Backpressure is pacing, not a slow path: the cap bounds the queue's
  // high-water mark exactly, and with cap >> worker count the workers
  // never starve, so the rate stays within noise of the unbounded run.
  const bool bounded_ok =
      bounded_peak <= 8 && bounded_rate > 0.6 * batch_rate_at_cache_width;
  std::printf("shape check: bounded queue caps the high-water mark (peak "
              "%zu <= 8) without losing throughput: %s (%.2fx of "
              "unbounded)\n",
              bounded_peak, bounded_ok ? "PASS" : "FAIL",
              bounded_rate / batch_rate_at_cache_width);
  pass = pass && bounded_ok;

  // The fleet gate is deliberately loose: correctness (every job resolves
  // ok through the wire) plus a floor on the process/IPC overhead — the
  // best fleet width must reach 20% of the in-process batch rate even on
  // a loaded one-core host.
  const bool serve_ok =
      serve_all_ok && serve_best_rate > 0.2 * batch_rate_at_cache_width;
  std::printf("shape check: serve fleet resolves all jobs ok and best "
              "width clears 0.2x in-process batch: %s (%.2fx)\n",
              serve_ok ? "PASS" : "FAIL",
              serve_best_rate / batch_rate_at_cache_width);
  pass = pass && serve_ok;

  const bool scaling_ok = hw < 2 || wall_2t < wall_1t;
  if (hw >= 2) {
    std::printf("shape check: 2-thread extraction beats 1-thread: %s\n",
                scaling_ok ? "PASS" : "FAIL");
  }
  return (pass && scaling_ok) ? 0 : 1;
}
