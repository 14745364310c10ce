// BatchScheduler suite — the async ingest path.
//
// The differential core: jobs submitted INCREMENTALLY (interleaved with
// waits on earlier futures) at 1/2/8 workers on the Packed engine and the
// NaiveScan oracle must produce FlowReports bit-identical to standalone
// core::reverse_engineer.  Around it: callback contract (runs exactly
// once, before the future is ready), deterministic cancellation through a
// FIFO-gated worker, in-flight dedup and cross-wave memoization on one
// long-lived instance, teardown with hundreds of queued jobs (the
// ASan/UBSan CI leg runs this suite too), and re-entrant submission from a
// completion callback.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.hpp"
#include "core/scheduler.hpp"
#include "gen/karatsuba.hpp"
#include "gen/mastrovito.hpp"
#include "gen/montgomery_gate.hpp"
#include "gen/squarer.hpp"
#include "gf2m/field.hpp"
#include "gf2poly/irreducible.hpp"
#include "helpers.hpp"
#include "util/error.hpp"

#ifndef GFRE_SOURCE_DIR
#define GFRE_SOURCE_DIR "."
#endif

namespace gfre::core {
namespace {

using gf2::Poly;
using test::expect_reports_equal;

std::string data_path(const std::string& file) {
  return std::string(GFRE_SOURCE_DIR) + "/data/" + file;
}

BatchJob memory_job(std::string name, nl::Netlist netlist,
                    RewriteStrategy strategy) {
  BatchJob job;
  job.name = std::move(name);
  job.netlist = std::make_shared<const nl::Netlist>(std::move(netlist));
  job.options.strategy = strategy;
  return job;
}

BatchJob file_job(const std::string& file, RewriteStrategy strategy) {
  BatchJob job;
  job.path = data_path(file);
  job.options.strategy = strategy;
  return job;
}

/// Standalone ground truth (test::sequential_flow, no scheduler); nullopt
/// for jobs that cannot load.
std::optional<FlowReport> baseline_report(const BatchJob& job) {
  nl::Netlist netlist("x");
  if (job.netlist) {
    netlist = *job.netlist;
  } else {
    try {
      netlist = load_netlist_file(job.path);
    } catch (const Error&) {
      return std::nullopt;
    }
  }
  return test::sequential_flow(netlist, job.options);
}

// -- Differential: interleaved submit/wait ----------------------------------

class SchedulerDifferential
    : public ::testing::TestWithParam<std::tuple<RewriteStrategy, unsigned>> {
};

TEST_P(SchedulerDifferential, InterleavedSubmissionsMatchStandalone) {
  const RewriteStrategy strategy = std::get<0>(GetParam());
  const unsigned threads = std::get<1>(GetParam());

  std::vector<BatchJob> jobs;
  for (unsigned m : {4u, 7u}) {
    const gf2m::Field field(gf2::default_irreducible(m));
    const std::string suffix = "_m" + std::to_string(m);
    jobs.push_back(memory_job("mastrovito" + suffix,
                              gen::generate_mastrovito(field), strategy));
    jobs.push_back(memory_job("montgomery" + suffix,
                              gen::generate_montgomery(field), strategy));
    // One-operand interface: port resolution must fail it with the same
    // diagnosed report as a standalone run.
    jobs.push_back(memory_job("squarer" + suffix,
                              gen::generate_squarer(field), strategy));
  }
  {
    const gf2m::Field field(Poly{8, 4, 3, 1, 0});
    jobs.push_back(memory_job(
        "scrambled_mastrovito_m8",
        test::scramble_outputs(gen::generate_mastrovito(field),
                               {3, 1, 4, 7, 6, 0, 2, 5}),
        strategy));
  }
  jobs.push_back(file_job("mastrovito_m8.eqn", strategy));
  jobs.push_back(file_job("corrupt_gf4.eqn", strategy));
  jobs.push_back(file_job("does_not_exist.eqn", strategy));

  std::vector<std::optional<FlowReport>> baselines;
  for (const auto& job : jobs) baselines.push_back(baseline_report(job));

  BatchOptions options;
  options.threads = threads;
  BatchScheduler scheduler(options);
  EXPECT_EQ(scheduler.threads(), threads);

  // Interleave submission with waiting: the first half's futures are
  // consumed BEFORE the second half is submitted — the scheduler must keep
  // serving a long-lived instance, not one frozen wave.
  std::vector<std::future<BatchJobResult>> futures;
  const std::size_t half = jobs.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    futures.push_back(scheduler.submit(jobs[i]).result);
  }
  std::vector<BatchJobResult> results;
  for (auto& future : futures) results.push_back(future.get());
  futures.clear();
  for (std::size_t i = half; i < jobs.size(); ++i) {
    futures.push_back(scheduler.submit(jobs[i]).result);
  }
  scheduler.drain();
  for (auto& future : futures) results.push_back(future.get());

  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& result = results[i];
    const std::string label = result.name + " @" + std::to_string(threads) +
                              "T/" + to_string(strategy);
    EXPECT_FALSE(result.cancelled) << label;
    if (!baselines[i].has_value()) {
      EXPECT_FALSE(result.error.empty()) << label;
      EXPECT_FALSE(result.ok) << label;
      continue;
    }
    EXPECT_TRUE(result.error.empty()) << label << ": " << result.error;
    expect_reports_equal(result.report, *baselines[i], label);
    EXPECT_EQ(result.ok, baselines[i]->success) << label;
  }

  const BatchStats stats = scheduler.stats();
  EXPECT_EQ(stats.jobs, jobs.size());
  EXPECT_EQ(stats.load_errors, 1u) << "only the missing file fails to load";
  EXPECT_EQ(stats.cancelled, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, SchedulerDifferential,
    ::testing::Combine(::testing::Values(RewriteStrategy::Packed,
                                         RewriteStrategy::NaiveScan),
                       ::testing::Values(1u, 2u, 8u)),
    [](const ::testing::TestParamInfo<std::tuple<RewriteStrategy, unsigned>>&
           info) {
      return std::string(to_string(std::get<0>(info.param))) + "_" +
             std::to_string(std::get<1>(info.param)) + "threads";
    });

// -- Callback contract ------------------------------------------------------

TEST(SchedulerCallback, RunsExactlyOnceBeforeFutureIsReady) {
  const gf2m::Field field(Poly{5, 2, 0});
  BatchOptions options;
  options.threads = 2;
  BatchScheduler scheduler(options);

  constexpr int kJobs = 12;
  struct PerJob {
    std::atomic<int> calls{0};
    std::string seen_name;
    bool seen_ok = false;
  };
  std::vector<PerJob> states(kJobs);
  std::vector<std::future<BatchJobResult>> futures;
  for (int i = 0; i < kJobs; ++i) {
    auto netlist = i % 2 == 0 ? gen::generate_mastrovito(field)
                              : gen::generate_karatsuba(field);
    BatchJob job;
    job.name = "job" + std::to_string(i);
    job.netlist = std::make_shared<const nl::Netlist>(std::move(netlist));
    // Half the jobs get a fresh netlist name so memoized and extracted
    // completions both exercise the callback.
    PerJob* state = &states[static_cast<std::size_t>(i)];
    futures.push_back(scheduler
                          .submit(std::move(job),
                                  [state](const BatchJobResult& r) {
                                    ++state->calls;
                                    state->seen_name = r.name;
                                    state->seen_ok = r.ok;
                                  })
                          .result);
  }
  for (int i = 0; i < kJobs; ++i) {
    const BatchJobResult result = futures[static_cast<std::size_t>(i)].get();
    // The callback runs strictly before the promise is fulfilled on the
    // same thread, so by the time get() returns it MUST have happened.
    EXPECT_EQ(states[static_cast<std::size_t>(i)].calls.load(), 1)
        << result.name;
    EXPECT_EQ(states[static_cast<std::size_t>(i)].seen_name, result.name);
    EXPECT_EQ(states[static_cast<std::size_t>(i)].seen_ok, result.ok);
    EXPECT_TRUE(result.ok) << result.name;
  }
}

TEST(SchedulerCallback, SubmitFromCallbackIsSafe) {
  const gf2m::Field field(Poly{4, 1, 0});
  BatchOptions options;
  options.threads = 2;
  BatchScheduler scheduler(options);

  // The completion callback submits a follow-up job into the same
  // scheduler — the serving pattern (finish one request, enqueue the
  // next).  Deliveries run outside the scheduler lock, so this must not
  // deadlock.
  std::promise<std::future<BatchJobResult>> chained;
  auto chained_future = chained.get_future();
  BatchJob first;
  first.name = "first";
  first.netlist =
      std::make_shared<const nl::Netlist>(gen::generate_mastrovito(field));
  auto ticket = scheduler.submit(
      std::move(first), [&](const BatchJobResult&) {
        BatchJob next;
        next.name = "chained";
        next.netlist =
            std::make_shared<const nl::Netlist>(gen::generate_karatsuba(field));
        chained.set_value(scheduler.submit(std::move(next)).result);
      });
  EXPECT_TRUE(ticket.result.get().ok);
  ASSERT_EQ(chained_future.wait_for(std::chrono::seconds(60)),
            std::future_status::ready);
  EXPECT_TRUE(chained_future.get().get().ok);
}

// -- Cancellation -----------------------------------------------------------

/// Parks the scheduler's single worker deterministically: a FIFO-backed
/// "netlist file" blocks the worker inside the setup read (opening a FIFO
/// for reading blocks until a writer appears) until the test opens the
/// write end.  While it is parked, everything submitted after it is
/// provably still queued — cancellation is exact, not racy.
class FifoGate {
 public:
  FifoGate() : path_(::testing::TempDir() + "gate_fifo.eqn") {
    std::remove(path_.c_str());
    if (::mkfifo(path_.c_str(), 0600) != 0) {
      ADD_FAILURE() << "mkfifo failed for " << path_;
    }
  }
  ~FifoGate() { std::remove(path_.c_str()); }

  const std::string& path() const { return path_; }

  /// Unblocks the parked worker: a non-blocking write-open succeeds only
  /// once the reader is waiting (retrying until then), the content is not
  /// a netlist, so the gate job resolves as a load error.  Idempotent so
  /// the scope guard below can call it unconditionally.
  void open_gate() {
    if (opened_) return;
    opened_ = true;
    for (int attempt = 0; attempt < 60000; ++attempt) {
      const int fd = ::open(path_.c_str(), O_WRONLY | O_NONBLOCK);
      if (fd >= 0) {
        const char text[] = "not a netlist\n";
        [[maybe_unused]] const auto n = ::write(fd, text, sizeof text - 1);
        ::close(fd);
        return;
      }
      // ENXIO: the worker has not reached its blocking read-open yet.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ADD_FAILURE() << "no reader ever parked on " << path_;
  }

 private:
  std::string path_;
  bool opened_ = false;
};

/// Opens the gate on scope exit — an early test failure must not leave the
/// worker parked forever (the scheduler destructor would wait on it).
class FifoGateGuard {
 public:
  explicit FifoGateGuard(FifoGate& gate) : gate_(gate) {}
  ~FifoGateGuard() { gate_.open_gate(); }

 private:
  FifoGate& gate_;
};

/// Out-of-range handle that no submission can own.
BatchScheduler::JobHandle unknown_handle() { return ~0ull; }

TEST(SchedulerCancel, QueuedJobNeverRunsAndResolvesImmediately) {
  const gf2m::Field field(Poly{4, 1, 0});
  FifoGate gate;

  BatchOptions options;
  options.threads = 1;
  BatchScheduler scheduler(options);
  // Constructed after the scheduler: if an assertion bails out of the
  // test, the guard opens the gate BEFORE the scheduler destructor waits
  // on the parked worker.
  FifoGateGuard guard(gate);

  BatchJob gate_job;
  gate_job.name = "gate";
  gate_job.path = gate.path();
  auto gate_ticket = scheduler.submit(std::move(gate_job));

  BatchJob keep;
  keep.name = "keep";
  keep.netlist =
      std::make_shared<const nl::Netlist>(gen::generate_mastrovito(field));
  auto keep_ticket = scheduler.submit(std::move(keep));

  std::atomic<int> cancelled_callbacks{0};
  bool callback_saw_cancelled = false;
  BatchJob victim;
  victim.name = "victim";
  victim.netlist =
      std::make_shared<const nl::Netlist>(gen::generate_karatsuba(field));
  auto victim_ticket = scheduler.submit(
      std::move(victim), [&](const BatchJobResult& r) {
        ++cancelled_callbacks;
        callback_saw_cancelled = r.cancelled;
      });

  // The only worker is parked in the gate's blocking open, so "keep" and
  // "victim" are still queued — cancel is deterministic.
  EXPECT_TRUE(scheduler.cancel(victim_ticket.handle));
  // When cancel() returns true the future is ALREADY fulfilled and the
  // callback has run: nothing of the job will ever execute.
  ASSERT_EQ(victim_ticket.result.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const BatchJobResult victim_result = victim_ticket.result.get();
  EXPECT_TRUE(victim_result.cancelled);
  EXPECT_FALSE(victim_result.ok);
  EXPECT_TRUE(victim_result.error.empty());
  EXPECT_EQ(victim_result.name, "victim");
  EXPECT_EQ(cancelled_callbacks.load(), 1);
  EXPECT_TRUE(callback_saw_cancelled);

  // Double-cancel and unknown handles are a clean false.
  EXPECT_FALSE(scheduler.cancel(victim_ticket.handle));
  EXPECT_FALSE(scheduler.cancel(unknown_handle()));

  gate.open_gate();
  scheduler.drain();

  EXPECT_FALSE(gate_ticket.result.get().error.empty())
      << "the gate file is not a parseable netlist";
  EXPECT_TRUE(keep_ticket.result.get().ok);
  // A completed job cannot be cancelled.
  EXPECT_FALSE(scheduler.cancel(keep_ticket.handle));

  const BatchStats stats = scheduler.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.cones_extracted, 4u)
      << "only 'keep' (m=4) may extract — the cancelled job must not "
         "contribute a single cone";
}

// -- Dedup and memoization on one long-lived instance -----------------------

TEST(SchedulerDedup, DuplicateSubmissionsCostOneExtraction) {
  const gf2m::Field field(Poly{5, 2, 0});
  const auto netlist = gen::generate_montgomery(field);

  BatchOptions options;
  options.threads = 2;
  BatchScheduler scheduler(options);

  // Wave 1: the duplicate either parks behind the in-flight primary
  // (AwaitingPrimary) or hits the fresh cache entry — under every
  // interleaving, exactly one extraction happens.
  auto first = scheduler.submit(memory_job("first", netlist,
                                           RewriteStrategy::Packed));
  auto dup = scheduler.submit(memory_job("dup", netlist,
                                         RewriteStrategy::Packed));
  scheduler.drain();
  const BatchJobResult first_result = first.result.get();
  const BatchJobResult dup_result = dup.result.get();
  EXPECT_TRUE(first_result.ok);
  EXPECT_TRUE(dup_result.ok);
  expect_reports_equal(dup_result.report, first_result.report, "wave-1 dup");
  EXPECT_EQ(scheduler.stats().cones_extracted, 5u);
  EXPECT_EQ(scheduler.stats().cache_hits, 1u);

  // Wave 2: memoization survives across waves on a long-lived scheduler —
  // run_batch could never do this.
  auto later = scheduler.submit(memory_job("later", netlist,
                                           RewriteStrategy::Packed));
  const BatchJobResult later_result = later.result.get();
  EXPECT_TRUE(later_result.ok);
  EXPECT_TRUE(later_result.cache_hit);
  expect_reports_equal(later_result.report, first_result.report,
                       "wave-2 cache hit");
  EXPECT_EQ(scheduler.stats().cones_extracted, 5u)
      << "the second wave must be served from the cache";
  EXPECT_EQ(scheduler.stats().cache_hits, 2u);
}

// -- Teardown with work in flight -------------------------------------------

TEST(SchedulerTeardown, HundredsOfQueuedJobsEveryFutureFulfilled) {
  // The satellite stress case: destroy a scheduler with hundreds of queued
  // jobs.  Every future must be fulfilled (real result or cancelled), the
  // callback must run exactly once per job, and nothing may leak or race —
  // the ASan/UBSan CI leg runs this test under sanitizers.
  const gf2m::Field field(Poly{4, 1, 0});
  const auto mastrovito = gen::generate_mastrovito(field);
  const auto karatsuba = gen::generate_karatsuba(field);

  constexpr int kJobs = 300;
  std::atomic<int> callbacks{0};
  std::vector<BatchScheduler::Submission> tickets;
  tickets.reserve(kJobs);
  {
    BatchOptions options;
    options.threads = 2;
    BatchScheduler scheduler(options);
    for (int i = 0; i < kJobs; ++i) {
      BatchJob job;
      job.name = "stress" + std::to_string(i);
      job.netlist =
          std::make_shared<const nl::Netlist>(i % 2 == 0 ? mastrovito : karatsuba);
      tickets.push_back(scheduler.submit(
          std::move(job),
          [&callbacks](const BatchJobResult&) { ++callbacks; }));
    }
    // Destructor runs here with almost everything still queued.
  }

  int cancelled = 0;
  int completed = 0;
  for (auto& ticket : tickets) {
    ASSERT_EQ(ticket.result.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "teardown left a future unfulfilled";
    const BatchJobResult result = ticket.result.get();
    if (result.cancelled) {
      ++cancelled;
      EXPECT_FALSE(result.ok);
    } else {
      ++completed;
      EXPECT_TRUE(result.ok) << result.name;
    }
  }
  EXPECT_EQ(cancelled + completed, kJobs);
  EXPECT_EQ(callbacks.load(), kJobs)
      << "every job's callback must run exactly once, cancelled or not";
}

TEST(SchedulerTeardown, IdleSchedulerShutsDownClean) {
  for (unsigned threads : {1u, 4u}) {
    BatchOptions options;
    options.threads = threads;
    BatchScheduler scheduler(options);
    scheduler.drain();  // no jobs: immediate
    EXPECT_EQ(scheduler.stats().jobs, 0u);
  }
}

// -- Admission control -------------------------------------------------------

TEST(SchedulerAdmission, TrySubmitRejectsWhenFull) {
  const gf2m::Field field(Poly{4, 1, 0});
  FifoGate gate;

  BatchOptions options;
  options.threads = 1;
  options.max_queued = 2;
  BatchScheduler scheduler(options);
  FifoGateGuard guard(gate);

  BatchJob gate_job;
  gate_job.name = "gate";
  gate_job.path = gate.path();
  auto gate_ticket = scheduler.submit(std::move(gate_job));

  BatchJob second;
  second.name = "second";
  second.netlist =
      std::make_shared<const nl::Netlist>(gen::generate_mastrovito(field));
  auto second_ticket = scheduler.submit(std::move(second));

  // The worker is parked in the gate's read and "second" is queued:
  // exactly max_queued jobs are unresolved, so the next try_submit must
  // bounce — with the future already fulfilled and the callback already
  // run, on this thread, before try_submit returns.
  std::atomic<int> reject_callbacks{0};
  bool callback_saw_rejected = false;
  BatchJob over;
  over.name = "over";
  over.netlist =
      std::make_shared<const nl::Netlist>(gen::generate_karatsuba(field));
  auto over_ticket = scheduler.try_submit(
      std::move(over), [&](const BatchJobResult& r) {
        ++reject_callbacks;
        callback_saw_rejected = r.rejected;
      });
  EXPECT_EQ(over_ticket.handle, 0u) << "rejected tickets carry no handle";
  ASSERT_EQ(over_ticket.result.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const BatchJobResult over_result = over_ticket.result.get();
  EXPECT_TRUE(over_result.rejected);
  EXPECT_FALSE(over_result.ok);
  EXPECT_FALSE(over_result.error.empty());
  EXPECT_EQ(over_result.name, "over");
  EXPECT_EQ(reject_callbacks.load(), 1);
  EXPECT_TRUE(callback_saw_rejected);

  gate.open_gate();
  scheduler.drain();
  EXPECT_TRUE(second_ticket.result.get().ok);
  EXPECT_FALSE(gate_ticket.result.get().error.empty());

  // With the queue drained, try_submit admits again.
  BatchJob after;
  after.name = "after";
  after.netlist =
      std::make_shared<const nl::Netlist>(gen::generate_karatsuba(field));
  auto after_ticket = scheduler.try_submit(std::move(after));
  EXPECT_NE(after_ticket.handle, 0u);
  EXPECT_TRUE(after_ticket.result.get().ok);

  const BatchStats stats = scheduler.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.jobs, 4u) << "rejected submissions still count as jobs";
  EXPECT_LE(stats.queue_peak, options.max_queued)
      << "admission control must bound the unresolved high-water mark";
}

TEST(SchedulerAdmission, BlockingSubmitWaitsForRoom) {
  const gf2m::Field field(Poly{4, 1, 0});
  FifoGate gate;

  BatchOptions options;
  options.threads = 1;
  options.max_queued = 1;
  BatchScheduler scheduler(options);
  FifoGateGuard guard(gate);

  BatchJob gate_job;
  gate_job.name = "gate";
  gate_job.path = gate.path();
  auto gate_ticket = scheduler.submit(std::move(gate_job));

  // The queue is at its cap (the gate job is unresolved), so a blocking
  // submit from another thread must park until the gate job resolves.
  std::atomic<bool> admitted{false};
  std::future<BatchJobResult> blocked_future;
  std::thread submitter([&] {
    BatchJob blocked;
    blocked.name = "blocked";
    blocked.netlist =
        std::make_shared<const nl::Netlist>(gen::generate_mastrovito(field));
    auto ticket = scheduler.submit(std::move(blocked));
    admitted.store(true);
    blocked_future = std::move(ticket.result);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(admitted.load())
      << "submit must backpressure while the queue is at max_queued";

  gate.open_gate();
  submitter.join();
  EXPECT_TRUE(admitted.load());
  scheduler.drain();
  EXPECT_TRUE(blocked_future.get().ok);
  EXPECT_FALSE(gate_ticket.result.get().error.empty());
  EXPECT_LE(scheduler.stats().queue_peak, 1u);
}

// -- Deadlines ---------------------------------------------------------------

TEST(SchedulerDeadline, ExpiresWhileQueued) {
  const gf2m::Field field(Poly{4, 1, 0});
  FifoGate gate;

  BatchOptions options;
  options.threads = 1;
  BatchScheduler scheduler(options);
  FifoGateGuard guard(gate);

  BatchJob gate_job;
  gate_job.name = "gate";
  gate_job.path = gate.path();
  auto gate_ticket = scheduler.submit(std::move(gate_job));

  std::atomic<int> callbacks{0};
  BatchJob victim;
  victim.name = "victim";
  victim.netlist =
      std::make_shared<const nl::Netlist>(gen::generate_mastrovito(field));
  victim.deadline_ms = 20;
  auto victim_ticket = scheduler.submit(
      std::move(victim),
      [&callbacks](const BatchJobResult&) { ++callbacks; });

  // The only worker is parked, so the victim can never start; the reaper
  // must resolve it at its deadline with the gate still closed.
  ASSERT_EQ(victim_ticket.result.wait_for(std::chrono::seconds(60)),
            std::future_status::ready)
      << "queued deadline never fired";
  const BatchJobResult victim_result = victim_ticket.result.get();
  EXPECT_TRUE(victim_result.deadline_exceeded);
  EXPECT_FALSE(victim_result.cancelled);
  EXPECT_FALSE(victim_result.ok);
  EXPECT_FALSE(victim_result.error.empty());
  EXPECT_EQ(callbacks.load(), 1);

  gate.open_gate();
  scheduler.drain();
  const BatchStats stats = scheduler.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.cones_extracted, 0u)
      << "the expired job must not contribute a single cone";
}

/// A netlist whose z0 cone can never finish rewriting: an OR tower over
/// all 2m inputs has the maximal ANF (2^(2m) - 1 monomials), so for m=13
/// the cone needs a ~2^26-term polynomial — hours and gigabytes away —
/// while every other bit is a trivial AND.  Any wall-clock deadline
/// therefore aborts deterministically inside cone 0, at any thread count.
nl::Netlist blowup_netlist(unsigned m) {
  nl::Netlist netlist("blowup_m" + std::to_string(m));
  std::vector<nl::Var> a, b;
  for (unsigned i = 0; i < m; ++i) {
    a.push_back(netlist.add_input("a" + std::to_string(i)));
  }
  for (unsigned i = 0; i < m; ++i) {
    b.push_back(netlist.add_input("b" + std::to_string(i)));
  }
  nl::Var tower = a[0];
  for (unsigned i = 1; i < m; ++i) {
    tower = netlist.add_gate(nl::CellType::Or, {tower, a[i]});
  }
  for (unsigned i = 0; i < m; ++i) {
    const bool last = i + 1 == m;
    tower = netlist.add_gate(nl::CellType::Or, {tower, b[i]},
                             last ? "z0" : "");
  }
  netlist.mark_output(tower);
  for (unsigned i = 1; i < m; ++i) {
    const nl::Var z = netlist.add_gate(nl::CellType::And, {a[i], b[i]},
                                       "z" + std::to_string(i));
    netlist.mark_output(z);
  }
  return netlist;
}

TEST(SchedulerDeadline, RunningSoftAbortIsBitStableAcrossThreadCounts) {
  // The acceptance bar: a job soft-aborted mid-extraction resolves with a
  // DIAGNOSED deadline_exceeded failure whose report is identical at 1
  // and 8 workers — the fixed DeadlineExceeded message plus the
  // interleaving-independent failure report make that possible — and the
  // outcome is never cached (memo or disk).
  std::vector<BatchJobResult> results;
  for (const unsigned threads : {1u, 8u}) {
    BatchOptions options;
    options.threads = threads;
    BatchScheduler scheduler(options);
    BatchJob job;
    job.name = "blowup";
    job.netlist = std::make_shared<const nl::Netlist>(blowup_netlist(13));
    job.deadline_ms = 20;
    auto ticket = scheduler.submit(std::move(job));
    const BatchJobResult result = ticket.result.get();
    EXPECT_TRUE(result.deadline_exceeded) << threads << " threads";
    EXPECT_FALSE(result.ok) << threads << " threads";
    EXPECT_TRUE(result.error.empty())
        << threads << " threads: a running abort is a diagnosed report, "
        << "not a job-level error";
    EXPECT_FALSE(result.report.success) << threads << " threads";
    EXPECT_FALSE(result.report.recovery.diagnosis.empty())
        << threads << " threads";

    // Never cached: a resubmission must extract again (and abort again),
    // not replay the budget verdict as a memo hit.
    BatchJob again;
    again.name = "blowup_again";
    again.netlist = std::make_shared<const nl::Netlist>(blowup_netlist(13));
    again.deadline_ms = 20;
    const BatchJobResult second = scheduler.submit(std::move(again))
                                      .result.get();
    EXPECT_TRUE(second.deadline_exceeded) << threads << " threads";
    EXPECT_FALSE(second.cache_hit)
        << threads << " threads: deadline outcomes must not be memoized";
    EXPECT_EQ(scheduler.stats().cache_hits, 0u) << threads << " threads";
    EXPECT_EQ(scheduler.stats().deadline_exceeded, 2u)
        << threads << " threads";

    results.push_back(result);
  }
  expect_reports_equal(results[1].report, results[0].report,
                       "deadline abort @8T vs @1T");
}

// -- Priorities --------------------------------------------------------------

TEST(SchedulerPriority, ClassOrderBeatsSubmissionOrder) {
  const gf2m::Field field4(Poly{4, 1, 0});
  const gf2m::Field field5(Poly{5, 2, 0});
  const gf2m::Field field7(Poly{7, 1, 0});
  FifoGate gate;

  BatchOptions options;
  options.threads = 1;
  BatchScheduler scheduler(options);
  FifoGateGuard guard(gate);

  BatchJob gate_job;
  gate_job.name = "gate";
  gate_job.path = gate.path();
  auto gate_ticket = scheduler.submit(std::move(gate_job));

  // Submitted worst-first while the single worker is parked; the claim
  // order once the gate opens must be class order, not FIFO.
  std::mutex order_mu;
  std::vector<std::string> order;
  const auto record = [&](const BatchJobResult& r) {
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back(r.name);
  };
  BatchJob low;
  low.name = "low";
  low.netlist =
      std::make_shared<const nl::Netlist>(gen::generate_mastrovito(field4));
  low.priority = JobPriority::Low;
  auto low_ticket = scheduler.submit(std::move(low), record);
  BatchJob normal;
  normal.name = "normal";
  normal.netlist =
      std::make_shared<const nl::Netlist>(gen::generate_mastrovito(field5));
  auto normal_ticket = scheduler.submit(std::move(normal), record);
  BatchJob high;
  high.name = "high";
  high.netlist =
      std::make_shared<const nl::Netlist>(gen::generate_mastrovito(field7));
  high.priority = JobPriority::High;
  auto high_ticket = scheduler.submit(std::move(high), record);

  gate.open_gate();
  scheduler.drain();
  EXPECT_TRUE(low_ticket.result.get().ok);
  EXPECT_TRUE(normal_ticket.result.get().ok);
  EXPECT_TRUE(high_ticket.result.get().ok);
  EXPECT_FALSE(gate_ticket.result.get().error.empty());

  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "high");
  EXPECT_EQ(order[1], "normal");
  EXPECT_EQ(order[2], "low");
}

// -- Drain with a budget -----------------------------------------------------

TEST(SchedulerDrain, DrainForCancelsQueuedAfterTimeout) {
  const gf2m::Field field(Poly{4, 1, 0});
  FifoGate gate;

  BatchOptions options;
  options.threads = 1;
  BatchScheduler scheduler(options);
  FifoGateGuard guard(gate);

  BatchJob gate_job;
  gate_job.name = "gate";
  gate_job.path = gate.path();
  auto gate_ticket = scheduler.submit(std::move(gate_job));

  BatchJob queued1;
  queued1.name = "queued1";
  queued1.netlist =
      std::make_shared<const nl::Netlist>(gen::generate_mastrovito(field));
  auto ticket1 = scheduler.submit(std::move(queued1));
  BatchJob queued2;
  queued2.name = "queued2";
  queued2.netlist =
      std::make_shared<const nl::Netlist>(gen::generate_karatsuba(field));
  auto ticket2 = scheduler.submit(std::move(queued2));

  // The gate job is mid-"extraction" (parked in its read) and cannot be
  // cancelled; drain_for must give up at the budget, cancel the two
  // still-queued jobs, then wait for the gate job — which a helper
  // unblocks shortly after the budget expires.
  std::thread opener([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    gate.open_gate();
  });
  const bool clean = scheduler.drain_for(std::chrono::milliseconds(40));
  opener.join();
  EXPECT_FALSE(clean);
  EXPECT_TRUE(ticket1.result.get().cancelled);
  EXPECT_TRUE(ticket2.result.get().cancelled);
  EXPECT_FALSE(gate_ticket.result.get().error.empty())
      << "the in-flight gate job still resolves with its real result";
  EXPECT_EQ(scheduler.stats().cancelled, 2u);

  // An idle scheduler drains instantly and cleanly.
  EXPECT_TRUE(scheduler.drain_for(std::chrono::milliseconds(1)));
}

// -- Stats snapshot consistency ----------------------------------------------

TEST(SchedulerStats, SnapshotsAreConsistentUnderConcurrentWorkers) {
  // The bugfix bar: stats() must never expose a torn snapshot.  A reader
  // hammers stats() while 4 workers chew through a mixed workload; every
  // snapshot must satisfy the engine's invariants, and the final snapshot
  // must account for every job exactly once.
  const gf2m::Field field(Poly{5, 2, 0});
  const auto mastrovito = gen::generate_mastrovito(field);
  const auto karatsuba = gen::generate_karatsuba(field);

  BatchOptions options;
  options.threads = 4;
  options.max_queued = 64;
  BatchScheduler scheduler(options);

  std::atomic<bool> stop_reader{false};
  std::atomic<int> violations{0};
  std::thread reader([&] {
    std::size_t last_jobs = 0;
    while (!stop_reader.load()) {
      const BatchStats s = scheduler.stats();
      const std::size_t resolved = s.succeeded + s.failed + s.load_errors +
                                   s.cancelled + s.deadline_exceeded +
                                   s.rejected;
      if (resolved > s.jobs) ++violations;
      if (s.jobs < last_jobs) ++violations;  // lifetime counters only grow
      if (s.queue_peak > 64) ++violations;
      last_jobs = s.jobs;
    }
  });

  constexpr int kJobs = 200;
  std::vector<std::future<BatchJobResult>> futures;
  for (int i = 0; i < kJobs; ++i) {
    BatchJob job;
    job.name = "hammer" + std::to_string(i);
    job.netlist =
        std::make_shared<const nl::Netlist>(i % 2 == 0 ? mastrovito : karatsuba);
    futures.push_back(scheduler.submit(std::move(job)).result);
  }
  scheduler.drain();
  stop_reader.store(true);
  reader.join();
  for (auto& future : futures) EXPECT_TRUE(future.get().ok);

  EXPECT_EQ(violations.load(), 0);
  const BatchStats s = scheduler.stats();
  EXPECT_EQ(s.jobs, static_cast<std::size_t>(kJobs));
  EXPECT_EQ(s.succeeded + s.failed + s.load_errors + s.cancelled +
                s.deadline_exceeded + s.rejected,
            s.jobs)
      << "every job must land in exactly one terminal counter";
  EXPECT_LE(s.queue_peak, 64u);
}

TEST(SchedulerDrain, WaitIdleForIsAPassiveBoundedWait) {
  const gf2m::Field field(Poly{4, 1, 0});
  FifoGate gate;

  BatchOptions options;
  options.threads = 1;
  BatchScheduler scheduler(options);
  FifoGateGuard guard(gate);

  BatchJob gate_job;
  gate_job.name = "gate";
  gate_job.path = gate.path();
  auto gate_ticket = scheduler.submit(std::move(gate_job));

  BatchJob queued;
  queued.name = "queued";
  queued.netlist =
      std::make_shared<const nl::Netlist>(gen::generate_mastrovito(field));
  auto queued_ticket = scheduler.submit(std::move(queued));

  // The worker is parked: the wait must time out WITHOUT cancelling
  // anything — that is the whole contract (gfre_batch polls it between
  // signal checks).
  EXPECT_FALSE(scheduler.wait_idle_for(std::chrono::milliseconds(50)));
  EXPECT_EQ(queued_ticket.result.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout)
      << "a timed-out idle wait must not cancel the queued job";

  gate.open_gate();
  EXPECT_TRUE(scheduler.wait_idle_for(std::chrono::seconds(120)));
  EXPECT_TRUE(queued_ticket.result.get().ok);
  EXPECT_EQ(scheduler.stats().cancelled, 0u);
}

TEST(SchedulerDeadline, QueuedExpiryFiresNearTheDeadlineNotAPollTick) {
  const gf2m::Field field(Poly{4, 1, 0});
  FifoGate gate;

  BatchOptions options;
  options.threads = 1;
  BatchScheduler scheduler(options);
  FifoGateGuard guard(gate);

  BatchJob gate_job;
  gate_job.name = "gate";
  gate_job.path = gate.path();
  auto gate_ticket = scheduler.submit(std::move(gate_job));

  // The reaper sleeps until exactly the earliest pending deadline, so a
  // 100 ms deadline on a parked queue must resolve in ~100 ms — not
  // after some coarse polling interval.  The 2 s bound is deliberately
  // loose for CI noise while still catching any 5-10 s poll loop.
  BatchJob victim;
  victim.name = "victim";
  victim.netlist =
      std::make_shared<const nl::Netlist>(gen::generate_mastrovito(field));
  victim.deadline_ms = 100;
  const auto submitted = std::chrono::steady_clock::now();
  auto ticket = scheduler.submit(std::move(victim));
  ASSERT_EQ(ticket.result.wait_for(std::chrono::seconds(60)),
            std::future_status::ready);
  const auto elapsed = std::chrono::steady_clock::now() - submitted;
  const BatchJobResult result = ticket.result.get();
  EXPECT_TRUE(result.deadline_exceeded);
  EXPECT_GE(elapsed, std::chrono::milliseconds(100))
      << "a deadline must never fire early";
  EXPECT_LT(elapsed, std::chrono::seconds(2))
      << "expiry latency looks like a poll loop, not a deadline wait";

  gate.open_gate();
  scheduler.drain();
}

}  // namespace
}  // namespace gfre::core
