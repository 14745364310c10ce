// Long-lived asynchronous batch scheduler — the serving front end's engine.
//
// core/batch.hpp's run_batch is submit-all-then-wait: one pool per call,
// memoization scoped to that call.  A serving tier ingests jobs
// incrementally instead, so this class keeps the batch engine's worker
// fleet, per-job state machine, content-hash memoization, in-flight
// deduplication, worker/job affinity and cone stealing alive across an
// arbitrary stream of submissions:
//
//   BatchScheduler scheduler(options);            // workers start here
//   auto ticket = scheduler.submit(std::move(job),
//       [](const BatchJobResult& r) { ... });     // optional callback
//   ...submit more, from any thread...
//   BatchJobResult result = ticket.result.get();  // per-job future
//   scheduler.cancel(ticket.handle);              // queued jobs only
//   scheduler.drain();                            // barrier: all resolved
//
// Guarantees:
//  - Every submitted job's future is eventually fulfilled — with a result
//    (cache hit, success, diagnosed failure or load error), with
//    `cancelled` set, or (engine bug only) with the escaped exception.
//  - The completion callback, when provided, runs exactly once — for
//    results, cancellations and even engine-bug jobs (those see a result
//    with `error` set to "engine failure: ..." while the future carries
//    the exception) — on the thread that resolved the job (a worker, or
//    the caller of cancel()), *before* the future becomes ready.
//    Callbacks must not block on the scheduler (submit/cancel/stats are
//    safe; drain() would deadlock) and must not throw (escaped
//    exceptions are swallowed).
//  - Memoization and in-flight dedup span the scheduler's whole lifetime:
//    a job submitted while its duplicate is mid-extraction attaches to
//    that extraction; one submitted after it completes is a cache hit.
//    The in-memory cache is bounded (BatchOptions::memo_max_entries,
//    LRU-evicted, BatchStats::memo_evictions counts the churn), so a
//    service that runs for months holds a working set, not a leak.  An
//    evicted entry falls through to the persistent disk cache
//    (BatchOptions::result_cache -> core/result_cache.hpp), which
//    survives scheduler recycling, is shared between scheduler instances
//    and is consulted on every in-memory miss before an extraction is
//    paid for.
//  - Admission control (BatchOptions::max_queued > 0) bounds unresolved
//    jobs: submit() blocks until a slot frees; try_submit() never blocks
//    and instead returns a rejected ticket — handle == 0, future already
//    fulfilled with `rejected` set, callback already run.  With
//    max_queued == 0 both behave like the unbounded submit.
//  - Deadlines (BatchJob::deadline_ms > 0) are enforced in two places: a
//    reaper expires still-queued jobs (resolved with `deadline_exceeded`
//    and a diagnosis, without running), and running extractions are
//    soft-aborted at the between-substitutions checkpoint the term budget
//    uses, resolving with a diagnosed failure report that is bit-stable
//    across worker counts.  Deadline outcomes are never written to the
//    memo or the disk cache — they describe the budget, not the netlist.
//  - Priorities (BatchJob::priority) order every claim point — High
//    before Normal before Low, FIFO within a class — ahead of affinity
//    and stealing.  A cone already running is never preempted.
//  - cancel(handle) succeeds only for jobs that have not started running
//    (queued, or parked behind an in-flight duplicate).  When it returns
//    true, the job's callback has run, its future is ready with
//    `cancelled == true`, and no part of the job will ever execute.
//  - The destructor is safe with work in flight: queued jobs are
//    cancelled (futures fulfilled, callbacks run), jobs that already
//    started run to completion, then the workers shut down.
//
// Thread safety: submit/cancel/stats/threads are safe from any thread,
// including from inside completion callbacks (drain() is the one
// callback-forbidden call — it would self-deadlock).  The scheduler owns
// its workers; the caller owns the futures.  Destruction follows the
// usual C++ object rule — the caller must ensure no thread is inside (or
// about to enter) a method when the destructor starts.  Within that
// rule, teardown is graceful: submissions arriving from completion
// callbacks while the destructor drains resolve as cancelled.
//
// This class is the one execution path of the flow: core::run_batch and
// core::reverse_engineer are thin wrappers that submit to a private
// scheduler and wait (core/batch.cpp).  tests/test_scheduler.cpp and
// tests/test_batch.cpp check that a job's report does not depend on
// worker count, batch neighbours or caching.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>

#include "core/batch.hpp"

namespace gfre::core {

class BatchScheduler {
 public:
  /// Identifies a submission for cancel(); never reused within one
  /// scheduler.  0 is not a valid handle.
  using JobHandle = std::uint64_t;

  /// Per-job completion hook; see the header comment for the contract.
  using Callback = std::function<void(const BatchJobResult&)>;

  struct Submission {
    JobHandle handle = 0;
    std::future<BatchJobResult> result;
  };

  /// Starts `options.threads` workers (>= 1) immediately.
  explicit BatchScheduler(const BatchOptions& options = {});

  /// Cancels every job that has not started, waits for in-flight jobs to
  /// resolve, then joins the workers.  Every future is fulfilled first.
  ~BatchScheduler();

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Enqueues one job; thread-safe.  The future is fulfilled exactly once
  /// (see the guarantees above).  With BatchOptions::max_queued set and
  /// the queue full, blocks until a job resolves (do NOT call the
  /// blocking submit from a completion callback on a full queue — like
  /// drain(), it can self-deadlock; use try_submit there).  Jobs
  /// submitted while teardown is draining (only possible from completion
  /// callbacks — see the destruction rule in the header comment) resolve
  /// immediately as cancelled.
  Submission submit(BatchJob job, Callback on_complete = nullptr);

  /// Non-blocking admission: like submit, but when the bounded queue is
  /// full the job is rejected instead of waiting — the returned ticket
  /// has handle == 0 and a future already fulfilled with `rejected` set
  /// (callback already run).  Safe from completion callbacks.
  Submission try_submit(BatchJob job, Callback on_complete = nullptr);

  /// Cancels a not-yet-started job.  True: the job never ran and its
  /// future is already fulfilled with `cancelled` set.  False: the job is
  /// running, finished, or the handle is unknown — its future resolves
  /// (or resolved) with a real result.
  bool cancel(JobHandle handle);

  /// Blocks until every job submitted so far is resolved (futures
  /// fulfilled, callbacks done).  Jobs submitted concurrently with the
  /// call may or may not be waited on.
  void drain();

  /// drain() with a wall-clock budget.  Waits up to `timeout` for the
  /// queue to empty; if time runs out, every job that has not started is
  /// cancelled (futures fulfilled with `cancelled` — or
  /// `deadline_exceeded` for jobs whose own deadline also expired), then
  /// waits for the in-flight remainder to resolve.  Returns true when
  /// everything resolved within the budget without forced cancellation.
  bool drain_for(std::chrono::milliseconds timeout);

  /// Passive bounded wait: true when every job submitted so far resolved
  /// within `timeout`, false otherwise — nothing is cancelled either way
  /// (drain_for cancels on timeout).  The building block for
  /// interruptible drains: poll in a loop and break on an external stop
  /// flag, e.g. gfre_batch's SIGINT handling.
  bool wait_idle_for(std::chrono::milliseconds timeout);

  /// Snapshot of the lifetime counters (jobs, cache_hits, cones, ...).
  BatchStats stats() const;

  unsigned threads() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace gfre::core
