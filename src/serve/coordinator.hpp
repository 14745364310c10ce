// Sharding coordinator — fans jobs across N forked worker processes.
//
// The serving tier's availability story lives here.  The coordinator forks
// `workers` child processes (serve/worker.hpp), each wired up over a
// socketpair and running a private BatchScheduler against one SHARED
// ResultCache directory, and routes submissions to them:
//
//   - Sharding: a job's preferred worker is hash(path) % workers, so
//     duplicate submissions of one netlist land on the same worker and hit
//     its in-memory memo; a busy/dead preferred worker falls back to the
//     least-loaded live one.
//   - Admission: with worker_queue_cap > 0, per-worker in-flight jobs are
//     bounded.  submit() blocks until a slot frees anywhere; try_submit()
//     resolves the job immediately as `rejected`.  The coordinator NEVER
//     buffers unboundedly on behalf of a full fleet — that would just move
//     the queue the bound exists to prevent.
//   - Failure: a worker death (socket EOF, reaped via waitpid) requeues
//     that worker's in-flight jobs onto surviving workers, at most
//     `max_retries` re-dispatches per job; past that the job resolves with
//     a diagnosed `worker_failed` error.  Work the dead worker finished
//     and stored to the shared disk cache before dying is NOT redone — the
//     retry replays it from disk.  Dead workers are respawned (same
//     index, new process) unless draining or `respawn` is off.
//
// Lifecycle state machine (per job):
//
//   submitted -> dispatched(worker k) -> resolved(result event)
//                     |                      ^
//                     | worker k dies        | re-dispatched, attempts+1
//                     v                      |
//                parked --------------------- (capacity free, worker alive)
//                     |
//                     | attempts > max_retries, or drain timeout
//                     v
//                resolved(worker_failed / cancelled)
//
// Thread safety: all public methods are safe from any thread.  Callbacks
// run on internal reader threads and must not call drain()/shutdown().
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "serve/wire.hpp"
#include "serve/worker.hpp"

namespace gfre::serve {

struct CoordinatorOptions {
  unsigned workers = 2;
  /// BatchScheduler pool width inside each worker process.
  unsigned threads_per_worker = 1;
  /// Per-worker bound on dispatched-but-unresolved jobs, enforced here
  /// only (the worker's own scheduler is unbounded); 0 = unbounded.
  std::size_t worker_queue_cap = 0;
  /// Re-dispatches allowed per job after worker deaths before the job is
  /// diagnosed `worker_failed`.  2 means a job survives two fleet
  /// incidents and fails on the third.
  unsigned max_retries = 2;
  /// Fork a replacement when a worker dies (never while draining).
  bool respawn = true;
  WorkerConfig worker;  ///< threads is overwritten from above
  /// Closes server-owned fds (listen sockets, client connections) in the
  /// forked child before worker_main, so a worker never holds them open
  /// past the server's death.
  std::function<void()> on_fork_child;
};

/// One resolved job as seen by the serving layer.
struct ServeResult {
  std::uint64_t id = 0;
  bool ok = false;
  bool rejected = false;
  bool cancelled = false;
  bool cache_hit = false;
  unsigned worker = 0;    ///< index that resolved (or last hosted) the job
  unsigned attempts = 1;  ///< dispatches consumed (>1 after a requeue)
  /// Verbatim JSONL report line (core::result_json_line rendering) — write
  /// it to the report file untouched.
  std::string line;
};

struct CoordinatorStats {
  std::size_t submitted = 0;
  std::size_t resolved = 0;
  std::size_t rejected = 0;        ///< admission rejections (never dispatched)
  std::size_t worker_deaths = 0;
  std::size_t respawns = 0;
  std::size_t requeues = 0;        ///< job re-dispatches after a death
  std::size_t worker_failed = 0;   ///< jobs that exhausted max_retries
};

class Coordinator {
 public:
  using Callback = std::function<void(const ServeResult&)>;

  /// Forks the fleet; throws gfre::Error when no worker could be spawned.
  explicit Coordinator(const CoordinatorOptions& options);

  /// shutdown(30s) unless already shut down.
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Dispatches `job` (path-backed; in-memory netlists cannot cross the
  /// process boundary) and returns its id.  Blocks while every live worker
  /// is at worker_queue_cap.  The callback fires exactly once.  During
  /// drain/shutdown new submissions resolve immediately as cancelled.
  std::uint64_t submit(core::BatchJob job, Callback on_complete);

  /// Non-blocking admission: at a full fleet the job resolves immediately
  /// as `rejected` — the callback has already run when this returns.  The
  /// job id is returned either way (rejection is visible on the result).
  std::uint64_t try_submit(core::BatchJob job, Callback on_complete);

  /// Best-effort cancel.  Parked jobs resolve as cancelled right away;
  /// dispatched jobs get a cancel op forwarded to their worker (succeeds
  /// only while still queued there).  False for unknown/resolved ids.
  bool cancel(std::uint64_t id);

  /// Blocks until every submitted job resolved.
  void drain();

  /// drain with a budget; on timeout parked jobs resolve as cancelled and
  /// workers are asked to cancel what is still queued, then waits (again
  /// bounded) for the in-flight remainder.  True iff everything resolved
  /// without forced cancellation.
  bool drain_for(std::chrono::milliseconds timeout);

  /// drain_for(grace), then closes the fleet down: worker sockets close
  /// (workers see EOF, drain their schedulers and exit), children are
  /// reaped — SIGKILL for any still alive after `grace` — and reader
  /// threads join.  Idempotent.
  void shutdown(std::chrono::milliseconds grace);

  /// Per-worker scheduler counters fetched over the wire (nullopt when the
  /// worker is dead or the reply missed `timeout`).  Keys match the
  /// worker's stats event: jobs, succeeded, disk_hits, cones_extracted...
  std::optional<WireObject> worker_stats(unsigned worker,
                                         std::chrono::milliseconds timeout);

  CoordinatorStats stats() const;

  /// Live worker pids, 0 for dead slots.  For tests and the server's
  /// startup banner (CI kills one of these mid-run).
  std::vector<pid_t> worker_pids() const;

  unsigned workers() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace gfre::serve
