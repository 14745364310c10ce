#include "core/scheduler.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <list>
#include <map>
#include <mutex>
#include <ostream>
#include <thread>
#include <unordered_map>

#include "core/content_walk.hpp"
#include "core/parallel_extract.hpp"
#include "core/result_cache.hpp"
#include "core/rewriter.hpp"
#include "frontend/cell_library.hpp"
#include "frontend/frontend.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/rss.hpp"
#include "util/timer.hpp"

namespace gfre::core {

namespace {

// -- Content hashing --------------------------------------------------------

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
// Second, independent multiply-xor stream (Murmur64's odd constant) so the
// cache key is effectively 128 bits: an *accidental* simultaneous
// collision is ~2^-128, i.e. never.  Neither stream is cryptographic: a
// determined adversary can construct a colliding pair, so do not trust
// this memo key across tenants.  A service whose clients do not trust
// each other must key its memo with a cryptographic hash instead.
constexpr std::uint64_t kAltOffset = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kAltPrime = 0xc6a4a7935bd1e995ull;

/// Two independent 64-bit accumulators fed in one pass.
struct Mixer {
  std::uint64_t a = kFnvOffset;
  std::uint64_t b = kAltOffset;

  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      a = (a ^ p[i]) * kFnvPrime;
      b = (b ^ p[i]) * kAltPrime;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, 8); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

/// 128-bit memoization key.  A job that has no key (memoization off, or
/// failure before hashing) carries std::optional<CacheKey> == nullopt —
/// there is deliberately no in-band "empty" sentinel, because the all-zero
/// bit pattern is a legitimate (if astronomically unlikely) hash value and
/// must memoize like any other.
struct CacheKey {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  bool operator==(const CacheKey&) const = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const {
    return static_cast<std::size_t>(k.a ^ (k.b * kFnvPrime));
  }
};


std::string read_file_bytes(const std::string& path) {
  std::string bytes;
  if (!util::read_file_to_string(path, &bytes)) {
    throw Error("cannot open netlist file '" + path + "'");
  }
  return bytes;
}

/// Parses netlist text, dispatching on CONTENT (frontend::sniff_format)
/// rather than the path's extension.  The batch engine hashes and parses
/// the SAME byte buffer, so a file rewritten mid-batch can never cache a
/// report under the wrong content hash.
nl::Netlist parse_netlist_text(
    const std::string& text, const std::string& path,
    std::shared_ptr<const frontend::CellLibrary> library = nullptr) {
  frontend::FrontendOptions options;
  options.library = std::move(library);
  return frontend::parse_netlist(text, path, options);
}

template <typename Container, typename T>
void erase_value(Container& container, const T& value) {
  const auto it = std::find(container.begin(), container.end(), value);
  if (it != container.end()) container.erase(it);
}

/// Diagnosis for a job whose deadline elapsed before any of it executed.
/// Fixed text — the report must not depend on how late the reaper fired.
constexpr const char* kQueuedDeadlineDiagnosis =
    "deadline exceeded: the job's wall-clock budget elapsed before "
    "extraction began";

/// Rejection diagnosis for try_submit on a full bounded queue.
constexpr const char* kRejectedDiagnosis =
    "rejected: the scheduler's bounded submission queue is full";

}  // namespace

NetlistHash netlist_content_hash(const nl::Netlist& netlist) {
  Mixer mix;
  walk_netlist_content(mix, netlist);
  return NetlistHash{mix.a, mix.b};
}

std::ostream& operator<<(std::ostream& os, const NetlistHash& hash) {
  const auto flags = os.flags();
  os << std::hex << hash.a << ":" << hash.b;
  os.flags(flags);
  return os;
}

nl::Netlist load_netlist_file(const std::string& path,
                              const std::string& library_path) {
  std::shared_ptr<const frontend::CellLibrary> library;
  if (!library_path.empty()) {
    library = std::make_shared<const frontend::CellLibrary>(
        frontend::load_cell_library_file(library_path));
  }
  return parse_netlist_text(read_file_bytes(path), path, std::move(library));
}

// ---------------------------------------------------------------------------
// BatchScheduler::Impl
//
// Per-job state machine:  Queued -> SettingUp -> Extracting (one task per
// output cone) -> ReadyToFinalize -> Finalizing -> Done, with shortcuts to
// Done for cache hits / load errors / port failures / cancellation, and
// AwaitingPrimary for duplicates of an in-flight job.  `threads` worker
// threads run Impl::worker for the scheduler's whole lifetime; all
// bookkeeping is under one mutex (tasks are coarse — a whole cone rewrite
// or a whole file parse — so the lock is cold).
//
// Job lifetime: a Job lives in jobs_ from submit until *delivery* (callback
// run + promise fulfilled), then is erased — a long-lived scheduler does
// not accumulate per-job state.  A worker only holds a raw Job* while that
// job has a task mid-run, and a job with a running task is never erased
// (only Done jobs are, and every transition to Done happens either in the
// job's own task or for jobs with no task at all), so the pointer cannot
// dangle.
// ---------------------------------------------------------------------------

struct BatchScheduler::Impl {
  /// A cone's failure as a value, caught on the worker that ran the cone
  /// so no exception object crosses threads.  `fatal` is set only for a
  /// non-Error exception (engine bug / OOM), which the job's future must
  /// still carry.
  struct ConeFailure {
    std::size_t cone = 0;
    bool deadline_exceeded = false;
    std::string message;
    std::exception_ptr fatal;
  };

  struct Job {
    JobHandle handle = 0;
    BatchJob spec;
    Callback callback;
    std::promise<BatchJobResult> promise;

    enum class State {
      Queued,
      SettingUp,
      Extracting,
      AwaitingPrimary,  ///< duplicate of an in-flight job; primary resolves it
      ReadyToFinalize,
      Finalizing,
      Done,
    } state = State::Queued;

    // Setup products.  `net` shares spec.netlist (in-memory job) or owns
    // the parsed file (file job); released on delivery to bound live memory.
    std::shared_ptr<const nl::Netlist> net;
    std::optional<nl::MultiplierPorts> ports;
    ExtractionResult extraction;
    double extract_started = 0.0;

    std::size_t cones_claimed = 0;
    std::size_t cones_done = 0;
    /// Lowest-index cone failure.  Lowest index — not first to complete —
    /// because a single worker claims cones in order and stops at the
    /// first throwing one, and reports must be identical at any worker
    /// count and under any interleaving.
    std::optional<ConeFailure> abort;

    /// Absolute deadline (spec.deadline_ms past submission); nullopt = no
    /// budget.  While the job is Queued/AwaitingPrimary the reaper owns
    /// enforcement (deadline_it points into deadlines_); once extraction
    /// starts, the substitution-checkpoint soft abort does.
    std::optional<std::chrono::steady_clock::time_point> deadline;
    bool deadline_registered = false;
    std::multimap<std::chrono::steady_clock::time_point, Job*>::iterator
        deadline_it;

    std::optional<CacheKey> key;
    /// SHA-256 persistent-cache key (64 hex chars; empty = no disk cache
    /// attached or keying never happened).
    std::string disk_key;
    bool inflight_registered = false;
    Job* primary = nullptr;       ///< set while AwaitingPrimary
    std::vector<Job*> followers;  ///< duplicates parked on this job

    /// Non-Error exception that escaped a task runner (engine bug / OOM):
    /// delivered through the promise instead of a result.
    std::exception_ptr fatal;

    BatchJobResult result;
  };

  struct Task {
    enum class Kind { None, Setup, Cone, Finalize } kind = Kind::None;
    Job* job = nullptr;
    std::size_t cone = 0;
  };

  /// LRU order for the bounded memo: front = most recently used.  cache_
  /// indexes into this list, so lookups stay O(1) and eviction O(1).
  using MemoList = std::list<std::pair<CacheKey, CachedOutcome>>;

  static constexpr std::size_t kPriorityClasses = 3;
  static std::size_t class_of(const Job& job) {
    return static_cast<std::size_t>(job.spec.priority);
  }

  explicit Impl(const BatchOptions& options) : options_(options) {
    GFRE_ASSERT(options_.threads >= 1,
                "batch scheduler needs at least one worker");
    last_job_.assign(options_.threads, JobHandle{0});
    workers_.reserve(options_.threads);
    for (unsigned wid = 0; wid < options_.threads; ++wid) {
      workers_.emplace_back([this, wid] { worker(wid); });
    }
    reaper_ = std::thread([this] { reaper(); });
  }

  ~Impl() {
    std::vector<Job*> done;
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutting_down_ = true;
      // Revoke everything that has not started.  Jobs past Queued (in
      // flight, or parked behind an in-flight primary) run to completion —
      // their futures resolve with real results below.
      for (auto& queue : setup_queues_) {
        for (Job* job : queue) {
          job->result.cancelled = true;
          finish_locked(*job, done);
        }
        queue.clear();
      }
    }
    // Submitters blocked on admission resolve their jobs as cancelled.
    cv_room_.notify_all();
    deliver(done);
    retire(done);
    drain();
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    cv_reaper_.notify_all();
    cv_room_.notify_all();
    for (auto& w : workers_) w.join();
    reaper_.join();
  }

  Submission submit(BatchJob spec, Callback on_complete) {
    return submit_impl(std::move(spec), std::move(on_complete),
                       /*blocking=*/true);
  }

  Submission try_submit(BatchJob spec, Callback on_complete) {
    return submit_impl(std::move(spec), std::move(on_complete),
                       /*blocking=*/false);
  }

  Submission submit_impl(BatchJob spec, Callback on_complete, bool blocking) {
    // The deadline clock starts at arrival: time spent blocked on
    // admission is the job's problem, not free.
    const auto arrival = std::chrono::steady_clock::now();
    auto owned = std::make_unique<Job>();
    Job* job = owned.get();
    job->spec = std::move(spec);
    if (job->spec.name.empty()) {
      job->spec.name = !job->spec.path.empty()
                           ? job->spec.path
                           : (job->spec.netlist ? job->spec.netlist->name()
                                                : "job");
    }
    job->callback = std::move(on_complete);
    Submission out;
    out.result = job->promise.get_future();
    std::vector<Job*> done;
    bool rejected = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      const std::size_t cap = options_.max_queued;
      if (cap != 0 && !shutting_down_ && unresolved_ >= cap) {
        if (blocking) {
          cv_room_.wait(lock, [&] {
            return shutting_down_ || unresolved_ < cap;
          });
        } else {
          ++stats_.jobs;
          ++stats_.rejected;
          rejected = true;
        }
      }
      if (!rejected) {
        job->handle = next_handle_++;
        out.handle = job->handle;
        ++stats_.jobs;
        ++unresolved_;
        stats_.queue_peak = std::max(stats_.queue_peak, unresolved_);
        jobs_.emplace(job->handle, std::move(owned));
        if (shutting_down_) {
          // A submission racing teardown resolves like any other queued
          // job at teardown: cancelled, on the submitting thread.
          job->result.cancelled = true;
          finish_locked(*job, done);
        } else {
          if (job->spec.deadline_ms > 0) {
            job->deadline =
                arrival + std::chrono::milliseconds(job->spec.deadline_ms);
            job->deadline_it = deadlines_.emplace(*job->deadline, job);
            job->deadline_registered = true;
            // Wake the reaper only when this deadline becomes the new
            // earliest — it sleeps until exactly deadlines_.begin(), so a
            // registration behind that point changes nothing it would
            // act on, and a submission burst must not turn the reaper
            // into a busy loop of spurious wakes.
            if (job->deadline_it == deadlines_.begin())
              cv_reaper_.notify_one();
          }
          setup_queues_[class_of(*job)].push_back(job);
          cv_work_.notify_one();
        }
      }
    }
    if (rejected) {
      // The rejected ticket resolves on the submitting thread, before
      // try_submit returns: handle stays 0, the callback runs, the future
      // is already fulfilled.  `owned` was never handed to jobs_.
      job->result.name = job->spec.name;
      job->result.path = job->spec.path;
      job->result.rejected = true;
      job->result.error = kRejectedDiagnosis;
      job->result.seconds = clock_.seconds();
      if (job->callback) {
        try {
          job->callback(job->result);
        } catch (...) {
        }
      }
      job->promise.set_value(std::move(job->result));
      return out;
    }
    if (!done.empty()) {
      deliver(done);
      retire(done);
    }
    return out;
  }

  bool cancel(JobHandle handle) {
    std::vector<Job*> done;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = jobs_.find(handle);
      if (it == jobs_.end()) return false;
      Job& job = *it->second;
      if (job.state == Job::State::Queued) {
        erase_value(setup_queues_[class_of(job)], &job);
      } else if (job.state == Job::State::AwaitingPrimary) {
        erase_value(job.primary->followers, &job);
        job.primary = nullptr;
      } else {
        // Already running (or finished): the job's own resolution stands.
        return false;
      }
      job.result.cancelled = true;
      finish_locked(job, done);
    }
    // By the time cancel() returns true the callback has run and the
    // future is ready — the caller can rely on "nothing will ever run".
    deliver(done);
    retire(done);
    return true;
  }

  void drain() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_idle_.wait(lock, [&] { return unresolved_ == 0; });
  }

  bool wait_idle_for(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_idle_.wait_for(lock, timeout,
                             [&] { return unresolved_ == 0; });
  }

  bool drain_for(std::chrono::milliseconds timeout) {
    std::vector<Job*> done;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (cv_idle_.wait_for(lock, timeout, [&] { return unresolved_ == 0; })) {
        return true;
      }
      // Budget spent: convert everything that has not started into a
      // terminal outcome — expired-deadline jobs resolve as
      // deadline_exceeded, the rest as cancelled — then wait for the
      // in-flight remainder (including duplicates parked behind running
      // primaries, which those primaries resolve).
      const auto now = std::chrono::steady_clock::now();
      for (auto& queue : setup_queues_) {
        for (Job* job : queue) {
          if (job->deadline.has_value() && now > *job->deadline) {
            job->result.deadline_exceeded = true;
            job->result.error = kQueuedDeadlineDiagnosis;
          } else {
            job->result.cancelled = true;
          }
          finish_locked(*job, done);
        }
        queue.clear();
      }
    }
    deliver(done);
    retire(done);
    drain();
    return false;
  }

  BatchStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  void worker(std::size_t wid) {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      const Task task = find_work(wid);
      if (task.kind == Task::Kind::None) {
        if (stop_) return;
        cv_work_.wait(lock);
        continue;
      }
      lock.unlock();
      std::vector<Job*> done;
      try {
        switch (task.kind) {
          case Task::Kind::Setup: run_setup(*task.job, done); break;
          case Task::Kind::Cone: run_cone(*task.job, task.cone, done); break;
          case Task::Kind::Finalize: run_finalize(*task.job, done); break;
          case Task::Kind::None: break;
        }
      } catch (...) {
        // Per-job failures are converted to results inside the task
        // runners; anything reaching here is an engine bug (or OOM).
        // Deliver it through the job's future instead of killing the
        // worker — a long-lived scheduler must survive its own bugs.
        std::lock_guard<std::mutex> guard(mu_);
        fail_locked(*task.job, std::current_exception(), done);
      }
      deliver(done);
      lock.lock();
      retire_locked(done);
    }
  }

  /// Deadline enforcement for jobs that have not started: one background
  /// thread sleeps until the earliest registered deadline and expires
  /// whatever is still Queued or AwaitingPrimary at that instant.  Jobs
  /// already extracting are left to the substitution-checkpoint soft
  /// abort — a cone mid-rewrite cannot be revoked from outside without
  /// tearing state, and the checkpoint bounds the overshoot to one
  /// gate-ANF expansion.
  void reaper() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (stop_) return;
      if (deadlines_.empty()) {
        cv_reaper_.wait(lock);
        continue;
      }
      const auto next = deadlines_.begin()->first;
      if (std::chrono::steady_clock::now() < next) {
        // Re-evaluate after the wait: a nearer deadline may have been
        // registered, or teardown may have started.
        cv_reaper_.wait_until(lock, next);
        continue;
      }
      std::vector<Job*> done;
      const auto now = std::chrono::steady_clock::now();
      while (!deadlines_.empty() && deadlines_.begin()->first <= now) {
        Job* job = deadlines_.begin()->second;
        deadlines_.erase(deadlines_.begin());
        job->deadline_registered = false;
        if (job->state == Job::State::Queued) {
          erase_value(setup_queues_[class_of(*job)], job);
          expire_locked(*job, done);
        } else if (job->state == Job::State::AwaitingPrimary) {
          erase_value(job->primary->followers, job);
          job->primary = nullptr;
          expire_locked(*job, done);
        }
        // Any other state: extraction owns enforcement from here on.
      }
      if (!done.empty()) {
        lock.unlock();
        deliver(done);
        lock.lock();
        retire_locked(done);
      }
    }
  }

  /// Resolves a not-yet-started job as deadline_exceeded.  Requires mu_;
  /// the caller has already removed the job from its claim structure and
  /// from deadlines_.
  void expire_locked(Job& job, std::vector<Job*>& done) {
    job.result.deadline_exceeded = true;
    job.result.error = kQueuedDeadlineDiagnosis;
    finish_locked(job, done);
  }

  std::size_t cones_available(const Job& job) const {
    if (job.state != Job::State::Extracting || job.abort) return 0;
    return job.extraction.anfs.size() - job.cones_claimed;
  }

  Task claim_cone(Job* job, std::size_t wid) {
    Task task;
    task.kind = Task::Kind::Cone;
    task.job = job;
    task.cone = job->cones_claimed++;
    if (last_job_[wid] != job->handle) {
      if (last_job_[wid] != JobHandle{0}) ++stats_.cone_steals;
      last_job_[wid] = job->handle;
    }
    return task;
  }

  Task claim_setup(std::size_t cls, std::size_t wid) {
    Job* job = setup_queues_[cls].front();
    setup_queues_[cls].pop_front();
    job->state = Job::State::SettingUp;
    // The worker adopts the job it opens — claiming its cones next is
    // affinity, not a steal.
    last_job_[wid] = job->handle;
    Task task;
    task.kind = Task::Kind::Setup;
    task.job = job;
    return task;
  }

  /// Claims the next unit of work under mu_.  Finished jobs retire first
  /// (unblocks duplicates); after that, priority classes are served
  /// strictly in order — all claimable High work before any Normal before
  /// any Low, FIFO within a class.  Within a class a worker stays on its
  /// current job (the netlist is cache-hot), opens a new job in
  /// submission order, and only then steals a cone from the deepest
  /// same-class backlog — so only the rare steal path (own job dry AND
  /// nothing left to open) scans the in-flight jobs.
  Task find_work(std::size_t wid) {
    if (!finalize_ready_.empty()) {
      Job* job = finalize_ready_.back();
      finalize_ready_.pop_back();
      job->state = Job::State::Finalizing;
      Task task;
      task.kind = Task::Kind::Finalize;
      task.job = job;
      return task;
    }
    for (std::size_t cls = 0; cls < kPriorityClasses; ++cls) {
      if (last_job_[wid] != JobHandle{0}) {
        const auto it = jobs_.find(last_job_[wid]);
        if (it != jobs_.end() && class_of(*it->second) == cls &&
            cones_available(*it->second) > 0) {
          return claim_cone(it->second.get(), wid);
        }
      }
      if (!setup_queues_[cls].empty()) return claim_setup(cls, wid);
      Job* best = nullptr;
      std::size_t best_backlog = 0;
      for (Job* job : extracting_) {
        if (class_of(*job) != cls) continue;
        const std::size_t backlog = cones_available(*job);
        if (backlog > best_backlog) {
          best = job;
          best_backlog = backlog;
        }
      }
      if (best != nullptr) return claim_cone(best, wid);
    }
    return Task{};
  }

  void run_setup(Job& job, std::vector<Job*>& done) {
    // File jobs are read ONCE: the content hash and the parse below both
    // see these bytes, so a file rewritten mid-batch cannot cache a
    // report under the wrong hash — and duplicates dedup before paying
    // for a parse.
    std::string text;
    if (!job.spec.netlist) {
      try {
        text = read_file_bytes(job.spec.path);
      } catch (const Error& e) {
        complete_with_error(job, e.what(), done);
        return;
      }
    }
    // The cell library (file jobs only — in-memory netlists are already
    // parsed, so a library cannot change them) is read up front: its
    // BYTES belong in both cache keys, exactly like the netlist bytes.
    const bool want_library =
        !job.spec.netlist && !job.spec.options.library.empty();
    std::string library_text;
    if (want_library &&
        !util::read_file_to_string(job.spec.options.library,
                                   &library_text)) {
      complete_with_error(job,
                          "cannot open cell library '" +
                              job.spec.options.library + "'",
                          done);
      return;
    }

    if (options_.memoize) {
      Mixer mix;
      if (job.spec.netlist) {
        walk_netlist_content(mix, *job.spec.netlist);
        mix.u64(1);  // domain tag: structural
      } else {
        mix.bytes(text.data(), text.size());
        mix.u64(2);  // domain tag: file bytes
        if (want_library) {
          mix.bytes(library_text.data(), library_text.size());
          mix.u64(3);  // domain tag: cell-library bytes
        }
      }
      walk_report_options(mix, job.spec.options);
      const CacheKey key{mix.a, mix.b};
      {
        std::lock_guard<std::mutex> lock(mu_);
        job.key = key;
        if (const CachedOutcome* cached = memo_find_locked(key)) {
          job.result.report = cached->report;
          job.result.error = cached->error;
          job.result.cache_hit = true;
          ++stats_.cache_hits;
          finish_locked(job, done);
          return;
        }
        const auto inflight = inflight_.find(key);
        if (inflight != inflight_.end()) {
          job.primary = inflight->second;
          job.primary->followers.push_back(&job);
          job.state = Job::State::AwaitingPrimary;
          return;
        }
        inflight_.emplace(key, &job);
        job.inflight_registered = true;
      }
      // In-memory miss, and this task now owns the in-flight slot for the
      // key: only NOW derive the cryptographic persistent key (SHA-256 of
      // the full content — deliberately lazy, so the hot duplicate path
      // above never pays more than the cheap 128-bit mix) and consult the
      // disk store (file I/O, so outside mu_).  A hit replays the cold
      // run's outcome verbatim, seeds the in-memory memo and resolves any
      // followers that parked meanwhile — the whole job costs one read,
      // zero extractions.
      if (options_.result_cache) {
        job.disk_key =
            job.spec.netlist
                ? ResultCache::key_for_netlist(*job.spec.netlist,
                                               job.spec.options)
                : ResultCache::key_for_file(text, job.spec.options,
                                            library_text);
        if (auto cached = options_.result_cache->lookup(job.disk_key)) {
          job.result.report = std::move(cached->report);
          job.result.error = std::move(cached->error);
          job.result.cache_hit = true;
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.disk_hits;
          memo_insert_locked(*job.key, CachedOutcome{job.result.report,
                                                     job.result.error});
          finish_locked(job, done);
          return;
        }
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.disk_misses;
      }
    }

    try {
      if (job.spec.netlist) {
        job.net = job.spec.netlist;
      } else {
        std::shared_ptr<const frontend::CellLibrary> library;
        if (want_library) {
          library = std::make_shared<const frontend::CellLibrary>(
              frontend::parse_cell_library(library_text,
                                           job.spec.options.library));
        }
        job.net = std::make_shared<const nl::Netlist>(
            parse_netlist_text(text, job.spec.path, std::move(library)));
      }
    } catch (const Error& e) {
      // Parse failures after inflight registration still resolve any
      // followers (complete_with_error caches the error and unregisters).
      complete_with_error(job, e.what(), done);
      return;
    }

    FlowReport port_failure;
    job.ports = resolve_flow_ports(*job.net, job.spec.options, &port_failure);
    if (!job.ports.has_value()) {
      complete_with_report(job, std::move(port_failure), done);
      return;
    }

    const std::size_t bits = job.ports->z.bits.size();
    job.extraction.anfs.resize(bits);
    job.extraction.per_bit.resize(bits);
    job.extraction.threads = options_.threads;

    std::lock_guard<std::mutex> lock(mu_);
    job.extract_started = clock_.seconds();
    // A multiplier interface always has >= 1 output bit (m >= 1), so the
    // job cannot be born ReadyToFinalize here.
    job.state = Job::State::Extracting;
    extracting_.push_back(&job);
    cv_work_.notify_all();
  }

  void run_cone(Job& job, std::size_t cone, std::vector<Job*>& done) {
    RewriteOptions options;
    options.strategy = job.spec.options.strategy;
    options.max_terms = job.spec.options.max_terms;
    // Soft-abort plumbing: the rewriter checks this at the same
    // between-substitutions checkpoint as max_terms.
    options.deadline = job.deadline;
    std::optional<ConeFailure> failure;
    try {
      // Each slot is claimed by exactly one worker — no lock needed for
      // the write.
      job.extraction.anfs[cone] =
          extract_output_anf(*job.net, job.ports->z.bits[cone], options,
                             &job.extraction.per_bit[cone]);
    } catch (const DeadlineExceeded& e) {
      // Resource budget, not a property of the netlist: run_finalize
      // flags the result so completion skips both caches.
      failure = ConeFailure{cone, true, e.what(), nullptr};
    } catch (const Error& e) {
      failure = ConeFailure{cone, false, e.what(), nullptr};
    } catch (...) {
      failure = ConeFailure{cone, false, "", std::current_exception()};
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.cones_extracted;
    ++job.cones_done;
    if (failure && (!job.abort || cone < job.abort->cone)) {
      job.abort = std::move(failure);
    }
    // On abort, cones_available() stops further claims; the job finalizes
    // once the already-claimed cones drain.
    if (job.cones_done == job.cones_claimed &&
        (job.abort || job.cones_claimed == job.extraction.anfs.size())) {
      job.state = Job::State::ReadyToFinalize;
      erase_value(extracting_, &job);
      finalize_ready_.push_back(&job);
      cv_work_.notify_one();
    }
    (void)done;
  }

  void run_finalize(Job& job, std::vector<Job*>& done) {
    FlowReport report;
    if (job.abort) {
      if (job.abort->fatal) {
        // A non-Error escaped a cone task: engine bug, not a diagnosis.
        std::lock_guard<std::mutex> lock(mu_);
        fail_locked(job, job.abort->fatal, done);
        return;
      }
      // The fixed message shapes a report that is bit-identical at any
      // thread count.
      job.result.deadline_exceeded = job.abort->deadline_exceeded;
      report =
          extraction_failure_report(*job.net, *job.ports, job.abort->message);
    } else {
      {
        std::lock_guard<std::mutex> lock(mu_);
        job.extraction.wall_seconds = clock_.seconds() - job.extract_started;
      }
      for (const auto& stats : job.extraction.per_bit) {
        job.extraction.total_peak_terms += stats.peak_terms;
      }
      // An analysis Error is this job's diagnosed failure, never a dead
      // worker.
      try {
        report = analyze_extraction(*job.net, *job.ports,
                                    std::move(job.extraction),
                                    job.spec.options);
      } catch (const Error& e) {
        report = extraction_failure_report(*job.net, *job.ports, e.what());
      }
    }
    report.rss_peak_bytes = peak_rss_bytes();
    report.rss_after_bytes = current_rss_bytes();
    complete_with_report(job, std::move(report), done);
  }

  void complete_with_report(Job& job, FlowReport&& report,
                            std::vector<Job*>& done) {
    job.result.report = std::move(report);
    // Deadline aborts are a statement about this run's wall-clock budget,
    // not about the netlist — caching one (memo or disk) would replay a
    // "failure" for content that extracts fine under a saner budget.
    const bool cacheable = !job.result.deadline_exceeded;
    // Disk write-back happens before mu_ (serialization + file I/O must
    // not stall other workers); a failed store is invisible to the job.
    const bool stored = cacheable && write_back(job, job.result.report, "");
    std::lock_guard<std::mutex> lock(mu_);
    if (stored) ++stats_.disk_stores;
    if (cacheable && job.key.has_value()) {
      memo_insert_locked(*job.key, CachedOutcome{job.result.report, ""});
    }
    finish_locked(job, done);
  }

  void complete_with_error(Job& job, const std::string& error,
                           std::vector<Job*>& done) {
    job.result.error = error;
    // Parse/port errors are as deterministic in the netlist bytes as
    // reports are, so they persist too — a warm run replays the same
    // diagnosed failure without re-reading the broken design.
    const bool stored = write_back(job, FlowReport{}, error);
    std::lock_guard<std::mutex> lock(mu_);
    if (stored) ++stats_.disk_stores;
    if (job.key.has_value()) {
      memo_insert_locked(*job.key, CachedOutcome{FlowReport{}, error});
    }
    finish_locked(job, done);
  }

  /// O(1) memo lookup; a hit is refreshed to the LRU front.  Requires mu_.
  const CachedOutcome* memo_find_locked(const CacheKey& key) {
    const auto it = cache_.find(key);
    if (it == cache_.end()) return nullptr;
    memo_lru_.splice(memo_lru_.begin(), memo_lru_, it->second);
    return &it->second->second;
  }

  /// Inserts (or refreshes) a memo entry and enforces the
  /// memo_max_entries LRU bound.  An evicted key is not a lost result —
  /// the disk layer is consulted on the next miss.  Requires mu_.
  void memo_insert_locked(const CacheKey& key, CachedOutcome entry) {
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      it->second->second = std::move(entry);
      memo_lru_.splice(memo_lru_.begin(), memo_lru_, it->second);
      return;
    }
    memo_lru_.emplace_front(key, std::move(entry));
    cache_.emplace(key, memo_lru_.begin());
    if (options_.memo_max_entries != 0 &&
        cache_.size() > options_.memo_max_entries) {
      cache_.erase(memo_lru_.back().first);
      memo_lru_.pop_back();
      ++stats_.memo_evictions;
    }
  }

  /// Persists a completed outcome under the job's SHA-256 key, if a disk
  /// cache is attached and this job was keyed.  Never throws, never
  /// blocks on mu_.
  bool write_back(const Job& job, const FlowReport& report,
                  const std::string& error) {
    if (!options_.result_cache || job.disk_key.empty()) return false;
    return options_.result_cache->store(job.disk_key, report, error);
  }

  /// Backstop for exceptions that escape a task runner.  Requires mu_.
  void fail_locked(Job& job, std::exception_ptr error,
                   std::vector<Job*>& done) {
    if (job.state == Job::State::Done) return;  // result already stands
    if (job.state == Job::State::Extracting &&
        job.cones_done < job.cones_claimed) {
      // Other workers still run this job's cones — poison it and let the
      // last cone route it to run_finalize, which delivers the exception.
      if (!job.abort) job.abort = ConeFailure{0, false, "", error};
      return;
    }
    // No task references the job anymore; scrub it from whichever claim
    // structure holds it and resolve its future exceptionally.
    if (job.state == Job::State::Queued) {
      erase_value(setup_queues_[class_of(job)], &job);
    }
    if (job.state == Job::State::Extracting) erase_value(extracting_, &job);
    if (job.state == Job::State::ReadyToFinalize) {
      erase_value(finalize_ready_, &job);
    }
    job.fatal = error;
    // The callback still fires for engine-fatal jobs (the "exactly once"
    // contract is what serving tiers count completions with), so give it
    // a legible result while the future carries the real exception.
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      job.result.error = std::string("engine failure: ") + e.what();
    } catch (...) {
      job.result.error = "engine failure: unknown exception";
    }
    finish_locked(job, done);
  }

  void count_locked(const Job& job) {
    if (job.fatal) {
      ++stats_.failed;
    } else if (job.result.deadline_exceeded) {
      // Both flavors — expired while queued (error set) and soft-aborted
      // mid-extraction (diagnosed report) — land here, disjoint from
      // cancelled/load_errors/failed.
      ++stats_.deadline_exceeded;
    } else if (job.result.cancelled) {
      ++stats_.cancelled;
    } else if (!job.result.error.empty()) {
      ++stats_.load_errors;
    } else if (job.result.report.success) {
      ++stats_.succeeded;
    } else {
      ++stats_.failed;
    }
  }

  /// Marks job Done, resolves its duplicates from the freshly cached
  /// result and queues everything for delivery (netlist release, callback
  /// and promise, which the caller performs WITHOUT the lock).  Requires
  /// mu_.
  void finish_locked(Job& job, std::vector<Job*>& done) {
    job.result.name = job.spec.name;
    job.result.path = job.spec.path;
    job.result.ok = !job.result.cancelled && !job.result.deadline_exceeded &&
                    job.result.error.empty() && job.result.report.success;
    job.result.seconds = clock_.seconds();
    job.state = Job::State::Done;
    count_locked(job);
    if (job.deadline_registered) {
      deadlines_.erase(job.deadline_it);
      job.deadline_registered = false;
    }
    if (job.inflight_registered) {
      // Only this job's own registration: a job that failed before keying
      // never registered and must not evict someone else's entry.
      const auto it = inflight_.find(*job.key);
      if (it != inflight_.end() && it->second == &job) inflight_.erase(it);
      job.inflight_registered = false;
    }
    done.push_back(&job);
    for (Job* dup : job.followers) {
      dup->result.report = job.result.report;
      dup->result.error = job.result.error;
      // A deadline abort is the PRIMARY's budget verdict; followers
      // inherit the diagnosed outcome (they attached to that extraction)
      // but it is not a cache hit — nothing was cached.
      dup->result.deadline_exceeded = job.result.deadline_exceeded;
      if (!job.result.deadline_exceeded) {
        dup->result.cache_hit = true;
        ++stats_.cache_hits;
      }
      dup->result.name = dup->spec.name;
      dup->result.path = dup->spec.path;
      dup->result.ok = !dup->result.deadline_exceeded &&
                       dup->result.error.empty() &&
                       dup->result.report.success;
      dup->result.seconds = clock_.seconds();
      dup->fatal = job.fatal;
      dup->primary = nullptr;
      dup->state = Job::State::Done;
      count_locked(*dup);
      if (dup->deadline_registered) {
        deadlines_.erase(dup->deadline_it);
        dup->deadline_registered = false;
      }
      done.push_back(dup);
    }
    job.followers.clear();
  }

  /// Frees finished jobs' netlists, then runs callbacks and fulfills
  /// promises.  MUST be called without mu_: callbacks may re-enter
  /// submit()/cancel()/stats(), and promise fulfillment wakes arbitrary
  /// waiters.
  void deliver(const std::vector<Job*>& done) {
    // Tearing down a crypto-scale netlist takes tens of milliseconds: here
    // it stalls no other worker's claims, and it still ends before the
    // callback, so a closed-loop submitter never holds two live netlists.
    for (Job* job : done) {
      job->net.reset();
      job->spec.netlist.reset();
    }
    for (Job* job : done) {
      if (job->callback) {
        try {
          job->callback(job->result);
        } catch (...) {
          // The callback contract forbids throwing; a violation must not
          // take down a worker (or the canceller) mid-delivery.
        }
      }
      if (job->fatal) {
        // The callback above saw a result with `error` filled in; the
        // future carries the actual exception.
        job->promise.set_exception(job->fatal);
      } else {
        job->promise.set_value(std::move(job->result));
      }
    }
  }

  /// Erases delivered jobs and publishes quiescence.  Requires mu_.
  void retire_locked(const std::vector<Job*>& done) {
    for (Job* job : done) jobs_.erase(job->handle);
    unresolved_ -= done.size();
    if (unresolved_ == 0) cv_idle_.notify_all();
    // Resolved jobs free admission slots for blocked submitters.
    if (options_.max_queued != 0) cv_room_.notify_all();
  }

  void retire(const std::vector<Job*>& done) {
    if (done.empty()) return;
    std::lock_guard<std::mutex> lock(mu_);
    retire_locked(done);
  }

 public:
  BatchOptions options_;
  Timer clock_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;  ///< workers wait for claimable tasks
  std::condition_variable cv_idle_;  ///< drain()/teardown wait for quiescence
  std::condition_variable cv_room_;  ///< blocking submit waits for a slot
  std::condition_variable cv_reaper_;  ///< reaper waits for deadlines
  std::unordered_map<JobHandle, std::unique_ptr<Job>> jobs_;
  /// Queued jobs, one FIFO per priority class (index = JobPriority).
  std::array<std::deque<Job*>, kPriorityClasses> setup_queues_;
  std::vector<Job*> extracting_;     ///< steal-scan candidates, start order
  std::vector<Job*> finalize_ready_; ///< awaiting a Finalize claim
  std::vector<JobHandle> last_job_;  ///< per-worker affinity
  std::unordered_map<CacheKey, Job*, CacheKeyHash> inflight_;
  /// Bounded memo: cache_ indexes memo_lru_ (front = most recent).
  MemoList memo_lru_;
  std::unordered_map<CacheKey, MemoList::iterator, CacheKeyHash> cache_;
  /// Deadline registrations for not-yet-started jobs, earliest first.
  std::multimap<std::chrono::steady_clock::time_point, Job*> deadlines_;
  BatchStats stats_;
  JobHandle next_handle_ = 1;
  std::size_t unresolved_ = 0;  ///< submitted minus delivered
  bool shutting_down_ = false;  ///< teardown started: new submits cancel
  bool stop_ = false;           ///< workers and the reaper may exit
  std::vector<std::thread> workers_;
  std::thread reaper_;
};

BatchScheduler::BatchScheduler(const BatchOptions& options)
    : impl_(std::make_unique<Impl>(options)) {}

BatchScheduler::~BatchScheduler() = default;

BatchScheduler::Submission BatchScheduler::submit(BatchJob job,
                                                  Callback on_complete) {
  return impl_->submit(std::move(job), std::move(on_complete));
}

BatchScheduler::Submission BatchScheduler::try_submit(BatchJob job,
                                                      Callback on_complete) {
  return impl_->try_submit(std::move(job), std::move(on_complete));
}

bool BatchScheduler::cancel(JobHandle handle) {
  return impl_->cancel(handle);
}

void BatchScheduler::drain() { impl_->drain(); }

bool BatchScheduler::drain_for(std::chrono::milliseconds timeout) {
  return impl_->drain_for(timeout);
}

bool BatchScheduler::wait_idle_for(std::chrono::milliseconds timeout) {
  return impl_->wait_idle_for(timeout);
}

BatchStats BatchScheduler::stats() const { return impl_->stats(); }

unsigned BatchScheduler::threads() const { return impl_->options_.threads; }

}  // namespace gfre::core
