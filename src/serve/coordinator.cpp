#include "serve/coordinator.hpp"

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string_view>
#include <thread>
#include <utility>

#include "core/report_json.hpp"
#include "util/error.hpp"
#include "util/jsonl.hpp"

namespace gfre::serve {

struct Coordinator::Impl {
  CoordinatorOptions options;

  mutable std::mutex mu;
  std::condition_variable cv_room;   ///< capacity freed / fleet changed
  std::condition_variable cv_idle;   ///< pending drained / worker reaped
  std::condition_variable cv_stats;  ///< stats reply landed

  struct Slot {
    int fd = -1;
    pid_t pid = 0;
    bool alive = false;
    /// Set before the coordinator closes the channel itself (orderly
    /// shutdown) so the reader's EOF is not misread as a crash.
    bool closing = false;
    std::size_t inflight = 0;
  };
  std::vector<Slot> slots;
  std::vector<std::thread> readers;  ///< grow-only; joined at shutdown

  struct Pending {
    core::BatchJob job;  ///< kept whole so a requeue re-dispatches verbatim
    Callback cb;
    int worker = -1;  ///< -1: parked, waiting for capacity
    unsigned attempts = 0;
  };
  std::map<std::uint64_t, Pending> pending;
  std::deque<std::uint64_t> parked;
  std::uint64_t next_id = 1;
  /// Callbacks currently executing outside the lock; drain() must not
  /// return while one is mid-flight.
  std::size_t resolving = 0;
  bool draining = false;
  bool shut_down = false;
  CoordinatorStats counters;

  std::uint64_t stats_token = 1;
  std::map<std::uint64_t, WireObject> stats_replies;

  // -- helpers (suffix _locked: caller holds mu) ----------------------------

  bool slot_has_room(const Slot& s) const {
    return s.alive && (options.worker_queue_cap == 0 ||
                       s.inflight < options.worker_queue_cap);
  }

  bool capacity_locked() const {
    for (const Slot& s : slots)
      if (slot_has_room(s)) return true;
    return false;
  }

  bool fleet_dead_locked() const {
    for (const Slot& s : slots)
      if (s.alive) return false;
    return true;
  }

  /// Duplicate submissions of one netlist should land on one worker (its
  /// in-memory memo dedups them); fall back to the shortest queue.
  int pick_worker_locked(const std::string& path) const {
    const unsigned n = static_cast<unsigned>(slots.size());
    const unsigned preferred =
        static_cast<unsigned>(std::hash<std::string>{}(path) % n);
    if (slot_has_room(slots[preferred])) return static_cast<int>(preferred);
    int best = -1;
    for (unsigned k = 0; k < n; ++k)
      if (slot_has_room(slots[k]) &&
          (best < 0 || slots[k].inflight < slots[best].inflight))
        best = static_cast<int>(k);
    return best;
  }

  void dispatch_locked(std::uint64_t id, Pending& p, int k) {
    p.worker = k;
    ++p.attempts;
    ++slots[k].inflight;
    // A failed write means this worker just died under us; its reader's
    // EOF handling will see p.worker == k and requeue — nothing to do.
    (void)write_line(slots[k].fd, submit_message(id, p.job));
  }

  void dispatch_parked_locked() {
    while (!parked.empty()) {
      auto it = pending.find(parked.front());
      if (it == pending.end()) {  // cancelled while parked
        parked.pop_front();
        continue;
      }
      const int k = pick_worker_locked(it->second.job.path);
      if (k < 0) return;  // no capacity anywhere; a later event retries
      parked.pop_front();
      ++counters.requeues;
      dispatch_locked(it->first, it->second, k);
    }
  }

  /// Locally resolves a job that never reached (or came back from) a
  /// worker.  Caller holds mu and has already erased the pending entry.
  /// Runs the callback outside the lock via finish().
  ServeResult synthesize_locked(std::uint64_t id, const Pending& p,
                                const char* kind, const std::string& error) {
    core::BatchJobResult br;
    br.name = p.job.name.empty() ? p.job.path : p.job.name;
    br.path = p.job.path;
    if (std::string_view(kind) == "rejected") {
      br.rejected = true;
      br.error = error;
    } else if (std::string_view(kind) == "cancelled") {
      br.cancelled = true;
    } else {  // worker_failed
      br.error = error;
    }
    ServeResult r;
    r.id = id;
    r.rejected = br.rejected;
    r.cancelled = br.cancelled;
    r.worker = p.worker >= 0 ? static_cast<unsigned>(p.worker) : 0;
    r.attempts = p.attempts;
    r.line = core::result_json_line(br).render();
    ++counters.resolved;
    return r;
  }

  /// Runs resolved-job callbacks with the lock dropped, then lets drain
  /// waiters re-check.  `batch` pairs each result with its callback.
  void finish(std::unique_lock<std::mutex>& lock,
              std::vector<std::pair<ServeResult, Callback>> batch) {
    if (batch.empty()) return;
    resolving += batch.size();
    lock.unlock();
    for (auto& [result, cb] : batch)
      if (cb) cb(result);
    lock.lock();
    resolving -= batch.size();
    cv_idle.notify_all();
  }

  bool spawn_slot_locked(unsigned k) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return false;
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(sv[0]);
      ::close(sv[1]);
      return false;
    }
    if (pid == 0) {
      // Child: drop every coordinator-side fd (other workers' channels
      // would keep sockets alive past their owners' deaths), let the
      // server close its listen/client fds, restore a lethal SIGTERM
      // (the parent may have a drain handler installed), then become the
      // worker.  worker_main unwinds its own locals; _exit skips global
      // teardown the forked child never owned.
      ::close(sv[0]);
      for (const Slot& s : slots)
        if (s.fd >= 0) ::close(s.fd);
      if (options.on_fork_child) options.on_fork_child();
      std::signal(SIGTERM, SIG_DFL);
      WorkerConfig config = options.worker;
      config.threads = options.threads_per_worker;
      ::_exit(worker_main(sv[1], config));
    }
    ::close(sv[1]);
    slots[k].fd = sv[0];
    slots[k].pid = pid;
    slots[k].alive = true;
    slots[k].closing = false;
    slots[k].inflight = 0;
    return true;
  }

  /// Starts slot k's reader.  Kept apart from the fork so the startup
  /// fleet forks before any reader thread exists: a child forked while
  /// another thread holds a lock (an allocator's, say) inherits it held.
  void start_reader_locked(unsigned k) {
    readers.emplace_back([this, k, fd = slots[k].fd, pid = slots[k].pid] {
      read_loop(k, fd, pid);
    });
  }

  // -- reader threads -------------------------------------------------------

  void read_loop(unsigned k, int fd, pid_t pid) {
    FdLineReader reader(fd);
    while (auto line = reader.read_line()) {
      if (line->empty()) continue;
      try {
        const WireObject msg = parse_wire_object(*line);
        const std::string event = require_string(msg, "event");
        if (event == "result") {
          on_result(k, msg);
        } else if (event == "stats") {
          std::lock_guard<std::mutex> lock(mu);
          stats_replies.emplace(get_u64(msg, "token"), msg);
          cv_stats.notify_all();
        }
      } catch (const Error& e) {
        std::fprintf(stderr, "coordinator: bad event from worker %u: %s\n",
                     k, e.what());
      }
    }
    on_worker_eof(k, fd, pid);
  }

  void on_result(unsigned k, const WireObject& msg) {
    const std::uint64_t id = get_u64(msg, "id");
    std::vector<std::pair<ServeResult, Callback>> batch;
    std::unique_lock<std::mutex> lock(mu);
    auto it = pending.find(id);
    // Unknown id: the job was already force-resolved (drain timeout) and
    // this is its late real result — drop it.
    if (it == pending.end()) return;
    Pending p = std::move(it->second);
    pending.erase(it);
    if (p.worker >= 0 && slots[p.worker].inflight > 0)
      --slots[p.worker].inflight;
    ServeResult r;
    r.id = id;
    r.ok = get_bool(msg, "ok");
    r.rejected = get_bool(msg, "rejected");
    r.cancelled = get_bool(msg, "cancelled");
    r.cache_hit = get_bool(msg, "cache_hit");
    r.worker = k;
    r.attempts = p.attempts;
    r.line = require_string(msg, "line");
    ++counters.resolved;
    batch.emplace_back(std::move(r), std::move(p.cb));
    dispatch_parked_locked();
    cv_room.notify_all();
    finish(lock, std::move(batch));
  }

  void on_worker_eof(unsigned k, int fd, pid_t pid) {
    // Reap first: EOF means the child closed its socket end, which for a
    // worker only happens at process exit (or kill).  This reader thread
    // is the slot's only waitpid caller, so no reap races.
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    std::vector<std::pair<ServeResult, Callback>> batch;
    std::unique_lock<std::mutex> lock(mu);
    const bool crashed = !slots[k].closing;
    slots[k].alive = false;
    slots[k].pid = 0;
    ::close(fd);
    slots[k].fd = -1;
    slots[k].inflight = 0;
    if (crashed) {
      ++counters.worker_deaths;
      // Requeue this worker's in-flight jobs — work it finished and
      // stored to the shared disk cache before dying replays from there,
      // so a retry is cheap for everything that actually completed.
      for (auto& [id, p] : pending) {
        if (p.worker != static_cast<int>(k)) continue;
        p.worker = -1;
        if (p.attempts > options.max_retries) {
          batch.emplace_back(
              synthesize_locked(
                  id, p, "worker_failed",
                  "worker_failed: worker process died (" +
                      std::to_string(p.attempts) + " attempts, retry "
                      "budget " + std::to_string(options.max_retries) +
                      " exhausted)"),
              std::move(p.cb));
          ++counters.worker_failed;
        } else {
          parked.push_back(id);
        }
      }
      for (const auto& [r, cb] : batch) pending.erase(r.id);
      if (options.respawn && !draining && !shut_down) {
        if (spawn_slot_locked(k)) {
          start_reader_locked(k);
          ++counters.respawns;
        } else {
          std::fprintf(stderr, "coordinator: respawn of worker %u failed\n",
                       k);
        }
      }
      if (fleet_dead_locked()) {
        // Nothing left to run the parked jobs, ever.
        while (!parked.empty()) {
          auto it = pending.find(parked.front());
          parked.pop_front();
          if (it == pending.end()) continue;
          batch.emplace_back(
              synthesize_locked(it->first, it->second, "worker_failed",
                                "worker_failed: no live workers"),
              std::move(it->second.cb));
          ++counters.worker_failed;
          pending.erase(it);
        }
      }
      dispatch_parked_locked();
    }
    cv_room.notify_all();
    cv_idle.notify_all();
    finish(lock, std::move(batch));
  }

  // -- submission -----------------------------------------------------------

  std::uint64_t submit_impl(core::BatchJob job, Callback cb, bool blocking) {
    if (job.netlist)
      throw InvalidArgument(
          "serve: in-memory netlists cannot cross the process boundary");
    if (job.name.empty()) job.name = job.path;
    std::vector<std::pair<ServeResult, Callback>> batch;
    std::uint64_t id = 0;
    std::unique_lock<std::mutex> lock(mu);
    if (blocking) {
      cv_room.wait(lock, [&] {
        return draining || shut_down || capacity_locked() ||
               fleet_dead_locked();
      });
    }
    id = next_id++;
    ++counters.submitted;
    Pending p{std::move(job), std::move(cb), -1, 0};
    if (draining || shut_down) {
      batch.emplace_back(synthesize_locked(id, p, "cancelled", ""),
                         std::move(p.cb));
      finish(lock, std::move(batch));
      return id;
    }
    if (fleet_dead_locked()) {
      batch.emplace_back(synthesize_locked(id, p, "worker_failed",
                                           "worker_failed: no live workers"),
                         std::move(p.cb));
      ++counters.worker_failed;
      finish(lock, std::move(batch));
      return id;
    }
    if (!capacity_locked()) {  // try_submit on a full fleet
      batch.emplace_back(
          synthesize_locked(
              id, p, "rejected",
              "rejected: all " + std::to_string(slots.size()) +
                  " worker queues at capacity " +
                  std::to_string(options.worker_queue_cap)),
          std::move(p.cb));
      ++counters.rejected;
      finish(lock, std::move(batch));
      return id;
    }
    auto [it, inserted] = pending.emplace(id, std::move(p));
    (void)inserted;
    dispatch_locked(id, it->second, pick_worker_locked(it->second.job.path));
    return id;
  }
};

Coordinator::Coordinator(const CoordinatorOptions& options)
    : impl_(std::make_unique<Impl>()) {
  impl_->options = options;
  if (impl_->options.workers == 0) impl_->options.workers = 1;
  // Writes to a freshly dead worker must come back as errors, not kill
  // the serving process.
  std::signal(SIGPIPE, SIG_IGN);
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->slots.resize(impl_->options.workers);
  unsigned spawned = 0;
  for (unsigned k = 0; k < impl_->options.workers; ++k)
    if (impl_->spawn_slot_locked(k)) ++spawned;
  if (spawned == 0) throw Error("serve: could not fork any worker process");
  for (unsigned k = 0; k < impl_->options.workers; ++k)
    if (impl_->slots[k].alive) impl_->start_reader_locked(k);
}

Coordinator::~Coordinator() { shutdown(std::chrono::milliseconds(30000)); }

std::uint64_t Coordinator::submit(core::BatchJob job, Callback on_complete) {
  return impl_->submit_impl(std::move(job), std::move(on_complete), true);
}

std::uint64_t Coordinator::try_submit(core::BatchJob job,
                                      Callback on_complete) {
  return impl_->submit_impl(std::move(job), std::move(on_complete), false);
}

bool Coordinator::cancel(std::uint64_t id) {
  std::vector<std::pair<ServeResult, Callback>> batch;
  std::unique_lock<std::mutex> lock(impl_->mu);
  auto it = impl_->pending.find(id);
  if (it == impl_->pending.end()) return false;
  if (it->second.worker < 0) {
    // Parked: resolve locally; the stale deque entry is skipped later.
    Impl::Pending p = std::move(it->second);
    impl_->pending.erase(it);
    batch.emplace_back(impl_->synthesize_locked(id, p, "cancelled", ""),
                       std::move(p.cb));
    impl_->finish(lock, std::move(batch));
    return true;
  }
  JsonLine msg;
  msg.add("op", "cancel");
  msg.add("id", id);
  return write_line(impl_->slots[it->second.worker].fd, msg.render());
}

void Coordinator::drain() {
  std::unique_lock<std::mutex> lock(impl_->mu);
  impl_->cv_idle.wait(lock, [&] {
    return impl_->pending.empty() && impl_->resolving == 0;
  });
}

bool Coordinator::drain_for(std::chrono::milliseconds timeout) {
  auto& impl = *impl_;
  const auto settled = [&] {
    return impl.pending.empty() && impl.resolving == 0;
  };
  std::unique_lock<std::mutex> lock(impl.mu);
  if (impl.cv_idle.wait_for(lock, timeout, settled)) return true;

  // Budget blown: cancel everything still parked locally, ask workers to
  // cancel what is still queued on their side (running extractions finish
  // — the worker's own checkpoints bound those).
  std::vector<std::pair<ServeResult, Callback>> batch;
  while (!impl.parked.empty()) {
    auto it = impl.pending.find(impl.parked.front());
    impl.parked.pop_front();
    if (it == impl.pending.end()) continue;
    batch.emplace_back(
        impl.synthesize_locked(it->first, it->second, "cancelled", ""),
        std::move(it->second.cb));
    impl.pending.erase(it);
  }
  for (const auto& [id, p] : impl.pending) {
    if (p.worker < 0) continue;
    JsonLine msg;
    msg.add("op", "cancel");
    msg.add("id", id);
    (void)write_line(impl.slots[p.worker].fd, msg.render());
  }
  impl.finish(lock, std::move(batch));

  // One more bounded wait for the in-flight remainder, then force-resolve
  // stragglers as cancelled; their late real results are dropped on
  // arrival (unknown id).
  if (!impl.cv_idle.wait_for(lock, timeout, settled)) {
    std::vector<std::pair<ServeResult, Callback>> forced;
    for (auto& [id, p] : impl.pending) {
      if (p.worker >= 0 && impl.slots[p.worker].inflight > 0)
        --impl.slots[p.worker].inflight;
      forced.emplace_back(impl.synthesize_locked(id, p, "cancelled", ""),
                          std::move(p.cb));
    }
    impl.pending.clear();
    impl.cv_room.notify_all();
    impl.finish(lock, std::move(forced));
    impl.cv_idle.wait(lock, settled);
  }
  return false;
}

void Coordinator::shutdown(std::chrono::milliseconds grace) {
  auto& impl = *impl_;
  {
    std::lock_guard<std::mutex> lock(impl.mu);
    if (impl.shut_down) return;
    impl.draining = true;  // no respawns, new submissions cancel
    impl.cv_room.notify_all();
  }
  drain_for(grace);
  {
    std::lock_guard<std::mutex> lock(impl.mu);
    impl.shut_down = true;
    for (Impl::Slot& s : impl.slots) {
      if (!s.alive) continue;
      s.closing = true;
      // Half-close: the worker sees EOF, drains its scheduler and exits;
      // our read side stays open so its reader can wind down normally.
      ::shutdown(s.fd, SHUT_WR);
    }
  }
  {
    std::unique_lock<std::mutex> lock(impl.mu);
    const auto all_dead = [&] { return impl.fleet_dead_locked(); };
    if (!impl.cv_idle.wait_for(lock, grace, all_dead)) {
      for (const Impl::Slot& s : impl.slots)
        if (s.alive && s.pid > 0) ::kill(s.pid, SIGKILL);
      impl.cv_idle.wait(lock, all_dead);
    }
  }
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(impl.mu);
    readers.swap(impl.readers);
  }
  for (std::thread& t : readers)
    if (t.joinable()) t.join();
}

std::optional<WireObject> Coordinator::worker_stats(
    unsigned worker, std::chrono::milliseconds timeout) {
  auto& impl = *impl_;
  std::unique_lock<std::mutex> lock(impl.mu);
  if (worker >= impl.slots.size() || !impl.slots[worker].alive)
    return std::nullopt;
  const std::uint64_t token = impl.stats_token++;
  JsonLine msg;
  msg.add("op", "stats");
  msg.add("token", token);
  if (!write_line(impl.slots[worker].fd, msg.render())) return std::nullopt;
  impl.cv_stats.wait_for(lock, timeout,
                         [&] { return impl.stats_replies.count(token) != 0; });
  auto it = impl.stats_replies.find(token);
  if (it == impl.stats_replies.end()) return std::nullopt;
  WireObject reply = std::move(it->second);
  impl.stats_replies.erase(it);
  return reply;
}

CoordinatorStats Coordinator::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->counters;
}

std::vector<pid_t> Coordinator::worker_pids() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<pid_t> pids;
  pids.reserve(impl_->slots.size());
  for (const Impl::Slot& s : impl_->slots)
    pids.push_back(s.alive ? s.pid : 0);
  return pids;
}

unsigned Coordinator::workers() const {
  return static_cast<unsigned>(impl_->slots.size());
}

}  // namespace gfre::serve
