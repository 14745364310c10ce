// gfre_batch — the manifest driver for whole verification workloads:
//
//   gfre_batch --jobs <manifest> [options]                   in process
//   gfre_batch --socket PATH --jobs <manifest> [options]     via gfre_server
//
// The manifest lists one netlist per line with optional per-job overrides
// (grammar in core/batch.hpp):
//
//   # path                     per-job options
//   rtl/mastrovito_m8.eqn
//   rtl/montgomery_m16.blif    name=monty verify=0
//
// Each line is submitted the moment it parses (a 100k-line manifest never
// materializes as a job vector), progress prints as results land, and the
// --out JSONL report is written in manifest order.  The local backend runs
// the jobs on a long-lived core::BatchScheduler; a server address selects
// the remote backend, which streams them to gfre_server over the
// docs/PROTOCOL.md wire.  Paths resolve against the manifest's directory
// here in both cases, and report lines are written verbatim as rendered,
// so the two backends' reports differ only in the volatile fields.
//
// Flags: usage() below is the single source of truth; the CI docs job
// keeps it in sync with README.md's flag table.  Exit code 0 iff every job
// succeeded; 1 if any failed; 2 for usage, manifest, connection or report
// errors; 128+signal after SIGINT/SIGTERM.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.hpp"
#include "core/report_json.hpp"
#include "core/result_cache.hpp"
#include "core/scheduler.hpp"
#include "serve/wire.hpp"
#include "serve/worker.hpp"
#include "util/error.hpp"
#include "util/jsonl.hpp"
#include "util/options.hpp"
#include "util/timer.hpp"

namespace {

using namespace gfre;

void usage(std::ostream& os) {
  os << "usage: gfre_batch --jobs <manifest> [options]\n"
     << "       gfre_batch (--socket PATH | --tcp PORT) [--jobs <manifest>]\n"
     << "                  [options]\n"
     << "\n"
     << "  --jobs FILE        job manifest: one netlist per line with\n"
     << "                     optional key=value overrides (name=,\n"
     << "                     ports=a,b,z, infer=, verify=, permute=,\n"
     << "                     max_terms=, library=, deadline_ms=,\n"
     << "                     priority=high|normal|low)\n"
     << "  --ports a,b,z      default operand/result port base names\n"
     << "  --max-terms N      default per-bit term budget (0 = unlimited)\n"
     << "  --library FILE     default cell library (.lib subset); per-line\n"
     << "                     library= overrides; a server opens it itself\n"
     << "  --deadline-ms N    default per-job wall-clock budget in ms\n"
     << "                     (0 = none); per-line deadline_ms= overrides\n"
     << "  --no-verify        skip golden-model comparison by default\n"
     << "  --out FILE         write per-job results as JSON lines\n"
     << "  --quiet            suppress per-job lines (summary only)\n"
     << "  --help             print this message and exit\n"
     << "local backend (the default):\n"
     << "  --threads N        shared pool width (default: hardware)\n"
     << "  --queue-cap N      bound on unresolved jobs (0 = unbounded)\n"
     << "  --admission MODE   at a full queue: 'block' the stream until a\n"
     << "                     job resolves (default) or 'reject' the job\n"
     << "  --no-cache         disable content-hash memoization\n"
     << "  --cache DIR        persistent cross-run result cache keyed by\n"
     << "                     SHA-256 content hash (created if absent)\n"
     << "  --cache-prune N    after the run, evict oldest cache entries\n"
     << "                     down to N bytes total; requires --cache\n"
     << "  --cache-cap N      N-byte cache budget enforced at store time;\n"
     << "                     requires --cache\n"
     << "  --cache-negative-ttl N  expire cached parse/port-error\n"
     << "                     diagnoses older than N seconds (0 = keep\n"
     << "                     forever); requires --cache\n"
     << "remote backend (gfre_server's own flags configure its fleet):\n"
     << "  --socket PATH      connect to a gfre_server UNIX socket\n"
     << "  --tcp PORT         connect to 127.0.0.1:PORT instead\n"
     << "  --ping             first check the server is answering\n"
     << "  --drain            after the jobs, wait for the server to drain\n"
     << "  --stats            after the jobs, print the server's summed\n"
     << "                     worker scheduler counters\n";
}

/// Every command-line setting, for both backends.
struct Config {
  std::set<std::string> given;  ///< every flag on the command line
  std::string manifest;
  std::string out_path;
  std::uint64_t deadline_ms = 0;
  core::FlowOptions defaults;
  bool quiet = false;
  // Local backend.
  core::BatchOptions batch;
  bool admission_reject = false;
  std::string cache_dir;
  std::uint64_t cache_prune = 0;
  std::uint64_t cache_cap = 0;
  std::uint64_t cache_negative_ttl = 0;
  // Remote backend.
  std::string socket_path;
  std::uint64_t tcp_port = 0;
  bool ping = false;
  bool drain = false;
  bool stats = false;

  bool remote() const { return !socket_path.empty() || tcp_port != 0; }
};

/// Fills `c` from argv.  Returns an exit code when the process should
/// stop here (0 after --help, 2 on a usage error), nullopt to run.
std::optional<int> parse_args(int argc, char** argv, Config& c) {
  std::string ports;
  std::string admission = "block";
  std::uint64_t threads = configured_threads();
  std::uint64_t max_terms = 0;
  std::uint64_t queue_cap = 0;
  bool no_verify = false;
  bool no_cache = false;
  const std::map<std::string, std::string*> texts = {
      {"--jobs", &c.manifest},       {"--out", &c.out_path},
      {"--ports", &ports},           {"--library", &c.defaults.library},
      {"--admission", &admission},   {"--cache", &c.cache_dir},
      {"--socket", &c.socket_path}};
  // Every numeric flag goes through the strict util/options.hpp parser.
  const std::map<std::string, std::uint64_t*> numbers = {
      {"--threads", &threads},         {"--max-terms", &max_terms},
      {"--queue-cap", &queue_cap},     {"--deadline-ms", &c.deadline_ms},
      {"--cache-prune", &c.cache_prune}, {"--cache-cap", &c.cache_cap},
      {"--cache-negative-ttl", &c.cache_negative_ttl},
      {"--tcp", &c.tcp_port}};
  const std::map<std::string, bool*> switches = {
      {"--no-verify", &no_verify}, {"--no-cache", &no_cache},
      {"--quiet", &c.quiet},       {"--ping", &c.ping},
      {"--drain", &c.drain},       {"--stats", &c.stats}};
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const bool has_value = i + 1 < argc;
      if (arg == "--help") {
        usage(std::cout);
        return 0;
      } else if (texts.count(arg) && has_value) {
        *texts.at(arg) = argv[++i];
      } else if (numbers.count(arg) && has_value) {
        *numbers.at(arg) = parse_u64(argv[++i], arg);
      } else if (switches.count(arg)) {
        *switches.at(arg) = true;
      } else {
        usage(std::cerr);
        return 2;
      }
      c.given.insert(arg);
    }
    if (!ports.empty()) core::parse_port_spec(ports, c.defaults);
  } catch (const InvalidArgument& e) {
    std::cerr << "bad argument: " << e.what() << "\n";
    usage(std::cerr);
    return 2;
  }
  c.batch.threads = static_cast<unsigned>(threads);
  c.batch.max_queued = queue_cap;
  c.batch.memoize = !no_cache;
  c.admission_reject = admission == "reject";
  c.defaults.max_terms = max_terms;
  c.defaults.verify_with_golden = !no_verify;

  // The first rule an invocation breaks, if any.
  const auto broken_rule = [&]() -> std::string {
    if (threads == 0 || threads > 4096) return "--threads wants 1..4096";
    if (c.tcp_port > 65535 || (c.given.count("--tcp") && c.tcp_port == 0))
      return "--tcp wants a port in 1..65535";
    if (admission != "block" && admission != "reject")
      return "--admission wants 'block' or 'reject'";
    if (c.remote()) {
      if (!c.socket_path.empty() && c.tcp_port != 0)
        return "pick exactly one of --socket PATH / --tcp PORT";
      for (const char* local : {"--threads", "--queue-cap", "--admission",
                                "--no-cache", "--cache", "--cache-prune",
                                "--cache-cap", "--cache-negative-ttl"}) {
        if (c.given.count(local))
          return std::string(local) + " configures the local backend; "
                 "gfre_server's own flags configure the fleet behind "
                 "--socket/--tcp";
      }
      if (c.manifest.empty() && !c.ping && !c.drain && !c.stats)
        return "nothing to do: give --jobs, --ping, --drain or --stats";
      return {};
    }
    if (c.ping || c.drain || c.stats)
      return "--ping/--drain/--stats talk to a server: give --socket PATH "
             "or --tcp PORT";
    if (c.manifest.empty()) return "--jobs is required";
    // The disk layer sits behind the in-memory memo; silently attaching
    // it while memoization is off would promise hits that never happen.
    if (!c.cache_dir.empty() && no_cache)
      return "--cache requires memoization; drop --no-cache";
    if (c.cache_dir.empty()) {
      if (c.given.count("--cache-prune"))
        return "--cache-prune needs --cache DIR";
      if (c.cache_cap != 0) return "--cache-cap needs --cache DIR";
      if (c.cache_negative_ttl != 0)
        return "--cache-negative-ttl needs --cache DIR";
    }
    if (c.admission_reject && queue_cap == 0)
      return "--admission reject needs --queue-cap N";
    return {};
  };
  const std::string why = broken_rule();
  if (why.empty()) return std::nullopt;
  std::cerr << why << "\n";
  usage(std::cerr);
  return 2;
}

// SIGINT/SIGTERM request an orderly wind-down: stop submitting, cancel
// what has not started, keep the report and the summary.  A lock-free
// atomic + a polling wait is the whole mechanism: the handler may run on
// any thread, and it does nothing async-signal-unsafe.
std::atomic<int> g_signal{0};
static_assert(std::atomic<int>::is_always_lock_free);

extern "C" void on_interrupt(int sig) { g_signal = sig; }

/// Progress line for one resolved job, read back from its rendered report
/// line so both backends print the same thing; `via` names the worker for
/// remote jobs.
void print_progress(const std::string& line, const std::string& via) {
  const serve::WireObject r = serve::parse_wire_object(line);
  const std::string name = serve::get_string(r, "name");
  const std::string error = serve::get_string(r, "error");
  const std::string diagnosis = serve::get_string(r, "diagnosis");
  const char* cached = serve::get_bool(r, "cache_hit") ? ",cached" : "";
  if (serve::get_bool(r, "rejected")) {
    std::printf("  [REJECTED] %-40s %s", name.c_str(), error.c_str());
  } else if (serve::get_bool(r, "deadline_exceeded")) {
    // Queued expiry carries the diagnosis in `error`; a mid-extraction
    // soft abort carries it in the report.
    std::printf("  [DEADLINE] %-40s %s", name.c_str(),
                !error.empty() ? error.c_str() : diagnosis.c_str());
  } else if (serve::get_bool(r, "cancelled")) {
    std::printf("  [CANCELLED] %-40s", name.c_str());
  } else if (!error.empty()) {
    std::printf("  [LOAD-ERROR] %-40s %s", name.c_str(), error.c_str());
  } else if (serve::get_bool(r, "ok")) {
    std::printf("  [ok%s] %-40s GF(2^%llu) P(x)=%s", cached, name.c_str(),
                static_cast<unsigned long long>(serve::get_u64(r, "m")),
                serve::get_string(r, "p").c_str());
  } else {
    std::printf("  [FAILED%s] %-40s %s", cached, name.c_str(),
                diagnosis.c_str());
  }
  std::printf("%s\n", via.c_str());
  std::fflush(stdout);
}

/// Where the jobs run.  The base keeps one row per submitted job in
/// manifest order; a backend fills each row exactly once as its job
/// resolves (on a scheduler thread or the socket reader), and every
/// arrival prints its progress line.
class Backend {
 public:
  struct Row {
    bool ok = false;
    bool cache_hit = false;
    std::string line;  ///< rendered JSONL report line, written verbatim
  };

  explicit Backend(bool quiet) : quiet_(quiet) {}
  virtual ~Backend() = default;
  // Scheduler callbacks and the socket reader hold `this`.
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  void submit(core::BatchJob job) {
    std::unique_lock<std::mutex> lock(rows_mu_);
    rows_.emplace_back();
    const std::size_t index = rows_.size() - 1;
    lock.unlock();
    send(index, std::move(job));
  }

  std::size_t submitted() const {
    std::lock_guard<std::mutex> lock(rows_mu_);
    return rows_.size();
  }

  /// Rows in manifest order; call once every job has resolved.
  std::vector<Row> take_rows() {
    std::lock_guard<std::mutex> lock(rows_mu_);
    std::vector<Row> rows;
    for (auto& row : rows_) rows.push_back(std::move(row.value()));
    return rows;
  }

  /// True once every submitted job has resolved; waits up to `slice`.
  virtual bool wait_idle_for(std::chrono::milliseconds slice) = 0;
  /// Cancels every submitted job that has not started running.
  virtual void cancel_unstarted() = 0;
  virtual void print_summary(double wall, const std::vector<Row>& rows) = 0;

 protected:
  virtual void send(std::size_t index, core::BatchJob job) = 0;

  void resolve(std::size_t index, Row row, const std::string& via = {}) {
    std::lock_guard<std::mutex> lock(rows_mu_);
    rows_[index] = std::move(row);
    if (!quiet_) print_progress(rows_[index]->line, via);
  }

 private:
  const bool quiet_;
  mutable std::mutex rows_mu_;
  std::vector<std::optional<Row>> rows_;
};

class LocalBackend final : public Backend {
 public:
  explicit LocalBackend(const Config& config)
      : Backend(config.quiet), config_(config), scheduler_(options(config)) {
    std::printf("gfre_batch: streaming '%s' onto %u shared workers "
                "(memo %s%s%s)\n",
                config.manifest.c_str(), config.batch.threads,
                config.batch.memoize ? "on" : "off",
                cache_ ? ", disk cache " : "", config.cache_dir.c_str());
  }

  bool wait_idle_for(std::chrono::milliseconds slice) override {
    return scheduler_.wait_idle_for(slice);
  }

  void cancel_unstarted() override {
    scheduler_.drain_for(std::chrono::milliseconds(0));
  }

  void print_summary(double wall, const std::vector<Row>&) override {
    const core::BatchStats stats = scheduler_.stats();
    std::printf(
        "batch: streamed %zu jobs in %.3f s (%.1f jobs/s) — %zu ok, "
        "%zu failed, %zu load errors, %zu cache hits, %zu cones "
        "(%zu cross-circuit steals)\n",
        stats.jobs, wall,
        wall > 0 ? static_cast<double>(stats.jobs) / wall : 0.0,
        stats.succeeded, stats.failed, stats.load_errors, stats.cache_hits,
        stats.cones_extracted, stats.cone_steals);
    // The admission and warm-cache CI smokes grep these two lines.
    std::printf("admission: queue peak %zu, %zu rejected, %zu "
                "deadline-exceeded, %zu memo evictions\n",
                stats.queue_peak, stats.rejected, stats.deadline_exceeded,
                stats.memo_evictions);
    if (!cache_) return;
    // Stale (older schema), quarantined (corrupt) and expired (negative
    // entry past its TTL) lookups are also misses; naming them tells a
    // cache written by another version from an empty one.
    const core::ResultCache::Stats disk = cache_->stats();
    std::printf("disk cache: %zu disk hits, %zu disk misses, %zu stores, "
                "%zu stale, %zu quarantined, %zu expired (%s)\n",
                stats.disk_hits, stats.disk_misses, stats.disk_stores,
                disk.stale, disk.quarantined, disk.expired,
                cache_->dir().c_str());
    if (config_.given.count("--cache-prune")) {
      const auto pruned = cache_->prune(config_.cache_prune);
      std::printf("cache prune: removed %zu entries (%llu bytes), kept "
                  "%zu (%llu bytes <= budget %llu)\n",
                  pruned.entries_removed,
                  static_cast<unsigned long long>(pruned.bytes_removed),
                  pruned.entries_kept,
                  static_cast<unsigned long long>(pruned.bytes_kept),
                  static_cast<unsigned long long>(config_.cache_prune));
    }
  }

 protected:
  void send(std::size_t index, core::BatchJob job) override {
    const auto on_complete = [this, index](const core::BatchJobResult& r) {
      resolve(index, {r.ok, r.cache_hit, core::result_json_line(r).render()});
    };
    // Reject mode resolves an over-cap job at once (callback already
    // run), so the stream never stalls; block mode backpressures it.
    if (config_.admission_reject) {
      (void)scheduler_.try_submit(std::move(job), on_complete);
    } else {
      (void)scheduler_.submit(std::move(job), on_complete);
    }
  }

 private:
  core::BatchOptions options(const Config& config) {
    core::BatchOptions options = config.batch;
    if (!config.cache_dir.empty()) {
      cache_ = std::make_shared<core::ResultCache>(
          config.cache_dir, config.cache_cap, config.cache_negative_ttl);
    }
    options.result_cache = cache_;
    return options;
  }

  const Config& config_;
  // Declared before scheduler_: options() sets it while the scheduler's
  // options are built.
  std::shared_ptr<core::ResultCache> cache_;
  core::BatchScheduler scheduler_;
};

int connect_to(const Config& config) {
  const bool tcp = config.socket_path.empty();
  const std::string where =
      tcp ? "127.0.0.1:" + std::to_string(config.tcp_port) : config.socket_path;
  union {
    sockaddr_un un;  // largest first, so addr{} zeroes all of it
    sockaddr_in in;
    sockaddr any;
  } addr{};
  socklen_t len = sizeof(addr.in);
  if (tcp) {
    addr.in.sin_family = AF_INET;
    addr.in.sin_port = htons(static_cast<std::uint16_t>(config.tcp_port));
    addr.in.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  } else {
    if (where.size() >= sizeof(addr.un.sun_path))
      throw Error("socket path too long: " + where);
    addr.un.sun_family = AF_UNIX;
    std::memcpy(addr.un.sun_path, where.c_str(), where.size() + 1);
    len = sizeof(addr.un);
  }
  const int fd = ::socket(addr.any.sa_family, SOCK_STREAM, 0);
  if (fd < 0) throw Error("socket(): " + std::string(strerror(errno)));
  if (::connect(fd, &addr.any, len) != 0) {
    const std::string why = strerror(errno);
    ::close(fd);
    throw Error("cannot connect to " + where + ": " + why);
  }
  return fd;
}

/// A gfre_server session: jobs go out on the caller's thread; a reader
/// thread decodes every event and maps results back to manifest rows.
class RemoteBackend final : public Backend {
 public:
  explicit RemoteBackend(const Config& config)
      : Backend(config.quiet),
        fd_(connect_to(config)),
        reader_([this] { read(); }) {}

  ~RemoteBackend() override {
    ::shutdown(fd_, SHUT_RDWR);
    reader_.join();
    ::close(fd_);
  }

  bool wait_idle_for(std::chrono::milliseconds slice) override {
    std::unique_lock<std::mutex> lock(mu_);
    const auto idle = [&] {
      return acks_ == submitted() && id_to_index_.empty();
    };
    cv_.wait_for(lock, slice, [&] { return closed_ || idle(); });
    if (!idle() && closed_) {
      throw Error("server closed the connection mid-run (" +
                  std::to_string(submitted()) + " submitted)");
    }
    return idle();
  }

  /// Sends the wire `cancel` op once for every acked, unresolved job; the
  /// server cancels those that have not started.  Called once per wait
  /// slice, so jobs acked in the meantime are caught too.
  void cancel_unstarted() override {
    std::vector<std::uint64_t> ids;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& entry : id_to_index_) {
        if (cancel_sent_.insert(entry.first).second) ids.push_back(entry.first);
      }
    }
    // Written unlocked: a blocked write must not hold up the reader.
    for (const std::uint64_t id : ids) {
      JsonLine op;
      op.add("op", "cancel");
      op.add("id", id);
      serve::write_line(fd_, op.render());
    }
  }

  void print_summary(double, const std::vector<Row>& rows) override {
    std::size_t ok = 0, worker_failed = 0, cache_hits = 0;
    for (const Row& row : rows) {
      ok += row.ok;
      worker_failed += row.line.find("\"worker_failed") != std::string::npos;
      cache_hits += row.cache_hit;
    }
    std::printf("client: %zu jobs via server — %zu ok, %zu failed "
                "(%zu worker_failed), %zu cache hits\n",
                rows.size(), ok, rows.size() - ok, worker_failed, cache_hits);
  }

  /// Sends a bare `op` and waits for its `event` reply; nullopt when the
  /// server hung up first.
  std::optional<serve::WireObject> request(const std::string& op,
                                           const std::string& event) {
    serve::write_line(fd_, R"({"op": ")" + op + "\"}");
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || replies_.count(event) != 0; });
    const auto reply = replies_.find(event);
    if (reply == replies_.end()) return std::nullopt;
    return reply->second;
  }

 protected:
  void send(std::size_t index, core::BatchJob job) override {
    // The id is a client-side ordinal; the server's ack carries the real
    // one.
    if (!serve::write_line(fd_, serve::submit_message(index + 1, job)))
      throw Error("connection lost while submitting");
  }

 private:
  void read() {
    serve::FdLineReader reader(fd_);
    while (auto line = reader.read_line()) {
      if (line->empty()) continue;
      try {
        serve::WireObject msg = serve::parse_wire_object(*line);
        const std::string event = serve::require_string(msg, "event");
        std::lock_guard<std::mutex> lock(mu_);
        if (event == "submitted") {
          // Acks arrive in submission order on one connection, so the
          // k-th ack maps its server id to manifest row k.
          const std::uint64_t id = serve::get_u64(msg, "id");
          id_to_index_.emplace(id, acks_++);
          const auto early = early_results_.find(id);
          if (early != early_results_.end()) {
            place_locked(id, early->second);
            early_results_.erase(early);
          }
        } else if (event == "result") {
          place_locked(serve::get_u64(msg, "id"), msg);
        } else if (event == "error") {
          std::fprintf(stderr, "server error: %s\n",
                       serve::get_string(msg, "message").c_str());
        } else {
          replies_[event] = std::move(msg);
        }
        cv_.notify_all();
      } catch (const Error& e) {
        std::fprintf(stderr, "bad server message: %s\n", e.what());
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_.notify_all();
  }

  void place_locked(std::uint64_t id, const serve::WireObject& msg) {
    const auto it = id_to_index_.find(id);
    if (it == id_to_index_.end()) {
      // A result may precede its own ack (a rejection resolves inside the
      // server's submit call); it waits here for the ack.
      early_results_.emplace(id, msg);
      return;
    }
    Row row{serve::get_bool(msg, "ok"), serve::get_bool(msg, "cache_hit"),
            serve::require_string(msg, "line")};
    const std::string via =
        " (worker " + std::to_string(serve::get_u64(msg, "worker")) +
        ", attempt " + std::to_string(serve::get_u64(msg, "attempts")) + ")";
    const std::size_t index = it->second;
    id_to_index_.erase(it);
    resolve(index, std::move(row), via);
  }

  const int fd_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t acks_ = 0;
  /// Acked, unresolved jobs: server id -> manifest row.
  std::map<std::uint64_t, std::size_t> id_to_index_;
  std::map<std::uint64_t, serve::WireObject> early_results_;
  std::set<std::uint64_t> cancel_sent_;
  /// Latest reply per event kind (pong, drained, stats, cancel).
  std::map<std::string, serve::WireObject> replies_;
  bool closed_ = false;
  std::thread reader_;  // last: starts once every field above exists
};

void print_server_stats(const serve::WireObject& stats) {
  const auto get = [&](const char* key) {
    return static_cast<unsigned long long>(serve::get_u64(stats, key));
  };
  std::printf("server stats: %llu jobs, %llu succeeded, %llu disk hits, "
              "%llu disk misses, %llu stores, %llu cones extracted (%llu "
              "workers reporting)\n",
              get("jobs"), get("succeeded"), get("disk_hits"),
              get("disk_misses"), get("disk_stores"), get("cones_extracted"),
              get("workers_reporting"));
}

/// Streams the manifest through `backend`, waits for every job, writes
/// the report and the summary.  Returns the process exit code.
int run_manifest(const Config& config, std::istream& in, Backend& backend) {
  const std::string base =
      std::filesystem::path(config.manifest).parent_path().string();
  Timer clock;
  // A bad line stops the stream but must NOT discard the work already in
  // flight: everything submitted still lands in the report (a streaming
  // run may be hours into a huge manifest when the typo surfaces).
  std::string manifest_error;
  std::string line;
  int lineno = 0;
  while (g_signal == 0 && std::getline(in, line)) {
    std::optional<core::BatchJob> job;
    try {
      job = core::parse_manifest_line(line, ++lineno, config.manifest, base,
                                      config.defaults);
    } catch (const Error& e) {
      manifest_error = e.what();
      std::fprintf(stderr, "manifest error (submission stops, %zu "
                   "submitted jobs still complete): %s\n",
                   backend.submitted(), e.what());
      break;
    }
    if (!job.has_value()) continue;
    if (job->deadline_ms == 0) job->deadline_ms = config.deadline_ms;
    backend.submit(std::move(*job));
  }
  if (backend.submitted() == 0 && !manifest_error.empty()) return 2;
  if (backend.submitted() == 0 && g_signal == 0) {
    std::cerr << "manifest '" << config.manifest << "' lists no jobs\n";
    return 2;
  }

  // Wait in slices so a signal is honored within ~200 ms.  On interrupt
  // the backend cancels every job that has not started, and the report
  // shows real results for finished work and `cancelled` for the rest.
  const auto slice = std::chrono::milliseconds(200);
  while (g_signal == 0 && !backend.wait_idle_for(slice)) {
  }
  const int interrupted = g_signal;
  if (interrupted != 0) {
    std::fprintf(stderr,
                 "gfre_batch: interrupted by %s — cancelling queued "
                 "jobs, finishing in-flight extractions\n",
                 interrupted == SIGINT ? "SIGINT" : "SIGTERM");
    do {
      backend.cancel_unstarted();
    } while (!backend.wait_idle_for(slice));
  }
  const double wall = clock.seconds();

  const std::vector<Backend::Row> rows = backend.take_rows();
  bool report_written = true;
  if (!config.out_path.empty()) {
    JsonlWriter writer(config.out_path);
    for (const Backend::Row& row : rows) writer.write_raw(row.line);
    writer.close();
    report_written = writer.ok();
    std::printf("wrote %zu result lines to %s%s\n", writer.lines_written(),
                config.out_path.c_str(),
                report_written ? "" : " (WRITE ERROR)");
  }
  backend.print_summary(wall, rows);

  // A truncated report or an unparseable manifest is a tool failure even
  // when every submitted job succeeded.  An interrupt outranks both: the
  // caller must be able to tell a run it killed (128+signal, the shell
  // convention) from one that failed on its own.
  if (interrupted != 0) return 128 + interrupted;
  if (!report_written || !manifest_error.empty()) return 2;
  for (const Backend::Row& row : rows) {
    if (!row.ok) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  if (const auto code = parse_args(argc, argv, config)) return *code;
  try {
    std::ifstream in;
    if (!config.manifest.empty()) {
      in.open(config.manifest);
      if (!in) throw Error("cannot open manifest '" + config.manifest + "'");
    }
    std::unique_ptr<Backend> backend;
    RemoteBackend* remote = nullptr;
    if (config.remote()) {
      std::signal(SIGPIPE, SIG_IGN);
      backend = std::make_unique<RemoteBackend>(config);
      remote = static_cast<RemoteBackend*>(backend.get());
    } else {
      backend = std::make_unique<LocalBackend>(config);
    }
    std::signal(SIGINT, on_interrupt);
    std::signal(SIGTERM, on_interrupt);

    if (config.ping) {
      if (!remote->request("ping", "pong")) {
        std::cerr << "server closed the connection without a pong\n";
        return 2;
      }
      if (!config.quiet) std::printf("pong\n");
    }
    int code = 0;
    if (!config.manifest.empty()) {
      code = run_manifest(config, in, *backend);
      if (g_signal != 0 || backend->submitted() == 0) return code;
    }
    if (config.drain) {
      if (!remote->request("drain", "drained")) return 2;
      if (!config.quiet) std::printf("server drained\n");
    }
    if (config.stats) {
      const auto stats = remote->request("stats", "stats");
      if (!stats.has_value()) return 2;
      print_server_stats(*stats);
    }
    return code;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
