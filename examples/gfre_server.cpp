// gfre_server — the multi-process extraction daemon.
//
//   gfre_server --socket /tmp/gfre.sock --workers 4 --cache /var/cache/gfre
//
// Listens on a UNIX-domain socket (and optionally TCP on loopback) for
// the line-delimited JSON protocol in docs/PROTOCOL.md, and fans
// submitted jobs across forked worker processes — each a private
// BatchScheduler sharing ONE on-disk result cache.  A worker crash
// requeues its in-flight jobs (bounded retries, then a diagnosed
// `worker_failed`); SIGTERM/SIGINT drains the fleet and exits cleanly.
//
// `gfre_batch --socket` is the matching manifest streamer; its JSONL
// output is diffable against an in-process gfre_batch run of the same
// manifest.
#include <unistd.h>

#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "serve/server.hpp"
#include "util/error.hpp"
#include "util/options.hpp"

namespace {

void usage(std::ostream& os) {
  os << "usage: gfre_server --socket PATH [--tcp PORT] [--workers N]\n"
     << "                   [--worker-threads N] [--queue-cap N]\n"
     << "                   [--admission block|reject] [--retries N]\n"
     << "                   [--no-respawn] [--cache DIR]\n"
     << "                   [--cache-cap BYTES] [--cache-negative-ttl SECS]\n"
     << "                   [--drain-grace-ms MS] [--quiet] [--help]\n"
     << "\n"
     << "  --socket PATH      UNIX-domain listening socket (required);\n"
     << "                     a stale socket file is replaced, a live\n"
     << "                     server on it is a startup error\n"
     << "  --tcp PORT         also listen on 127.0.0.1:PORT\n"
     << "  --workers N        forked worker processes (default 2)\n"
     << "  --worker-threads N extraction threads per worker (default 1)\n"
     << "  --queue-cap N      per-worker bound on dispatched-but-\n"
     << "                     unresolved jobs (0 = unbounded); the\n"
     << "                     admission decision at a full fleet follows\n"
     << "                     --admission\n"
     << "  --admission MODE   at a full fleet: 'block' the submitting\n"
     << "                     connection (default) or 'reject' the job\n"
     << "                     immediately with a diagnosed result\n"
     << "  --retries N        re-dispatches per job after worker deaths\n"
     << "                     before it resolves as worker_failed\n"
     << "                     (default 2)\n"
     << "  --no-respawn       do not fork replacements for dead workers\n"
     << "  --cache DIR        shared persistent result cache for the\n"
     << "                     whole fleet (created if absent)\n"
     << "  --cache-cap N      per-worker store-time byte budget on the\n"
     << "                     shared cache; requires --cache\n"
     << "  --cache-negative-ttl N  expire cached error diagnoses older\n"
     << "                     than N seconds; requires --cache\n"
     << "  --drain-grace-ms N wall-clock budget for draining on SIGTERM\n"
     << "                     and at worker EOF (default 30000)\n"
     << "  --quiet            suppress the startup banner\n"
     << "  --help             print this message and exit\n";
}

// SIGTERM/SIGINT must reach the poll loop without touching anything
// async-signal-unsafe: one byte down the server's stop pipe is the whole
// handshake.
int g_stop_fd = -1;

extern "C" void on_term(int) {
  if (g_stop_fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] ssize_t n = ::write(g_stop_fd, &byte, 1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gfre;

  serve::ServerOptions options;
  options.coordinator.workers = 2;
  options.coordinator.threads_per_worker = 1;
  bool quiet = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto want_value = [&](const char* flag) -> std::string {
        if (i + 1 >= argc) {
          std::cerr << flag << " wants a value\n";
          usage(std::cerr);
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "--socket") {
        options.socket_path = want_value("--socket");
      } else if (arg == "--tcp") {
        options.tcp_port = static_cast<unsigned short>(
            parse_u64(want_value("--tcp"), arg, 1, 65535));
      } else if (arg == "--workers") {
        options.coordinator.workers = static_cast<unsigned>(
            parse_u64(want_value("--workers"), arg, 1, 256));
      } else if (arg == "--worker-threads") {
        options.coordinator.threads_per_worker = static_cast<unsigned>(
            parse_u64(want_value("--worker-threads"), arg, 1, 4096));
      } else if (arg == "--queue-cap") {
        options.coordinator.worker_queue_cap =
            parse_u64(want_value("--queue-cap"), arg);
      } else if (arg == "--admission") {
        const std::string mode = want_value("--admission");
        if (mode == "block") {
          options.admission_reject = false;
        } else if (mode == "reject") {
          options.admission_reject = true;
        } else {
          std::cerr << "--admission wants 'block' or 'reject'\n";
          return 2;
        }
      } else if (arg == "--retries") {
        options.coordinator.max_retries = static_cast<unsigned>(
            parse_u64(want_value("--retries"), arg, 0, UINT_MAX));
      } else if (arg == "--no-respawn") {
        options.coordinator.respawn = false;
      } else if (arg == "--cache") {
        options.coordinator.worker.cache_dir = want_value("--cache");
      } else if (arg == "--cache-cap") {
        options.coordinator.worker.cache_cap_bytes =
            parse_u64(want_value("--cache-cap"), arg);
      } else if (arg == "--cache-negative-ttl") {
        options.coordinator.worker.cache_negative_ttl_seconds =
            parse_u64(want_value("--cache-negative-ttl"), arg);
      } else if (arg == "--drain-grace-ms") {
        const auto ms = parse_u64(want_value("--drain-grace-ms"), arg);
        options.shutdown_grace = std::chrono::milliseconds(ms);
        options.coordinator.worker.drain_grace_ms = ms;
      } else if (arg == "--quiet") {
        quiet = true;
      } else if (arg == "--help") {
        usage(std::cout);
        return 0;
      } else {
        usage(std::cerr);
        return 2;
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "bad numeric argument: " << e.what() << "\n";
    usage(std::cerr);
    return 2;
  }
  if (options.socket_path.empty()) {
    usage(std::cerr);
    return 2;
  }
  if ((options.coordinator.worker.cache_cap_bytes != 0 ||
       options.coordinator.worker.cache_negative_ttl_seconds != 0) &&
      options.coordinator.worker.cache_dir.empty()) {
    std::cerr << "--cache-cap/--cache-negative-ttl need --cache DIR\n";
    return 2;
  }
  if (options.admission_reject &&
      options.coordinator.worker_queue_cap == 0) {
    std::cerr << "--admission reject needs --queue-cap N\n";
    return 2;
  }

  try {
    serve::Server server(options);
    g_stop_fd = server.stop_fd();
    std::signal(SIGTERM, on_term);
    std::signal(SIGINT, on_term);

    if (!quiet) {
      std::printf("gfre_server: listening on %s%s%s\n",
                  options.socket_path.c_str(),
                  options.tcp_port != 0 ? " and 127.0.0.1:" : "",
                  options.tcp_port != 0
                      ? std::to_string(options.tcp_port).c_str()
                      : "");
      // The CI smoke greps these lines to pick a victim pid mid-run.
      const auto pids = server.coordinator().worker_pids();
      for (std::size_t k = 0; k < pids.size(); ++k)
        std::printf("worker %zu: pid %d\n", k,
                    static_cast<int>(pids[k]));
      std::fflush(stdout);
    }

    server.run();  // returns after a stop byte + fleet drain

    const serve::CoordinatorStats stats = server.coordinator().stats();
    std::printf(
        "gfre_server: drained — %zu submitted, %zu resolved, %zu "
        "rejected, %zu worker deaths, %zu respawns, %zu requeues, %zu "
        "worker_failed\n",
        stats.submitted, stats.resolved, stats.rejected,
        stats.worker_deaths, stats.respawns, stats.requeues,
        stats.worker_failed);
    return 0;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
