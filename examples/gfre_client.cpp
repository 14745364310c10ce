// gfre_client — streams a gfre_batch manifest to a running gfre_server.
//
//   gfre_client --socket /tmp/gfre.sock --jobs manifest.txt --out report.jsonl
//
// The manifest grammar is exactly gfre_batch's (core::parse_manifest_line
// parses it here, client-side, so relative netlist paths resolve against
// the manifest's directory before they cross the wire).  Results stream
// back as the fleet resolves them; the JSONL report is written in
// manifest order from the verbatim report lines the workers rendered —
// byte-identical fields to a local gfre_batch run of the same manifest,
// volatile timing fields aside.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.hpp"
#include "serve/wire.hpp"
#include "serve/worker.hpp"
#include "util/error.hpp"
#include "util/jsonl.hpp"
#include "util/options.hpp"

namespace {

void usage(std::ostream& os) {
  os << "usage: gfre_client (--socket PATH | --tcp PORT)\n"
     << "                   [--jobs manifest] [--out report.jsonl]\n"
     << "                   [--ports a,b,z] [--max-terms N]\n"
     << "                   [--library cells.lib]\n"
     << "                   [--deadline-ms N] [--no-verify]\n"
     << "                   [--stats] [--drain] [--ping]\n"
     << "                   [--quiet] [--help]\n"
     << "\n"
     << "  --socket PATH      connect to a gfre_server UNIX socket\n"
     << "  --tcp PORT         connect to 127.0.0.1:PORT instead\n"
     << "  --jobs FILE        manifest to stream (gfre_batch grammar);\n"
     << "                     relative paths resolve against the\n"
     << "                     manifest's directory, client-side\n"
     << "  --out FILE         write per-job results as JSON lines, in\n"
     << "                     manifest order (the workers' verbatim\n"
     << "                     report lines — diffable vs gfre_batch)\n"
     << "  --ports a,b,z      default operand/result port base names\n"
     << "  --max-terms N      default per-bit term budget (0 = unlimited)\n"
     << "  --library FILE     default cell library; resolved server-side,\n"
     << "                     so pass a path the workers can read\n"
     << "  --deadline-ms N    default per-job wall-clock budget in ms\n"
     << "  --no-verify        skip golden-model comparison by default\n"
     << "  --stats            after the jobs (if any), print the server's\n"
     << "                     aggregated worker scheduler counters\n"
     << "  --drain            after the jobs (if any), wait for the\n"
     << "                     server to fully drain\n"
     << "  --ping             just check the server is answering\n"
     << "  --quiet            suppress per-job progress lines\n"
     << "  --help             print this message and exit\n";
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    throw gfre::Error("socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw gfre::Error("socket(): " + std::string(strerror(errno)));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string why = strerror(errno);
    ::close(fd);
    throw gfre::Error("cannot connect to " + path + ": " + why);
  }
  return fd;
}

int connect_tcp(unsigned short port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw gfre::Error("socket(): " + std::string(strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string why = strerror(errno);
    ::close(fd);
    throw gfre::Error("cannot connect to 127.0.0.1:" + std::to_string(port) +
                      ": " + why);
  }
  return fd;
}

/// Everything the reader thread decodes, keyed for the main thread.
struct Session {
  std::mutex mu;
  std::condition_variable cv;
  /// Ack order IS submission order on one connection, so the k-th
  /// `submitted` event maps server id -> manifest index k.
  std::map<std::uint64_t, std::size_t> id_to_index;
  std::size_t acks = 0;
  /// Result events that arrived before their ack (possible for
  /// rejections, whose callback fires inside submit) wait here.
  std::map<std::uint64_t, gfre::serve::WireObject> early_results;
  std::vector<std::optional<gfre::serve::WireObject>> results;
  std::optional<gfre::serve::WireObject> stats_reply;
  bool drained = false;
  bool pong = false;
  bool closed = false;

  void place_result(std::uint64_t id, gfre::serve::WireObject msg) {
    auto it = id_to_index.find(id);
    if (it == id_to_index.end()) {
      early_results.emplace(id, std::move(msg));
      return;
    }
    if (it->second >= results.size()) results.resize(it->second + 1);
    results[it->second] = std::move(msg);
  }
};

void reader_loop(int fd, Session& session) {
  gfre::serve::FdLineReader reader(fd);
  while (auto line = reader.read_line()) {
    if (line->empty()) continue;
    try {
      gfre::serve::WireObject msg = gfre::serve::parse_wire_object(*line);
      const std::string event =
          gfre::serve::require_string(msg, "event");
      std::lock_guard<std::mutex> lock(session.mu);
      if (event == "submitted") {
        const std::uint64_t id = gfre::serve::get_u64(msg, "id");
        session.id_to_index.emplace(id, session.acks++);
        auto early = session.early_results.find(id);
        if (early != session.early_results.end()) {
          session.place_result(id, std::move(early->second));
          session.early_results.erase(early);
        }
      } else if (event == "result") {
        // The id must be read BEFORE the same call moves `msg` — argument
        // evaluation order is unspecified, and gcc builds the by-value
        // parameter (emptying the map) first.
        const std::uint64_t result_id = gfre::serve::get_u64(msg, "id");
        session.place_result(result_id, std::move(msg));
      } else if (event == "stats") {
        session.stats_reply = std::move(msg);
      } else if (event == "drained") {
        session.drained = true;
      } else if (event == "pong") {
        session.pong = true;
      } else if (event == "error") {
        std::fprintf(stderr, "server error: %s\n",
                     gfre::serve::get_string(msg, "message").c_str());
      }
      session.cv.notify_all();
    } catch (const gfre::Error& e) {
      std::fprintf(stderr, "bad server message: %s\n", e.what());
    }
  }
  std::lock_guard<std::mutex> lock(session.mu);
  session.closed = true;
  session.cv.notify_all();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gfre;

  std::string socket_path;
  unsigned short tcp_port = 0;
  std::string manifest;
  std::string out_path;
  bool want_stats = false;
  bool want_drain = false;
  bool want_ping = false;
  bool quiet = false;
  std::uint64_t default_deadline_ms = 0;
  core::FlowOptions defaults;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--socket" && i + 1 < argc) {
        socket_path = argv[++i];
      } else if (arg == "--tcp" && i + 1 < argc) {
        const std::uint64_t port = parse_u64(argv[++i], arg);
        if (port == 0 || port > 65535) {
          std::cerr << "--tcp wants a port in 1..65535\n";
          return 2;
        }
        tcp_port = static_cast<unsigned short>(port);
      } else if (arg == "--jobs" && i + 1 < argc) {
        manifest = argv[++i];
      } else if (arg == "--out" && i + 1 < argc) {
        out_path = argv[++i];
      } else if (arg == "--ports" && i + 1 < argc) {
        const std::string spec = argv[++i];
        const auto c1 = spec.find(',');
        const auto c2 = spec.find(',', c1 + 1);
        if (c1 == std::string::npos || c2 == std::string::npos ||
            spec.find(',', c2 + 1) != std::string::npos) {
          usage(std::cerr);
          return 2;
        }
        defaults.a_base = spec.substr(0, c1);
        defaults.b_base = spec.substr(c1 + 1, c2 - c1 - 1);
        defaults.z_base = spec.substr(c2 + 1);
      } else if (arg == "--max-terms" && i + 1 < argc) {
        defaults.max_terms = parse_u64(argv[++i], arg);
      } else if (arg == "--library" && i + 1 < argc) {
        defaults.library = argv[++i];
      } else if (arg == "--deadline-ms" && i + 1 < argc) {
        default_deadline_ms = parse_u64(argv[++i], arg);
      } else if (arg == "--no-verify") {
        defaults.verify_with_golden = false;
      } else if (arg == "--stats") {
        want_stats = true;
      } else if (arg == "--drain") {
        want_drain = true;
      } else if (arg == "--ping") {
        want_ping = true;
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
  } catch (const InvalidArgument& e) {
    std::cerr << "bad numeric argument: " << e.what() << "\n";
    usage(std::cerr);
    return 2;
  }
  if (socket_path.empty() == (tcp_port == 0)) {
    std::cerr << "pick exactly one of --socket PATH / --tcp PORT\n";
    usage(std::cerr);
    return 2;
  }
  if (manifest.empty() && !want_stats && !want_drain && !want_ping) {
    std::cerr << "nothing to do: give --jobs, --stats, --drain or --ping\n";
    usage(std::cerr);
    return 2;
  }

  try {
    std::signal(SIGPIPE, SIG_IGN);
    const int fd = socket_path.empty() ? connect_tcp(tcp_port)
                                       : connect_unix(socket_path);
    Session session;
    // RAII so the reader joins on EVERY exit path — including exceptions
    // thrown below (a joinable thread's destructor is std::terminate).
    struct ReaderGuard {
      int fd;
      std::thread thread;
      ~ReaderGuard() {
        ::shutdown(fd, SHUT_RDWR);
        thread.join();
        ::close(fd);
      }
    } reader{fd, std::thread([fd, &session] { reader_loop(fd, session); })};
    const auto finish = [](int code) { return code; };
    const auto wait_or_eof = [&](auto predicate) {
      std::unique_lock<std::mutex> lock(session.mu);
      session.cv.wait(lock, [&] { return session.closed || predicate(); });
      return !session.closed || predicate();
    };

    if (want_ping) {
      serve::write_line(fd, R"({"op": "ping"})");
      if (!wait_or_eof([&] { return session.pong; })) {
        std::cerr << "server closed the connection without a pong\n";
        return finish(2);
      }
      if (!quiet) std::printf("pong\n");
      if (manifest.empty() && !want_stats && !want_drain) return finish(0);
    }

    std::size_t submitted = 0;
    std::vector<std::string> names;
    if (!manifest.empty()) {
      std::ifstream in(manifest);
      if (!in) throw Error("cannot open manifest '" + manifest + "'");
      const std::string base =
          std::filesystem::path(manifest).parent_path().string();
      std::string line;
      int lineno = 0;
      while (std::getline(in, line)) {
        ++lineno;
        auto job =
            core::parse_manifest_line(line, lineno, manifest, base, defaults);
        if (!job.has_value()) continue;
        if (job->deadline_ms == 0) job->deadline_ms = default_deadline_ms;
        if (job->name.empty()) job->name = job->path;
        names.push_back(job->name);
        // The id field here is a client-side ordinal; the server assigns
        // the real id and returns it in the `submitted` ack.
        if (!serve::write_line(
                fd, serve::submit_message(submitted + 1, *job))) {
          throw Error("connection lost while submitting");
        }
        ++submitted;
      }
      if (submitted == 0) throw Error("manifest lists no jobs");

      if (!wait_or_eof([&] {
            if (session.acks < submitted) return false;
            std::size_t resolved = 0;
            for (std::size_t i = 0; i < session.results.size(); ++i)
              resolved += session.results[i].has_value();
            return resolved >= submitted;
          })) {
        std::cerr << "server closed the connection mid-run ("
                  << submitted << " submitted)\n";
        return finish(2);
      }
    }

    if (want_drain) {
      serve::write_line(fd, R"({"op": "drain"})");
      if (!wait_or_eof([&] { return session.drained; })) return finish(2);
      if (!quiet) std::printf("server drained\n");
    }
    if (want_stats) {
      serve::write_line(fd, R"({"op": "stats"})");
      if (!wait_or_eof([&] { return session.stats_reply.has_value(); }))
        return finish(2);
      std::lock_guard<std::mutex> lock(session.mu);
      const serve::WireObject& stats = *session.stats_reply;
      // One line, grep-friendly — the CI warm-run check reads these.
      std::printf("server stats: %llu jobs, %llu succeeded, %llu disk "
                  "hits, %llu disk misses, %llu stores, %llu cones "
                  "extracted (%llu workers reporting)\n",
                  static_cast<unsigned long long>(
                      serve::get_u64(stats, "jobs")),
                  static_cast<unsigned long long>(
                      serve::get_u64(stats, "succeeded")),
                  static_cast<unsigned long long>(
                      serve::get_u64(stats, "disk_hits")),
                  static_cast<unsigned long long>(
                      serve::get_u64(stats, "disk_misses")),
                  static_cast<unsigned long long>(
                      serve::get_u64(stats, "disk_stores")),
                  static_cast<unsigned long long>(
                      serve::get_u64(stats, "cones_extracted")),
                  static_cast<unsigned long long>(
                      serve::get_u64(stats, "workers_reporting")));
    }

    bool all_ok = true;
    if (submitted != 0) {
      std::lock_guard<std::mutex> lock(session.mu);
      std::optional<JsonlWriter> writer;
      if (!out_path.empty()) writer.emplace(out_path);
      std::size_t ok = 0, failed = 0, worker_failed = 0, cache_hits = 0;
      for (std::size_t i = 0; i < submitted; ++i) {
        const serve::WireObject& result = *session.results[i];
        const bool job_ok = serve::get_bool(result, "ok");
        const std::string line = serve::require_string(result, "line");
        all_ok = all_ok && job_ok;
        ok += job_ok;
        failed += !job_ok;
        worker_failed += line.find("\"worker_failed") != std::string::npos;
        cache_hits += serve::get_bool(result, "cache_hit");
        if (!quiet)
          std::printf("  [%s] %-40s (worker %llu, attempt %llu)\n",
                      job_ok ? "ok" : "FAILED", names[i].c_str(),
                      static_cast<unsigned long long>(
                          serve::get_u64(result, "worker")),
                      static_cast<unsigned long long>(
                          serve::get_u64(result, "attempts")));
        if (writer.has_value()) writer->write_raw(line);
      }
      bool report_written = true;
      if (writer.has_value()) {
        writer->close();
        report_written = writer->ok();
        std::printf("wrote %zu result lines to %s%s\n",
                    writer->lines_written(), out_path.c_str(),
                    report_written ? "" : " (WRITE ERROR)");
      }
      std::printf("client: %zu jobs via server — %zu ok, %zu failed "
                  "(%zu worker_failed), %zu cache hits\n",
                  submitted, ok, failed, worker_failed, cache_hits);
      if (!report_written) return finish(2);
    }
    return finish(all_ok ? 0 : 1);
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
