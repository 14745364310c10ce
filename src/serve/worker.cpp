#include "serve/worker.hpp"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "core/batch.hpp"
#include "core/report_json.hpp"
#include "core/result_cache.hpp"
#include "core/scheduler.hpp"
#include "serve/wire.hpp"
#include "util/error.hpp"
#include "util/jsonl.hpp"

namespace gfre::serve {

// The wire carries exactly the manifest-line option set (the client
// already resolved relative paths), so a job routed through the server
// runs with the same FlowOptions a gfre_batch run of the same manifest
// would use — that is what makes the two JSONL reports diffable.
core::BatchJob job_from_wire(const WireObject& msg) {
  core::BatchJob job;
  job.path = require_string(msg, "path");
  job.name = get_string(msg, "name");
  if (job.name.empty()) job.name = job.path;

  core::FlowOptions& opt = job.options;
  if (const std::string ports = get_string(msg, "ports"); !ports.empty())
    core::parse_port_spec(ports, opt);
  opt.infer_ports = get_bool(msg, "infer", opt.infer_ports);
  opt.verify_with_golden = get_bool(msg, "verify", opt.verify_with_golden);
  opt.try_output_permutation =
      get_bool(msg, "permute", opt.try_output_permutation);
  opt.max_terms = get_u64(msg, "max_terms", opt.max_terms);
  opt.library = get_string(msg, "library");
  job.deadline_ms = get_u64(msg, "deadline_ms", 0);
  if (const std::string priority = get_string(msg, "priority");
      !priority.empty()) {
    const auto parsed = core::priority_from_name(priority);
    if (!parsed.has_value())
      throw Error("unknown priority '" + priority + "'");
    job.priority = *parsed;
  }
  return job;
}

std::string submit_message(std::uint64_t id, const core::BatchJob& job) {
  JsonLine line;
  line.add("op", "submit");
  line.add("id", id);
  line.add("path", job.path);
  line.add("name", job.name);
  const core::FlowOptions& opt = job.options;
  line.add("ports", opt.a_base + "," + opt.b_base + "," + opt.z_base);
  line.add("infer", opt.infer_ports);
  line.add("verify", opt.verify_with_golden);
  line.add("permute", opt.try_output_permutation);
  line.add("max_terms", static_cast<std::uint64_t>(opt.max_terms));
  if (!opt.library.empty()) line.add("library", opt.library);
  line.add("deadline_ms", job.deadline_ms);
  line.add("priority", core::to_string(job.priority));
  return line.render();
}

namespace {

/// Result event: the verbatim JSONL report line travels as an escaped
/// string so the coordinator/client can emit it byte-for-byte without
/// re-encoding (double formatting would drift on a re-render).
std::string result_event(std::uint64_t id, const core::BatchJobResult& r) {
  JsonLine line;
  line.add("event", "result");
  line.add("id", id);
  line.add("ok", r.ok);
  line.add("rejected", r.rejected);
  line.add("cancelled", r.cancelled);
  line.add("cache_hit", r.cache_hit);
  line.add("line", core::result_json_line(r).render());
  return line.render();
}

}  // namespace

int worker_main(int fd, const WorkerConfig& config) {
  // A dead coordinator must surface as a failed write, not a process kill;
  // SIGINT at the terminal belongs to the server's drain logic, not to the
  // workers (the server forwards shutdown as socket EOF).  SIGTERM keeps
  // its lethal default on purpose — see the header.
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGINT, SIG_IGN);

  core::BatchOptions options;
  options.threads = config.threads == 0 ? 1 : config.threads;
  if (!config.cache_dir.empty()) {
    try {
      options.result_cache = std::make_shared<core::ResultCache>(
          config.cache_dir, config.cache_cap_bytes,
          config.cache_negative_ttl_seconds);
    } catch (const Error& e) {
      std::fprintf(stderr, "worker: cannot open cache: %s\n", e.what());
      return 3;
    }
  }

  core::BatchScheduler scheduler(options);
  std::mutex write_mu;  // result callbacks fire on scheduler threads

  const auto send = [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(write_mu);
    // A write failure means the coordinator is gone; results have nowhere
    // to go, but in-flight extractions still complete into the shared
    // disk cache, so the work is not lost — the retry will replay it.
    (void)write_line(fd, line);
  };

  FdLineReader reader(fd);
  std::map<std::uint64_t, core::BatchScheduler::JobHandle> handles;
  std::mutex handles_mu;

  for (;;) {
    auto line = reader.read_line();
    if (!line.has_value()) break;  // coordinator closed: drain and exit
    if (line->empty()) continue;

    std::uint64_t id = 0;
    try {
      const WireObject msg = parse_wire_object(*line);
      const std::string op = require_string(msg, "op");

      if (op == "submit") {
        id = get_u64(msg, "id");
        core::BatchJob job = job_from_wire(msg);
        const auto on_complete = [&, id](const core::BatchJobResult& r) {
          send(result_event(id, r));
          std::lock_guard<std::mutex> lock(handles_mu);
          handles.erase(id);
        };
        // Admission belongs to the coordinator alone.  It frees a job's
        // slot when the result event arrives, before this scheduler has
        // retired the job, so a second cap here would still count the job
        // and reject the one that refills the slot.  Unbounded, submit
        // never blocks this read loop.
        auto ticket = scheduler.submit(std::move(job), on_complete);
        if (ticket.handle != 0) {
          std::lock_guard<std::mutex> lock(handles_mu);
          // The callback may already have fired for fast jobs; don't
          // resurrect the entry it erased.
          if (ticket.result.wait_for(std::chrono::seconds(0)) !=
              std::future_status::ready)
            handles.emplace(id, ticket.handle);
        }
      } else if (op == "cancel") {
        id = get_u64(msg, "id");
        core::BatchScheduler::JobHandle handle = 0;
        {
          std::lock_guard<std::mutex> lock(handles_mu);
          auto it = handles.find(id);
          if (it != handles.end()) handle = it->second;
        }
        // A successful cancel resolves the job through its completion
        // callback, which emits the result event; an unknown/running id
        // needs no reply — the real result is coming.
        if (handle != 0) (void)scheduler.cancel(handle);
      } else if (op == "stats") {
        const core::BatchStats s = scheduler.stats();
        JsonLine reply;
        reply.add("event", "stats");
        reply.add("token", get_u64(msg, "token"));
        reply.add("jobs", s.jobs);
        reply.add("succeeded", s.succeeded);
        reply.add("failed", s.failed);
        reply.add("load_errors", s.load_errors);
        reply.add("cancelled", s.cancelled);
        reply.add("rejected", s.rejected);
        reply.add("deadline_exceeded", s.deadline_exceeded);
        reply.add("cache_hits", s.cache_hits);
        reply.add("disk_hits", s.disk_hits);
        reply.add("disk_misses", s.disk_misses);
        reply.add("disk_stores", s.disk_stores);
        reply.add("cones_extracted", s.cones_extracted);
        reply.add("queue_peak", s.queue_peak);
        send(reply.render());
      } else {
        throw Error("unknown op '" + op + "'");
      }
    } catch (const Error& e) {
      // Protocol errors on a submit resolve that id (the coordinator is
      // waiting on it); otherwise they are logged and the stream goes on —
      // one malformed message must not wedge the worker.
      if (id != 0) {
        core::BatchJobResult r;
        r.name = "job#" + std::to_string(id);
        r.error = std::string("worker protocol error: ") + e.what();
        send(result_event(id, r));
      } else {
        std::fprintf(stderr, "worker: protocol error: %s\n", e.what());
      }
    }
  }

  const bool clean = scheduler.drain_for(
      std::chrono::milliseconds(config.drain_grace_ms));
  return clean ? 0 : 4;
}

}  // namespace gfre::serve
