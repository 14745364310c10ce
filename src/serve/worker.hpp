// Worker side of the serving tier — one forked process per worker.
//
// The coordinator (serve/coordinator.hpp) forks N of these, each holding
// one end of a socketpair.  worker_main() is the child's entire life: read
// job lines off the socket, run them through a private BatchScheduler
// (its own worker threads, its own in-memory memo) against the SHARED
// on-disk ResultCache directory, and write one result event line back per
// job.  Process isolation is the point: a worker that segfaults, OOMs or
// is killed takes only its in-flight jobs with it, and the coordinator
// detects the death as socket EOF + waitpid and requeues.
//
// EOF on the socket is the shutdown signal — the worker drains its
// scheduler for a bounded grace period and exits 0.  No signals are used
// for orderly shutdown (SIGTERM stays at its killing default precisely so
// tests and operators can kill a worker and exercise the recovery path).
#pragma once

#include <cstdint>
#include <string>

#include "core/batch.hpp"
#include "serve/wire.hpp"

namespace gfre::serve {

/// Decodes a submit message (fields: path required; name, ports "a,b,z",
/// infer, verify, permute, max_terms, library, deadline_ms, priority
/// optional) into a BatchJob.  Throws gfre::Error on bad fields.  The
/// inverse of submit_message; also used by the server to decode client
/// submissions, so client -> server -> worker is one codec, not three.
core::BatchJob job_from_wire(const WireObject& msg);

/// Encodes `job` as a submit op for worker/server consumption.  All
/// FlowOptions fields are encoded explicitly (defaults included), so the
/// receiving process runs the job bit-identically regardless of its own
/// compiled-in defaults.
std::string submit_message(std::uint64_t id, const core::BatchJob& job);

struct WorkerConfig {
  /// Extraction pool width inside this worker process.
  unsigned threads = 1;
  /// Shared persistent cache directory ("" = no disk cache).
  std::string cache_dir;
  std::uint64_t cache_cap_bytes = 0;
  std::uint64_t cache_negative_ttl_seconds = 0;
  /// Grace for draining in-flight jobs after EOF, in milliseconds.
  std::uint64_t drain_grace_ms = 30000;
};

/// Runs the worker protocol loop over `fd` (both directions) until EOF,
/// then drains and returns the process exit code (0 = clean).  Never
/// returns on fatal I/O setup errors — exits directly.  The caller (the
/// forked child in the coordinator) must pass a socketpair end whose peer
/// is the coordinator; the worker ignores SIGINT/SIGPIPE and leaves
/// SIGTERM lethal.
int worker_main(int fd, const WorkerConfig& config);

}  // namespace gfre::serve
