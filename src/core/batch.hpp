// Batch reverse-engineering engine — many netlists, one shared pool.
//
// The paper parallelizes backward rewriting per output bit *within* one
// circuit (Theorem 2); a production verification workload has many circuits
// in flight at once.  This engine accepts N jobs (netlist file or in-memory
// netlist, each with its own FlowOptions) and executes them over ONE shared
// worker fleet at cone granularity: output-bit extraction tasks from
// different circuits interleave on the same workers, so a straggler cone in
// one job never idles the pool the way per-job `parallel_extract` ownership
// would.  Workers keep affinity with the job they last served (the netlist
// is hot in cache) and steal cones from other in-flight jobs when their own
// runs dry.
//
// Results are memoized by netlist content hash + flow-option signature —
// file bytes for file jobs (hashed from the same single read that is
// parsed, so a file rewritten mid-batch cannot poison the cache), a
// structural hash for in-memory jobs.  Submitting the same netlist twice
// costs one read and one extraction; the duplicate returns the cached
// FlowReport and is marked cache_hit.  Failures are isolated per job — a
// corrupt file, a missing port or a term-budget blowup fails that job's
// result and nothing else.
//
// `run_batch` below is the submit-all-then-wait entry point; it is a thin
// wrapper over the long-lived core::BatchScheduler (core/scheduler.hpp),
// which additionally offers incremental submission, per-job futures,
// completion callbacks and cancellation.  core::reverse_engineer is the
// other thin wrapper: one in-memory job on a private scheduler.  So a job's
// FlowReport is the same whether it runs alone or in a batch (timing/RSS
// fields aside) because both run the one scheduler path.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/flow.hpp"
#include "netlist/netlist.hpp"

namespace gfre::core {

class ResultCache;

/// Admission class of a job.  The scheduler serves classes strictly in
/// order (High before Normal before Low) at every claim point — setup,
/// affinity, stealing — and FIFO within a class; priority never preempts a
/// cone that already started.  Priority is scheduling metadata only: it is
/// NOT part of the memoization key, so a High and a Low submission of the
/// same netlist still deduplicate.
enum class JobPriority {
  High,
  Normal,
  Low,
};

/// Canonical lower-case name ("high", "normal", "low").
const char* to_string(JobPriority priority);

/// Inverse of to_string (case-insensitive).
std::optional<JobPriority> priority_from_name(std::string_view name);

/// One reverse-engineering job: a netlist file path (.eqn/.blif/.v) or an
/// in-memory netlist (which takes precedence), plus per-job flow options.
/// FlowOptions::threads is ignored — parallelism belongs to the batch pool.
struct BatchJob {
  std::string name;  ///< label; defaulted from path/netlist
  std::string path;  ///< file-backed job
  /// In-memory job.  Shared, so the scheduler reads the caller's netlist
  /// without copying it; the scheduler drops its reference once the job
  /// resolves.
  std::shared_ptr<const nl::Netlist> netlist;
  FlowOptions options;
  /// Wall-clock budget from submission to resolution, in milliseconds;
  /// 0 = no deadline.  A job past its deadline while still queued is
  /// cancelled without running; one past it mid-extraction is soft-aborted
  /// at the next substitution checkpoint (the same checkpoint max_terms
  /// uses) and resolves as a diagnosed deadline_exceeded failure.  Like
  /// priority, the deadline is scheduling metadata — it does not enter the
  /// memoization key, and deadline-exceeded outcomes are never cached (in
  /// memory or on disk): they describe the resource budget, not the
  /// netlist.
  std::uint64_t deadline_ms = 0;
  JobPriority priority = JobPriority::Normal;
};

struct BatchJobResult {
  std::string name;
  std::string path;
  /// Job-level failure before the flow could run (unreadable/unparseable
  /// file).  Empty when the flow ran — then `report` tells the story.
  std::string error;
  bool cache_hit = false;
  /// The job was revoked (BatchScheduler::cancel or scheduler teardown)
  /// before any of it executed; `error` is empty and `report` is blank.
  bool cancelled = false;
  /// try_submit found the bounded queue full; nothing executed, `error`
  /// says so, and the future was fulfilled before try_submit returned.
  bool rejected = false;
  /// The job blew past BatchJob::deadline_ms.  Queued expiry resolves like
  /// a cancellation with a diagnosis in `error`; running expiry resolves
  /// with a diagnosed failure `report` (success=false) identical at any
  /// worker count.  Never stored in either cache.
  bool deadline_exceeded = false;
  /// !cancelled && error.empty() && report.success.
  bool ok = false;
  FlowReport report;
  /// Wall clock from batch/scheduler start to this job's completion.
  double seconds = 0.0;
};

struct BatchOptions {
  /// Shared pool width (>= 1).
  unsigned threads = 1;
  /// Content-hash result memoization.  Scoped to one run_batch call — or,
  /// on a BatchScheduler, to the scheduler's whole lifetime.
  bool memoize = true;
  /// Upper bound on jobs admitted but not yet resolved (queued + running);
  /// 0 = unbounded.  At the bound, BatchScheduler::submit blocks until a
  /// job resolves and try_submit rejects immediately — so a flood of
  /// submissions is backpressured instead of growing the queue without
  /// limit.  Cache hits and duplicates count while unresolved like any
  /// other job.
  std::size_t max_queued = 0;
  /// Entry cap for the in-memory memoization cache, evicted LRU; 0 =
  /// unbounded (the pre-admission-control behavior).  An evicted entry is
  /// not a lost result: the persistent disk layer (result_cache below) is
  /// consulted on every memo miss, including eviction-induced ones.
  std::size_t memo_max_entries = 4096;
  /// Optional persistent cross-process cache (core/result_cache.hpp).
  /// When set (and memoize is on — the disk layer sits behind the
  /// in-memory one), every in-memory miss consults the disk store before
  /// extracting, and every completed outcome is written back, keyed by
  /// SHA-256 of the netlist content + option signature.  Shared_ptr so
  /// several schedulers — even in different threads — can share one cache
  /// object; distinct processes coordinate through the directory itself
  /// (atomic renames), so pointing two runs at one dir is also safe.
  std::shared_ptr<ResultCache> result_cache;
};

struct BatchStats {
  std::size_t jobs = 0;          ///< submitted
  std::size_t succeeded = 0;     ///< results with ok
  std::size_t failed = 0;        ///< flow ran, success=false
  std::size_t load_errors = 0;   ///< file unreadable/unparseable
  std::size_t cancelled = 0;     ///< revoked before running
  std::size_t rejected = 0;      ///< try_submit bounced off a full queue
  /// Jobs resolved by their BatchJob::deadline_ms budget — expired while
  /// queued or soft-aborted mid-extraction.  Disjoint from `cancelled`.
  std::size_t deadline_exceeded = 0;
  std::size_t cache_hits = 0;    ///< results served from in-memory memoization
  /// Persistent-cache traffic (zero unless BatchOptions::result_cache is
  /// set).  disk_hits counts jobs whose outcome was replayed from disk;
  /// disk_misses counts extractions that went ahead after consulting the
  /// store; disk_stores counts outcomes written back.  A fully warm run
  /// over an unchanged manifest shows cones_extracted == 0 and
  /// disk_hits == every non-duplicate job.
  std::size_t disk_hits = 0;
  std::size_t disk_misses = 0;
  std::size_t disk_stores = 0;
  std::size_t cones_extracted = 0;  ///< output-bit tasks actually rewritten
  /// Cone tasks a worker claimed from a different job than the one it last
  /// served — the cross-circuit interleaving this engine exists for.
  std::size_t cone_steals = 0;
  /// Memo entries evicted by the BatchOptions::memo_max_entries LRU cap.
  std::size_t memo_evictions = 0;
  /// High-water mark of unresolved admitted jobs — what max_queued bounds.
  std::size_t queue_peak = 0;
};

struct BatchReport {
  /// One entry per submitted job, in submission order.
  std::vector<BatchJobResult> results;
  BatchStats stats;
  double wall_seconds = 0.0;
  unsigned threads = 1;

  bool all_ok() const;
};

/// Executes the jobs over one shared pool and waits for all of them; never
/// throws for per-job failures (those land in the job's result).
/// Implemented as a thin wrapper over core::BatchScheduler — submit every
/// job, drain, collect the futures in submission order.
///
/// Thread safety: safe to call concurrently from several threads — each
/// call owns a private scheduler (workers join before return).  The
/// in-memory memo dies with the call; only options.result_cache persists
/// anything, and that object may be shared freely between concurrent
/// calls (see core/result_cache.hpp).
BatchReport run_batch(std::vector<BatchJob> jobs,
                      const BatchOptions& options);

/// 128-bit structural content hash of a netlist (names, cells, wiring,
/// outputs) — the full memoization key domain for in-memory jobs (file
/// jobs hash their raw bytes).  Both words matter: the scheduler memoizes
/// on the pair, so tests asserting hash behavior must compare the pair,
/// not one 64-bit half.
struct NetlistHash {
  std::uint64_t a = 0;  ///< FNV-1a stream
  std::uint64_t b = 0;  ///< independent multiply-xor stream
  bool operator==(const NetlistHash&) const = default;
};

/// Hex rendering ("a:b"), mainly so test failures print something legible.
std::ostream& operator<<(std::ostream& os, const NetlistHash& hash);

NetlistHash netlist_content_hash(const nl::Netlist& netlist);

/// Loads a netlist file, dispatching on CONTENT (frontend::sniff_format)
/// rather than extension — a BLIF netlist named circuit.txt parses fine.
/// `library_path`, when non-empty, names a cell-library file
/// (frontend/cell_library.hpp) resolving non-builtin cells.  Throws
/// ParseError on bad or unrecognizable content, Error on unreadable
/// files.
nl::Netlist load_netlist_file(const std::string& path,
                              const std::string& library_path = {});

/// Parses a batch manifest: one job per line,
///   <netlist-path> [name=X] [ports=a,b,z] [infer=0|1] [verify=0|1]
///                  [permute=0|1] [max_terms=N] [deadline_ms=N]
///                  [priority=high|normal|low] [library=cells.lib]
/// with '#' comments and blank lines ignored.  N is a plain decimal
/// (util/options.hpp parse_u64: no sign, no suffix, no overflow); an
/// unknown or repeated key rejects the line.  Relative paths (netlist
/// and library) resolve against the manifest's directory.  `defaults`
/// seeds every job's options before the per-line overrides apply.  Throws
/// ParseError on bad lines.
std::vector<BatchJob> parse_manifest(const std::string& path,
                                     const FlowOptions& defaults = {});

/// Parses ONE manifest line (the streaming building block parse_manifest
/// loops over; examples/gfre_batch.cpp feeds lines straight into its local
/// or remote backend as they are read).  `lineno` and `manifest_path`
/// shape ParseError locations; relative netlist paths resolve against
/// `base_dir`.  Returns nullopt for blank/comment-only lines; tolerates a
/// trailing '\r' (CRLF manifests).
std::optional<BatchJob> parse_manifest_line(const std::string& line,
                                            int lineno,
                                            const std::string& manifest_path,
                                            const std::string& base_dir,
                                            const FlowOptions& defaults = {});

/// Parses a port-base spec "a,b,z" into options.a_base/b_base/z_base — the
/// one parser behind the manifest's ports= key, the CLIs' --ports flag and
/// the wire's `ports` field, so all three reject alike.  Throws
/// InvalidArgument unless `spec` holds exactly two commas.
void parse_port_spec(const std::string& spec, FlowOptions& options);

}  // namespace gfre::core
