// Persistent cross-batch result cache — extractions survive the process.
//
// The paper's workload is verify-many-variants: the same GF(2^m) netlists
// are re-extracted across CI runs and regression sweeps, and the follow-up
// parallel-verification work (arXiv:1802.06870) shows the real win is
// never redoing an extraction you have already done.  The batch scheduler
// memoizes within one process; this class is the next layer — an on-disk,
// content-addressed store of completed FlowReports that makes a warm run
// over an unchanged manifest perform zero extractions.
//
// Design:
//  - Keys are SHA-256 (util/sha256.hpp) over a domain-tagged canonical
//    byte stream: raw file bytes for file jobs, a structural walk for
//    in-memory netlists, then the flow-option signature.  Cryptographic —
//    unlike the in-process 128-bit multiply-xor key, a hostile netlist
//    cannot be crafted to collide with another entry, so one cache dir
//    can be shared across tenants/branches.  Derivation is specified
//    byte-by-byte in docs/CACHE_FORMAT.md.
//  - One entry per key: <dir>/<64-hex>.rpt, containing a header (magic,
//    schema version, payload length, SHA-256 payload digest) and the
//    serialized outcome (core/report_io.hpp).  The digest authenticates
//    the payload, so a torn write or bit rot is detected, quarantined
//    under <dir>/quarantine/, and reported as a miss — never a crash,
//    never a wrong report.
//  - Writes are crash-safe: serialize to <dir>/<key>.tmp.<pid>.<seq>,
//    then atomically rename over the final name.  Readers see either the
//    old entry or the new one, and two processes (or two schedulers in
//    one process) can share a cache dir with no coordination.
//  - Invalidation: flow options are part of the key; the report schema
//    version lives in the entry header, so a build with a different
//    kReportSchemaVersion treats every old entry as a stale miss and
//    overwrites it on store.
//  - Eviction: prune(max_total_bytes) deletes stale-version and
//    quarantined entries first, then the oldest live entries (by last
//    write time) until the directory fits the budget.  gfre_batch exposes
//    it as --cache-prune.  Constructing with max_bytes > 0 additionally
//    enforces the budget at store() time: when the (approximate, cheaply
//    tracked) directory size crosses the cap, the storing thread runs the
//    same prune — so a long-running service never overshoots the budget
//    until someone remembers to prune explicitly.
//
// Thread safety: every public method is safe to call concurrently from
// any thread (scheduler workers do).  lookup/store synchronize through
// the filesystem (atomic rename); the hit/miss/store counters are under
// an internal mutex.
//
// This class does not decide *what* to cache — core::BatchScheduler does
// (wire one in via BatchOptions::result_cache); it can also be used
// standalone as a report store.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "core/flow.hpp"
#include "netlist/netlist.hpp"

namespace gfre::core {

/// What the cache stores per key: a completed flow report, or the
/// diagnosed job-level error ("error" non-empty, report blank).  The
/// scheduler's in-memory memo holds the same type, so a memo or disk hit
/// replays exactly what the original run produced.
struct CachedOutcome {
  FlowReport report;
  std::string error;
};

class ResultCache {
 public:
  /// Lifetime counters (monotonic; snapshot via stats()).
  struct Stats {
    std::size_t hits = 0;         ///< lookups served from disk
    std::size_t misses = 0;       ///< lookups with no usable entry
    std::size_t stores = 0;       ///< entries written
    std::size_t quarantined = 0;  ///< corrupt entries moved aside
    std::size_t stale = 0;        ///< entries rejected for schema version
    std::size_t autoprunes = 0;   ///< store-time cap enforcements (prunes)
    std::size_t expired = 0;      ///< negative entries past their TTL
    /// Crashed-writer tmp files swept by the constructor scan (entries
    /// older than the 10-minute write grace window).  prune() sweeps the
    /// same debris on demand; the constructor sweep keeps a long-lived
    /// daemon's shared directory from accumulating it across worker
    /// crashes without anyone ever calling prune.
    std::size_t tmp_swept = 0;
  };

  /// What prune() did.
  struct PruneReport {
    std::size_t entries_removed = 0;
    std::uint64_t bytes_removed = 0;
    std::size_t entries_kept = 0;
    std::uint64_t bytes_kept = 0;
  };

  /// Opens (creating if needed) the cache directory.  Throws gfre::Error
  /// when the directory cannot be created or is not writable.
  /// `max_bytes` > 0 arms store-time cap enforcement: the directory is
  /// sized once here, the running total is tracked approximately across
  /// stores, and a store that crosses the cap runs prune(max_bytes)
  /// before returning.  0 keeps eviction explicit (prune() only).
  /// `negative_ttl_seconds` > 0 expires *negative* entries — diagnosed
  /// parse/port errors, the `error`-armed CachedOutcome — once they are
  /// older than the TTL: the input file may have been fixed in place, and
  /// unlike successful extractions (content-addressed, eternally valid) a
  /// diagnosis only describes the bytes as they were.  0 (the default)
  /// keeps negative entries forever, matching content-hash semantics.
  explicit ResultCache(std::string dir, std::uint64_t max_bytes = 0,
                       std::uint64_t negative_ttl_seconds = 0);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  // -- Key derivation (docs/CACHE_FORMAT.md "Key derivation") --------------

  /// Key for a file-backed job: SHA-256 over the raw netlist bytes (the
  /// very buffer that gets parsed), the cell-library bytes when the job
  /// parses against one (FlowOptions::library names the file; its CONTENT
  /// is keyed, so editing the library invalidates entries), + option
  /// signature.
  static std::string key_for_file(std::string_view netlist_bytes,
                                  const FlowOptions& options,
                                  std::string_view library_bytes = {});

  /// Key for an in-memory job: SHA-256 over a canonical structural walk of
  /// the netlist (names, cells, wiring, outputs) + option signature.
  static std::string key_for_netlist(const nl::Netlist& netlist,
                                     const FlowOptions& options);

  // -- Entry access --------------------------------------------------------

  /// Returns the stored outcome for `key`, or nullopt on miss.  A corrupt
  /// or truncated entry is quarantined and reported as a miss; an entry
  /// written by a different schema version is left in place (store()
  /// overwrites it) and reported as a miss.
  std::optional<CachedOutcome> lookup(const std::string& key);

  /// Atomically (over)writes the entry for `key`.  Returns false — without
  /// throwing — when the write fails (full disk, permissions): a cache
  /// store failure must never fail the job whose result it was memoizing.
  bool store(const std::string& key, const FlowReport& report,
             const std::string& error = {});

  /// Deletes quarantine files, abandoned temp files (past a grace window
  /// that protects concurrent in-flight stores) and entries whose header
  /// is stale or garbled (an O(1) check — payloads are never re-read),
  /// then the oldest live entries until the total size fits
  /// `max_total_bytes` (0 = delete everything).  Entries that refuse to
  /// delete remain counted in bytes_kept.  Safe to run concurrently with
  /// lookups/stores, including from another process.
  PruneReport prune(std::uint64_t max_total_bytes);

  Stats stats() const;

  const std::string& dir() const { return dir_; }

 private:
  std::string entry_path(const std::string& key) const;
  void quarantine(const std::string& path);

  std::string dir_;
  /// Store-time budget; 0 = explicit prune only.
  std::uint64_t max_bytes_ = 0;
  /// Age past which an error entry is a miss; 0 = never expires.
  std::uint64_t negative_ttl_seconds_ = 0;
  mutable std::mutex mu_;
  Stats stats_;
  /// Approximate on-disk total (live entries), kept under mu_.  Seeded by
  /// the constructor scan, advanced per store, resynced to the exact
  /// bytes_kept after every prune — drift between prunes is bounded by
  /// concurrent writers in other processes, which the next prune absorbs.
  std::uint64_t approx_bytes_ = 0;
  /// True while some thread runs a store-triggered prune, so concurrent
  /// stores do not stack redundant directory sweeps.
  bool pruning_ = false;
};

}  // namespace gfre::core
