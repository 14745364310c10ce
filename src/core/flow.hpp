// End-to-end reverse-engineering flow — the paper's complete pipeline:
//
//   gate-level netlist
//     -> per-output-bit backward rewriting in n threads   (Alg. 1, Thm. 2)
//     -> irreducible polynomial recovery                   (Alg. 2, Thm. 3)
//     -> reduction-matrix validation & classification      (extension)
//     -> golden-model equivalence check                    (Section I)
//
// This is the public entry point the examples and benches use.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/parallel_extract.hpp"
#include "core/redmatrix.hpp"
#include "core/verify.hpp"
#include "netlist/netlist.hpp"
#include "netlist/ports.hpp"

namespace gfre::core {

struct FlowOptions {
  unsigned threads = 1;
  /// Library-level only (tests, the ablation bench): no CLI, manifest key
  /// or wire field sets it.  Hashed into every cache key by its pinned
  /// enum value (core/rewriter.hpp).
  RewriteStrategy strategy = RewriteStrategy::Packed;
  /// Skip the golden comparison (used by benches that only time
  /// extraction, matching the paper's reported "extraction" runtimes).
  bool verify_with_golden = true;
  /// Discover the operand/result ports from the netlist's word structure
  /// instead of using the base names below (extension).
  bool infer_ports = false;
  /// When the declared output order does not form a multiplier, try to
  /// recover the bit permutation from the in-field product sets and re-run
  /// the analysis (extension; see core/permutation.hpp).
  bool try_output_permutation = true;
  /// Operand/result port base names (ignored when infer_ports is set).
  std::string a_base = "a";
  std::string b_base = "b";
  std::string z_base = "z";
  /// Per-output-bit live-monomial budget for backward rewriting (0 =
  /// unlimited).  Non-multiplier inputs can blow up exponentially; with a
  /// budget the flow returns success=false with a diagnosis instead of
  /// exhausting memory — the wall the fuzz suite and the batch service
  /// lean on.
  std::size_t max_terms = 0;
  /// Path to a cell-library file (frontend/cell_library.hpp) used when a
  /// file-backed job's netlist instantiates cells outside the builtin set.
  /// Empty = builtin cells only.  Deliberately NOT part of
  /// walk_report_options: cache keys must cover the library's CONTENT,
  /// not its path — the scheduler mixes the library file's bytes into
  /// both keyspaces itself (see core/scheduler.cpp and
  /// ResultCache::key_for_file).
  std::string library;
};

struct FlowReport {
  unsigned m = 0;
  std::size_t equations = 0;  ///< the paper's "#eqns" column

  /// Algorithm 2 result (Theorem 3 membership test, verbatim).
  gf2::Poly algorithm2_p;

  /// Extended recovery (classification + consistency checking).
  RecoveryReport recovery;

  /// Set when the declared output order was scrambled and the flow
  /// recovered it: output_permutation[i] is the index (in declared output
  /// order) of true bit i.
  std::optional<std::vector<unsigned>> output_permutation;

  /// Golden-model comparison (when enabled and a P(x) was recovered).
  VerifyResult verification;

  /// Extraction timings/statistics (per-bit stats feed Figure 4).  The
  /// answer holds no ANFs: analyze_extraction consumes them, so no flow
  /// path (reverse_engineer, the scheduler, its memo, the disk cache, the
  /// fleet) fills `extraction.anfs`, and core/report_io ignores it.
  /// Callers that need the ANFs call extract_outputs directly.
  ExtractionResult extraction;

  double total_seconds = 0.0;
  std::uint64_t rss_peak_bytes = 0;   ///< VmHWM after the flow (0 if N/A)
  std::uint64_t rss_after_bytes = 0;  ///< VmRSS after the flow (0 if N/A)

  /// Best available memory figure: the RSS high-water mark when the kernel
  /// provides one, otherwise max(current RSS, engine live-monomial
  /// estimate).  This feeds the paper tables' "Mem" column.
  std::uint64_t memory_bytes() const;

  /// True when the flow succeeded end to end: a multiplier was recognized,
  /// its P(x) is irreducible, rows are consistent, and (if run) the golden
  /// check passed.
  bool success = false;

  std::string summary() const;
};

/// Runs the full flow on a multiplier netlist: one in-memory job submitted
/// to a private core::BatchScheduler with `options.threads` workers and no
/// memoization, waited on, and returned with total_seconds set (defined in
/// core/batch.cpp next to run_batch).  Throws InvalidArgument when
/// `options.threads` is 0.
///
/// Thread safety: reentrant — concurrent calls on distinct (or even the
/// same, never-mutated) netlists are safe; all parallelism is internal
/// (`options.threads` worker threads per call, joined before return).
/// The returned FlowReport is a self-contained value: serialize it with
/// core/report_io.hpp, persist it with core/result_cache.hpp.  For many
/// netlists prefer core::run_batch / core::BatchScheduler, which share
/// one set of workers across jobs.
FlowReport reverse_engineer(const nl::Netlist& netlist,
                            const FlowOptions& options = {});

// ---------------------------------------------------------------------------
// Flow phases.  The batch scheduler (core/scheduler.cpp) drives these around
// its per-cone extraction tasks.
// ---------------------------------------------------------------------------

/// Resolves the multiplier interface (named ports or inference).  On
/// failure returns nullopt and fills `failure` with the diagnosed
/// success=false report.
std::optional<nl::MultiplierPorts> resolve_flow_ports(
    const nl::Netlist& netlist, const FlowOptions& options,
    FlowReport* failure);

/// Phases 2-4 on already-extracted ANFs: Algorithm 2, reduction-matrix
/// recovery/classification, output-permutation retry, golden verification
/// and the success verdict.  Consumes `extraction.anfs`: the returned
/// report keeps the per-bit stats and timings but no ANFs.  Timing/RSS
/// fields are left for the caller.
FlowReport analyze_extraction(const nl::Netlist& netlist,
                              const nl::MultiplierPorts& ports,
                              ExtractionResult extraction,
                              const FlowOptions& options);

/// The diagnosed failure report for an extraction that threw (term budget,
/// deadline, invariant violation).
FlowReport extraction_failure_report(const nl::Netlist& netlist,
                                     const nl::MultiplierPorts& ports,
                                     const std::string& what);

}  // namespace gfre::core
