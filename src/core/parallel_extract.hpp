// Theorem-2 parallel extraction: every output bit's backward rewriting is
// independent (cancellations never cross logic cones), so the m extractions
// run in n threads — the paper's "reverse engineer ... in n threads".
//
// extract_outputs is the bare extraction for callers that time or inspect
// Algorithm 1 alone (benches, tests).  The flow itself does not call it:
// reverse_engineer and the batch engine both run each cone as a
// core::BatchScheduler task (core/scheduler.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "anf/anf.hpp"
#include "core/rewriter.hpp"
#include "netlist/netlist.hpp"

namespace gfre::core {

struct ExtractionResult {
  /// anfs[i] is the ANF of outputs[i] passed to extract_outputs.
  std::vector<anf::Anf> anfs;
  /// Per-bit rewriting statistics (Figure 4's series is per_bit[i].seconds).
  std::vector<RewriteStats> per_bit;
  /// Wall-clock time for the whole parallel extraction.
  double wall_seconds = 0.0;
  /// Sum of per-bit peak term counts — an engine-level memory proxy that
  /// works identically on every platform (unlike RSS).
  std::size_t total_peak_terms = 0;
  unsigned threads = 1;
};

/// Extracts the ANFs of the given output nets in parallel.  `max_terms`
/// bounds the live-monomial count of each bit's rewriting (0 = unlimited);
/// when any bit exceeds it, the whole extraction throws TermBudgetExceeded.
/// With threads > 1 every bit still runs to completion first, and the
/// exception rethrown is the lowest-index bit's — the one threads == 1
/// stops at — so the message does not depend on the thread count.
ExtractionResult extract_outputs(const nl::Netlist& netlist,
                                 const std::vector<nl::Var>& outputs,
                                 unsigned threads,
                                 RewriteStrategy strategy =
                                     RewriteStrategy::Packed,
                                 std::size_t max_terms = 0);

/// Convenience: all declared primary outputs of the netlist.
ExtractionResult extract_all_outputs(const nl::Netlist& netlist,
                                     unsigned threads,
                                     RewriteStrategy strategy =
                                         RewriteStrategy::Packed,
                                     std::size_t max_terms = 0);

}  // namespace gfre::core
