#include "core/flow.hpp"

#include <algorithm>
#include <sstream>

#include "core/product_counts.hpp"
#include "gf2poly/irreducible.hpp"
#include "util/error.hpp"

namespace gfre::core {

std::uint64_t FlowReport::memory_bytes() const {
  if (rss_peak_bytes != 0) return rss_peak_bytes;
  // ~72 bytes per live monomial: two packed var ids, vector header, hash
  // node, and bucket share.  A coarse but platform-independent proxy.
  const std::uint64_t engine_estimate =
      static_cast<std::uint64_t>(extraction.total_peak_terms) * 72;
  return std::max(rss_after_bytes, engine_estimate);
}

std::string FlowReport::summary() const {
  std::ostringstream oss;
  if (m == 0) {
    // Analysis never ran (e.g. port inference found no multiplier
    // interface): only the classification and diagnosis are meaningful.
    oss << "netlist with " << equations << " equations\n";
    oss << "  circuit class : " << to_string(recovery.circuit_class) << "\n";
  } else {
    oss << "GF(2^" << m << ") multiplier, " << equations << " equations\n";
    oss << "  circuit class : " << to_string(recovery.circuit_class) << "\n";
    oss << "  Algorithm 2   : P(x) = " << algorithm2_p.to_string() << "\n";
    oss << "  recovered P(x): " << recovery.p.to_string()
        << (recovery.p_is_irreducible ? " (irreducible)"
                                      : " (NOT irreducible)")
        << "\n";
    oss << "  rows check    : "
        << (recovery.rows_consistent ? "consistent" : "INCONSISTENT") << "\n";
  }
  if (!recovery.diagnosis.empty()) {
    oss << "  diagnosis     : " << recovery.diagnosis << "\n";
  }
  if (output_permutation.has_value()) {
    oss << "  output order  : scrambled — recovered permutation [";
    for (unsigned i = 0; i < output_permutation->size(); ++i) {
      if (i != 0) oss << " ";
      oss << (*output_permutation)[i];
    }
    oss << "]\n";
  }
  oss << "  verification  : " << verification.detail << "\n";
  oss << "  extraction    : " << extraction.wall_seconds << " s in "
      << extraction.threads << " threads\n";
  oss << "  status        : " << (success ? "SUCCESS" : "FAILED") << "\n";
  return oss.str();
}

std::optional<nl::MultiplierPorts> resolve_flow_ports(
    const nl::Netlist& netlist, const FlowOptions& options,
    FlowReport* failure) {
  const auto fail = [&](const std::string& diagnosis) {
    if (failure != nullptr) {
      *failure = FlowReport{};
      failure->equations = netlist.num_equations();
      failure->recovery.circuit_class = CircuitClass::NotAMultiplier;
      failure->recovery.diagnosis = diagnosis;
      failure->verification.detail = "skipped: no multiplier interface";
      failure->success = false;
    }
  };
  if (options.infer_ports) {
    // Port inference is a discovery heuristic over arbitrary input data, so
    // its failure is a flow outcome (success=false + diagnosis), not an API
    // misuse like asking for explicitly named ports that do not exist.
    auto inferred = nl::infer_multiplier_ports(netlist);
    if (!inferred.has_value()) {
      fail("netlist '" + netlist.name() +
           "' does not expose a two-operand word-level multiplier interface "
           "(inputs must group into two same-width word ports and outputs "
           "into one)");
      return std::nullopt;
    }
    return inferred;
  }
  // Named ports: missing or mis-sized words are likewise a flow outcome —
  // fuzzed mutants drop/duplicate output nets and batch manifests point at
  // arbitrary files, and neither may take the process down.
  try {
    return nl::multiplier_ports(netlist, options.a_base, options.b_base,
                                options.z_base);
  } catch (const Error& e) {
    fail(e.what());
    return std::nullopt;
  }
}

FlowReport extraction_failure_report(const nl::Netlist& netlist,
                                     const nl::MultiplierPorts& ports,
                                     const std::string& what) {
  FlowReport report;
  report.m = ports.m();
  report.equations = netlist.num_equations();
  report.recovery.circuit_class = CircuitClass::NotAMultiplier;
  report.recovery.diagnosis = "extraction aborted: " + what;
  report.verification.detail = "skipped: extraction aborted";
  report.success = false;
  return report;
}

FlowReport analyze_extraction(const nl::Netlist& netlist,
                              const nl::MultiplierPorts& ports,
                              ExtractionResult extraction,
                              const FlowOptions& options) {
  FlowReport report;
  report.m = ports.m();
  report.equations = netlist.num_equations();
  // The ANFs are Algorithm 1's working, not the answer: analysis reads
  // them here and they die with this frame, so no report carries them.
  std::vector<anf::Anf> anfs = std::move(extraction.anfs);
  report.extraction = std::move(extraction);

  // Phases 2-4 all read one count of each output's product sets, taken
  // here in a single pass over the ANFs (core/product_counts.hpp).
  ProductCounts counts(anfs, ports);

  // Phase 2: Algorithm 2 (Theorem 3 membership test).
  report.algorithm2_p = recover_irreducible(counts);

  // Phase 3: full reduction-matrix recovery + classification.
  report.recovery = recover_reduction_matrix(counts);

  // Phase 3b (extension): if the declared output order does not form a
  // multiplier, the bus may be permuted — recover the bit order from the
  // in-field product sets and retry on the permuted counts.
  if (report.recovery.circuit_class == CircuitClass::NotAMultiplier &&
      options.try_output_permutation) {
    if (const auto order = recover_output_order(counts)) {
      bool identity = true;
      for (unsigned i = 0; i < report.m; ++i) identity &= (*order)[i] == i;
      if (!identity) {
        std::vector<anf::Anf> reordered(report.m);
        std::vector<RewriteStats> reordered_stats(report.m);
        for (unsigned i = 0; i < report.m; ++i) {
          reordered[i] = std::move(anfs[(*order)[i]]);
          reordered_stats[i] = report.extraction.per_bit[(*order)[i]];
        }
        anfs = std::move(reordered);
        report.extraction.per_bit = std::move(reordered_stats);
        report.output_permutation = *order;
        counts.permute(*order);
        report.algorithm2_p = recover_irreducible(counts);
        report.recovery = recover_reduction_matrix(counts);
      }
    }
  }

  // Phase 4: golden-model equivalence.
  if (options.verify_with_golden &&
      report.recovery.circuit_class != CircuitClass::NotAMultiplier &&
      report.recovery.p_is_irreducible) {
    const gf2m::Field field(report.recovery.p);
    report.verification =
        verify_against_golden(counts, anfs, field, ports,
                              report.recovery.circuit_class);
  } else if (!options.verify_with_golden) {
    report.verification.detail = "skipped";
  } else {
    report.verification.detail = "skipped: no irreducible P(x) recovered";
  }

  report.success =
      report.recovery.circuit_class != CircuitClass::NotAMultiplier &&
      report.recovery.p_is_irreducible && report.recovery.rows_consistent &&
      (!options.verify_with_golden || report.verification.equivalent);
  return report;
}

}  // namespace gfre::core
