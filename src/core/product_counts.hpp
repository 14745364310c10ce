// Product-set counting — the one pass over the output ANFs that every
// analysis stage reads (internal to core/).
//
// Algorithm 2, the reduction-matrix recovery, the output-order recovery and
// the golden check all ask one question: which product sets
// S_k = { a_i*b_j : i + j = k } lie inside output bit i's ANF?  Probing
// every set against every output builds ~m^2 heap monomials and does ~m^3
// hash probes.  Instead each output ANF is walked once: both variables of a
// monomial map to their (operand side, bit index), and a product a_i*b_j
// counts towards bucket k = i + j.  A bucket whose count equals
// |S_k| = min(k, 2m-2-k) + 1 holds all of S_k, an empty one none of it, and
// anything in between is a split set.  The same walk records the first
// monomial that is not such a product, so the bilinearity check costs
// nothing extra.  Total cost: O(#monomials).
//
// Counts are exact for any port assignment, including operand words that
// share nets: a bucket counts the positions (i, k-i) whose monomial occurs,
// which is precisely what membership of the listed set S_k means.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "anf/anf.hpp"
#include "core/poly_extract.hpp"
#include "core/redmatrix.hpp"
#include "core/verify.hpp"
#include "gf2m/field.hpp"
#include "netlist/ports.hpp"

namespace gfre::core {

/// Why a monomial is not a product a_i*b_j (the bilinearity check).
enum class ProductViolation : std::uint8_t {
  None,
  Degree,      ///< degree != 2
  MixedSides,  ///< degree 2, but not one variable from each operand
};

class ProductCounts {
 public:
  /// Counts every output ANF; `anfs[i]` is output bit i.  Requires
  /// anfs.size() == ports.m() >= 1.
  ProductCounts(const std::vector<anf::Anf>& anfs,
                const nl::MultiplierPorts& ports);

  unsigned m() const { return m_; }

  /// |S_k| = min(k, 2m-2-k) + 1.
  std::uint32_t set_size(unsigned k) const {
    return std::min(k, 2 * m_ - 2 - k) + 1;
  }

  /// Members of S_k that occur in output `out`.
  std::uint32_t count(unsigned out, unsigned k) const {
    return counts_[out * buckets() + k];
  }

  SetMembership membership(unsigned out, unsigned k) const {
    const std::uint32_t present = count(out, k);
    if (present == 0) return SetMembership::None;
    if (present == set_size(k)) return SetMembership::All;
    return SetMembership::Mixed;
  }

  /// Monomials in output `out`'s ANF.
  std::size_t terms(unsigned out) const { return outputs_[out].terms; }

  /// The first non-product monomial of output `out` (in the ANF's
  /// iteration order), and its degree.
  ProductViolation violation(unsigned out) const {
    return outputs_[out].violation;
  }
  unsigned violation_degree(unsigned out) const {
    return outputs_[out].violation_degree;
  }

  /// True when every a and b bit is a distinct variable, so that the
  /// product sets are disjoint and each monomial counts at most once.
  bool distinct_operands() const { return distinct_operands_; }

  /// Reorders the outputs: new output i is old output order[i].
  void permute(const std::vector<unsigned>& order);

 private:
  struct Output {
    std::size_t terms = 0;
    ProductViolation violation = ProductViolation::None;
    unsigned violation_degree = 0;
  };

  std::size_t buckets() const { return 2 * std::size_t{m_} - 1; }

  unsigned m_;
  bool distinct_operands_ = true;
  std::vector<std::uint32_t> counts_;  ///< m rows of 2m-1 buckets
  std::vector<Output> outputs_;
};

// The analysis stages over shared counts.  Each public entry point
// (poly_extract.hpp, redmatrix.hpp, permutation.hpp, verify.hpp) counts its
// ANFs and calls these; analyze_extraction counts once and calls them all.

gf2::Poly recover_irreducible(const ProductCounts& counts);

RecoveryReport recover_reduction_matrix(const ProductCounts& counts);

std::optional<std::vector<unsigned>> recover_output_order(
    const ProductCounts& counts);

/// Compares the counts against rows derived from `field` — never against
/// recovered rows, so the check stays independent.  `extracted` and `ports`
/// are read only when the operand words share nets (overlapping product
/// sets), where the spec ANFs are built and compared whole.
VerifyResult verify_against_golden(const ProductCounts& counts,
                                   const std::vector<anf::Anf>& extracted,
                                   const gf2m::Field& field,
                                   const nl::MultiplierPorts& ports,
                                   CircuitClass circuit_class);

}  // namespace gfre::core
