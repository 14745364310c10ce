// Full reduction-matrix recovery — an extension of Algorithm 2.
//
// A GF(2^m) multiplier's bit functions are bilinear: every ANF monomial is
// some a_i*b_j, and the coefficient matrix C[k][i] (does product-degree k
// feed output bit i?) is exactly the reduction matrix of the implemented
// function.  Recovering the *whole* matrix (not just row m) lets us:
//   1. validate that the circuit is a clean GF(2^m) multiplier (every
//      product set must be all-in or all-out of every output bit),
//   2. cross-check P(x) with the row recurrence
//         row_{k+1} = (row_k << 1) + row_k[m-1] * row_m,
//   3. recognize and solve *raw Montgomery* circuits (Z = A*B*x^(-m)
//      mod P), where row m-1 encodes x^(-1) mod P = (P(x)+1)/x and hence
//      P(x) itself — beyond the paper's scope,
//   4. reject buggy or non-multiplier netlists with a diagnosis instead of
//      emitting a bogus polynomial.
//
// The matrix comes from the counting pass Algorithm 2 also reads
// (core/product_counts.hpp): one walk over each output ANF checks that
// every monomial is a product a_i*b_j and counts it in bucket i + j; row k
// then holds the outputs whose bucket k equals |S_k|, and a bucket that is
// neither full nor empty is a split set.  Cost: O(#monomials), where
// probing all 2m-1 sets against all m outputs took ~m^3 hash probes.
#pragma once

#include <string>
#include <vector>

#include "anf/anf.hpp"
#include "core/poly_extract.hpp"
#include "gf2poly/gf2_poly.hpp"
#include "netlist/ports.hpp"

namespace gfre::core {

/// What kind of function the circuit computes.
enum class CircuitClass {
  StandardProduct,  ///< Z = A*B mod P (Mastrovito, composed Montgomery, ...)
  MontgomeryRaw,    ///< Z = A*B*x^(-m) mod P
  NotAMultiplier,   ///< bit functions are not a consistent GF(2^m) product
};

std::string to_string(CircuitClass c);

struct RecoveryReport {
  CircuitClass circuit_class = CircuitClass::NotAMultiplier;

  /// The recovered irreducible polynomial (valid unless NotAMultiplier).
  gf2::Poly p;
  bool p_is_irreducible = false;

  /// Row k (k in [0, 2m-2]) of the recovered coefficient matrix:
  /// rows[k].coeff(i) == 1 iff product set S_k feeds output bit i.
  std::vector<gf2::Poly> rows;

  /// True when every row satisfies the x^k mod P recurrence implied by the
  /// recovered P(x) (StandardProduct) or x^(k-m) mod P (MontgomeryRaw).
  bool rows_consistent = false;

  /// Human-readable explanation (especially for NotAMultiplier).
  std::string diagnosis;
};

/// Recovers the full reduction matrix and classifies the circuit.
/// `anfs[i]` must be the extracted ANF of output bit i.
RecoveryReport recover_reduction_matrix(const std::vector<anf::Anf>& anfs,
                                        const nl::MultiplierPorts& ports);

}  // namespace gfre::core
