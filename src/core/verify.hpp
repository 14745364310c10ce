// Golden-model verification: the final step of the paper's flow.
//
// "This procedure automatically checks the equivalence between the
// implementation with a golden implementation constructed using the
// extracted irreducible polynomial P(x)."
//
// The golden model is built *algebraically*: for a field GF(2^m)/P(x) the
// spec ANF of output bit i is  sum_k C[k][i] * S_k  with C the reduction
// matrix of P(x) (StandardProduct) or its x^(-m)-shifted form
// (MontgomeryRaw).  Because ANF is canonical, implementation == spec iff
// the monomial sets match exactly — a complete equivalence check, not a
// sampling argument.  verify_against_golden decides that without building
// the spec: the product sets are disjoint, so output i matches iff its
// product-set counts (core/product_counts.hpp) fill exactly the sets that
// column i of C names and its ANF holds nothing else.  C comes from the
// field, never from the recovered matrix, so the check stays independent.
#pragma once

#include <string>
#include <vector>

#include "anf/anf.hpp"
#include "core/redmatrix.hpp"
#include "gf2m/field.hpp"
#include "netlist/ports.hpp"

namespace gfre::core {

/// Spec ANFs of a GF(2^m)/P(x) multiplier over the port variables.
/// `montgomery_raw` selects the Z = A*B*x^(-m) mod P spec.
std::vector<anf::Anf> golden_anfs(const gf2m::Field& field,
                                  const nl::MultiplierPorts& ports,
                                  bool montgomery_raw = false);

struct VerifyResult {
  bool equivalent = false;
  /// First mismatching output bit (meaningful when !equivalent).
  unsigned mismatch_bit = 0;
  std::string detail;
};

/// Compares extracted ANFs against the golden spec for (field, class).
VerifyResult verify_against_golden(const std::vector<anf::Anf>& extracted,
                                   const gf2m::Field& field,
                                   const nl::MultiplierPorts& ports,
                                   CircuitClass circuit_class);

/// The classic *verification* use case the paper builds on (Lv/Kalla): the
/// irreducible polynomial is KNOWN, and the question is whether the netlist
/// implements Z = A*B mod P.  Extracts all output ANFs (in `threads`
/// threads) and compares against the golden model — a complete formal
/// equivalence check, since ANF is canonical.
VerifyResult verify_known_multiplier(const nl::Netlist& netlist,
                                     const gf2m::Field& field,
                                     unsigned threads = 1,
                                     const std::string& a_base = "a",
                                     const std::string& b_base = "b",
                                     const std::string& z_base = "z");

}  // namespace gfre::core
