// Algorithm 2 / Theorem 3: recovering the irreducible polynomial from the
// per-output-bit ANFs.
//
// The first out-field product set P_m = { a_i*b_j : i + j = m } is the
// coefficient of x^m in the double-width product; after reduction modulo
// P(x) = x^m + P'(x) it lands exactly on the output bits named by P'(x).
// Hence x^i is a term of P(x) iff *all* monomials of P_m appear in output
// bit i's ANF (and x^m is always a term).
//
// recover_irreducible reads that membership off one counting pass over the
// ANFs (core/product_counts.hpp): every a_i*b_j monomial is counted in
// bucket i + j, and bucket m is compared with |P_m| = m - 1, in
// O(#monomials).  product_set_membership spells the test out member by
// member; it is the textbook reference the tests check the counting pass
// against, and the flow does not call it.
#pragma once

#include <vector>

#include "anf/anf.hpp"
#include "gf2poly/gf2_poly.hpp"
#include "netlist/ports.hpp"

namespace gfre::core {

/// The product set S_k = { a_i * b_j : i + j == k, 0 <= i,j < m } as ANF
/// monomials over the port nets.  k ranges over [0, 2m-2]; S_m is the
/// paper's P_m.
std::vector<anf::Monomial> product_set(const nl::MultiplierPorts& ports,
                                       unsigned k);

/// Membership of a product set in one ANF.
enum class SetMembership {
  None,   ///< no monomial of the set occurs
  All,    ///< every monomial occurs
  Mixed,  ///< some but not all occur — not a clean GF(2^m) multiplier
};

SetMembership product_set_membership(const anf::Anf& anf,
                                     const std::vector<anf::Monomial>& set);

/// Algorithm 2 verbatim: P(x) = x^m + sum { x^i : P_m fully contained in
/// ANF of z_i }.  `anfs[i]` must be the ANF of output bit i.
gf2::Poly recover_irreducible(const std::vector<anf::Anf>& anfs,
                              const nl::MultiplierPorts& ports);

}  // namespace gfre::core
