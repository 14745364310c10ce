// Algebraic normal form (positive-polarity Reed-Muller) polynomials:
// multilinear polynomials over GF(2) in Boolean variables.
//
// This is the expression domain of Algorithm 1: a polynomial is a *set* of
// monomials, and addition toggles set membership — which implements the
// "remove monomials with even coefficient" simplification (lines 7-11 of
// Algorithm 1) structurally, with no coefficient bookkeeping.  Because the
// ANF of a Boolean function is unique, extracted expressions are canonical:
// two netlists implement the same function iff their extracted ANFs are
// identical sets (this is what makes Algorithm 2's membership test and the
// golden-model comparison sound).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "anf/monomial.hpp"

namespace gfre::anf {

/// A multilinear polynomial over GF(2) (XOR of AND-monomials).
class Anf {
 public:
  using MonomialSet = std::unordered_set<Monomial, MonomialHash>;

  /// The zero polynomial.
  Anf() = default;

  static Anf zero() { return Anf(); }
  static Anf one();
  static Anf var(Var v);
  static Anf from_monomials(std::vector<Monomial> monomials);

  bool is_zero() const { return monomials_.empty(); }
  bool is_one() const;

  /// Number of monomials.
  std::size_t size() const { return monomials_.size(); }

  /// Reserves hash capacity for n monomials — bulk construction
  /// (operator+=, operator*, from_monomials, engine conversions) calls
  /// this to avoid incremental rehashing.
  void reserve(std::size_t n) { monomials_.reserve(n); }

  /// Adds m (mod 2): inserts if absent, cancels if present.
  /// Returns true if the monomial is present after the toggle.
  bool toggle(const Monomial& m);

  bool contains(const Monomial& m) const {
    return monomials_.count(m) != 0;
  }

  const MonomialSet& monomials() const { return monomials_; }

  Anf& operator+=(const Anf& rhs);
  Anf operator+(const Anf& rhs) const;

  /// Full polynomial product with idempotent variables (x*x = x) and mod-2
  /// coefficient cancellation.
  Anf operator*(const Anf& rhs) const;

  /// Product with a single monomial.
  Anf times(const Monomial& m) const;

  bool operator==(const Anf& rhs) const { return monomials_ == rhs.monomials_; }
  bool operator!=(const Anf& rhs) const { return !(*this == rhs); }

  /// Reference substitution: replaces variable v by expression e everywhere
  /// (v must not occur in e).  This is the naive whole-polynomial scan; the
  /// core rewriter's packed engine supersedes it with an occurrence-indexed
  /// version, and the ablation bench compares the two.
  void substitute(Var v, const Anf& e);

  /// True if variable v occurs in any monomial (linear scan).
  bool mentions(Var v) const;

  /// All distinct variables, ascending.
  std::vector<Var> variables() const;

  /// Highest monomial degree (0 for constants/zero).
  unsigned degree() const;

  /// Evaluates under an assignment callback.
  bool eval(const std::function<bool(Var)>& assignment) const;

  /// Monomials in canonical (graded-lex) order — deterministic iteration
  /// for printing, hashing and comparison dumps.
  std::vector<Monomial> sorted_monomials() const;

  /// Renders like "a0*b0+a1*b1+1" with a variable-name callback.
  std::string to_string(
      const std::function<std::string(Var)>& name) const;

  /// ANF of an arbitrary Boolean function given as a truth table over the
  /// listed inputs (truth_table[i] is the output for input valuation i,
  /// with inputs[0] the least significant selector bit).  Computed by the
  /// XOR Möbius transform.  This is how every cell — including AOI/OAI
  /// complex gates — gets its algebraic model (Eq. 1 generalized).
  static Anf from_truth_table(const std::vector<Var>& inputs,
                              const std::vector<bool>& truth_table);

 private:
  MonomialSet monomials_;
};

}  // namespace gfre::anf
