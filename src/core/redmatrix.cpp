#include "core/redmatrix.hpp"

#include "core/product_counts.hpp"
#include "gf2m/field.hpp"
#include "gf2poly/irreducible.hpp"
#include "util/error.hpp"

namespace gfre::core {

using anf::Anf;
using gf2::Poly;

std::string to_string(CircuitClass c) {
  switch (c) {
    case CircuitClass::StandardProduct: return "standard-product";
    case CircuitClass::MontgomeryRaw: return "montgomery-raw";
    case CircuitClass::NotAMultiplier: return "not-a-multiplier";
  }
  return "?";
}

RecoveryReport recover_reduction_matrix(const ProductCounts& counts) {
  const unsigned m = counts.m();
  GFRE_ASSERT(m >= 2, "need m >= 2");

  RecoveryReport report;

  // Every monomial of every ANF must be a product a_i * b_j of one bit of
  // each operand.
  for (unsigned i = 0; i < m; ++i) {
    switch (counts.violation(i)) {
      case ProductViolation::None:
        continue;
      case ProductViolation::Degree:
        report.diagnosis = "output bit " + std::to_string(i) +
                           " has a non-bilinear monomial of degree " +
                           std::to_string(counts.violation_degree(i));
        return report;
      case ProductViolation::MixedSides:
        report.diagnosis = "output bit " + std::to_string(i) +
                           " mixes operand sides in a monomial";
        return report;
    }
  }

  // Membership matrix: rows[k].coeff(i) = does S_k feed output bit i?
  report.rows.assign(2 * m - 1, Poly{});
  for (unsigned k = 0; k <= 2 * m - 2; ++k) {
    for (unsigned i = 0; i < m; ++i) {
      switch (counts.membership(i, k)) {
        case SetMembership::All:
          report.rows[k].set_coeff(i, true);
          break;
        case SetMembership::None:
          break;
        case SetMembership::Mixed:
          report.diagnosis = "product set S_" + std::to_string(k) +
                             " is split across output bit " +
                             std::to_string(i) +
                             " — inconsistent GF(2^m) reduction";
          return report;
      }
    }
  }

  // Classification by the identity half of the matrix.
  bool low_identity = true;  // rows[k] == x^k for k < m  (plain product)
  for (unsigned k = 0; k < m; ++k) {
    if (report.rows[k] != Poly::monomial(k)) {
      low_identity = false;
      break;
    }
  }
  bool high_identity = true;  // rows[k] == x^(k-m) for k >= m  (raw Mont.)
  for (unsigned k = m; k <= 2 * m - 2; ++k) {
    if (report.rows[k] != Poly::monomial(k - m)) {
      high_identity = false;
      break;
    }
  }

  if (low_identity) {
    // Standard product: row m is P'(x) = P(x) - x^m (Theorem 3).
    report.circuit_class = CircuitClass::StandardProduct;
    report.p = report.rows[m] + Poly::monomial(m);
    report.p_is_irreducible = gf2::is_irreducible(report.p);
    // Row recurrence: row_{k+1} = x*row_k, reduced by row_m on overflow.
    report.rows_consistent = true;
    Poly r = report.rows[m];
    for (unsigned k = m; k <= 2 * m - 2; ++k) {
      if (report.rows[k] != r) {
        report.rows_consistent = false;
        report.diagnosis = "reduction row for S_" + std::to_string(k) +
                           " violates the x^k mod P recurrence";
        break;
      }
      r = r << 1;
      if (r.coeff(m)) {
        r.flip_coeff(m);
        r += report.rows[m];
      }
    }
    if (report.rows_consistent && !report.p_is_irreducible) {
      report.diagnosis = "recovered modulus " + report.p.to_string() +
                         " is reducible";
    }
    return report;
  }

  if (high_identity) {
    // Raw Montgomery: Z = A*B*x^(-m) mod P.  Row m-1 is x^(-1) mod P =
    // (P(x)+1)/x, so p_{j+1} = rows[m-1].coeff(j) and p_0 = 1.
    report.circuit_class = CircuitClass::MontgomeryRaw;
    Poly p = Poly::one();
    for (unsigned j = 0; j < m; ++j) {
      if (report.rows[m - 1].coeff(j)) p.flip_coeff(j + 1);
    }
    report.p = p;
    if (p.degree() != static_cast<int>(m)) {
      report.diagnosis = "raw-Montgomery row m-1 does not encode a degree-" +
                         std::to_string(m) + " modulus";
      return report;
    }
    report.p_is_irreducible = gf2::is_irreducible(p);
    if (!report.p_is_irreducible) {
      report.diagnosis = "recovered modulus " + p.to_string() +
                         " is reducible";
      return report;
    }
    // Verify every low row against x^(k-m) mod P.
    const gf2m::Field field(p);
    const Poly x_inv_m =
        field.inverse(field.reduce(Poly::monomial(m)));  // x^(-m) mod P
    report.rows_consistent = true;
    for (unsigned k = 0; k < m; ++k) {
      const Poly expected = field.mul(field.reduce(Poly::monomial(k)),
                                      x_inv_m);
      if (report.rows[k] != expected) {
        report.rows_consistent = false;
        report.diagnosis = "raw-Montgomery row for S_" + std::to_string(k) +
                           " mismatches x^(k-m) mod P";
        break;
      }
    }
    return report;
  }

  report.circuit_class = CircuitClass::NotAMultiplier;
  report.diagnosis =
      "bit functions are bilinear but neither Z = A*B mod P nor "
      "Z = A*B*x^(-m) mod P fits the recovered coefficient matrix";
  return report;
}

RecoveryReport recover_reduction_matrix(const std::vector<Anf>& anfs,
                                        const nl::MultiplierPorts& ports) {
  GFRE_ASSERT(ports.m() >= 2, "need m >= 2");
  return recover_reduction_matrix(ProductCounts(anfs, ports));
}

}  // namespace gfre::core
