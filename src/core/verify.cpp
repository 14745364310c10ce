#include "core/verify.hpp"

#include "core/parallel_extract.hpp"
#include "core/product_counts.hpp"
#include "util/error.hpp"

namespace gfre::core {

using anf::Anf;
using gf2::Poly;

namespace {

/// The golden coefficient rows: rows[k] says which output bits receive
/// product set S_k.
std::vector<Poly> golden_rows(const gf2m::Field& field, bool montgomery_raw) {
  const unsigned m = field.m();
  std::vector<Poly> rows(2 * m - 1);
  if (!montgomery_raw) {
    for (unsigned k = 0; k < m; ++k) rows[k] = Poly::monomial(k);
    for (unsigned k = m; k <= 2 * m - 2; ++k) {
      rows[k] = field.reduction_rows()[k - m];
    }
  } else {
    const Poly x_inv_m = field.inverse(field.reduce(Poly::monomial(m)));
    for (unsigned k = 0; k < m; ++k) {
      rows[k] = field.mul(field.reduce(Poly::monomial(k)), x_inv_m);
    }
    for (unsigned k = m; k <= 2 * m - 2; ++k) {
      rows[k] = Poly::monomial(k - m);
    }
  }
  return rows;
}

VerifyResult no_golden_model() {
  VerifyResult result;
  result.detail = "no golden model: circuit is not a GF(2^m) multiplier";
  return result;
}

VerifyResult mismatch(unsigned bit, std::size_t implementation_terms,
                      std::size_t golden_terms) {
  VerifyResult result;
  result.mismatch_bit = bit;
  result.detail = "output bit " + std::to_string(bit) +
                  ": implementation ANF has " +
                  std::to_string(implementation_terms) +
                  " monomials, golden has " + std::to_string(golden_terms);
  return result;
}

VerifyResult all_match(unsigned m) {
  VerifyResult result;
  result.equivalent = true;
  result.detail =
      "all " + std::to_string(m) + " output ANFs match the golden model";
  return result;
}

}  // namespace

std::vector<Anf> golden_anfs(const gf2m::Field& field,
                             const nl::MultiplierPorts& ports,
                             bool montgomery_raw) {
  const unsigned m = field.m();
  GFRE_ASSERT(ports.m() == m,
              "port width " << ports.m() << " != field degree " << m);
  const auto rows = golden_rows(field, montgomery_raw);
  std::vector<Anf> spec(m);
  for (unsigned k = 0; k <= 2 * m - 2; ++k) {
    const auto set = product_set(ports, k);
    for (unsigned i = 0; i < m; ++i) {
      if (!rows[k].coeff(i)) continue;
      for (const auto& monomial : set) spec[i].toggle(monomial);
    }
  }
  return spec;
}

VerifyResult verify_against_golden(const ProductCounts& counts,
                                   const std::vector<Anf>& extracted,
                                   const gf2m::Field& field,
                                   const nl::MultiplierPorts& ports,
                                   CircuitClass circuit_class) {
  if (circuit_class == CircuitClass::NotAMultiplier) return no_golden_model();
  const unsigned m = field.m();
  GFRE_ASSERT(counts.m() == m,
              "port width " << counts.m() << " != field degree " << m);
  const bool raw = circuit_class == CircuitClass::MontgomeryRaw;

  if (!counts.distinct_operands()) {
    // Shared operand nets make product sets overlap and the spec's toggles
    // cancel, so no sum of set sizes is the spec's size: compare whole
    // ANFs.
    const auto spec = golden_anfs(field, ports, raw);
    for (unsigned i = 0; i < m; ++i) {
      if (spec[i] != extracted[i]) {
        return mismatch(i, extracted[i].size(), spec[i].size());
      }
    }
    return all_match(m);
  }

  // The product sets are disjoint, so output i equals its spec iff its ANF
  // holds every set its golden row names and no other monomial.
  const auto rows = golden_rows(field, raw);
  for (unsigned i = 0; i < m; ++i) {
    std::size_t golden = 0;
    std::size_t held = 0;
    for (unsigned k = 0; k <= 2 * m - 2; ++k) {
      if (!rows[k].coeff(i)) continue;
      golden += counts.set_size(k);
      held += counts.count(i, k);
    }
    if (held != golden || counts.terms(i) != golden) {
      return mismatch(i, counts.terms(i), golden);
    }
  }
  return all_match(m);
}

VerifyResult verify_against_golden(const std::vector<Anf>& extracted,
                                   const gf2m::Field& field,
                                   const nl::MultiplierPorts& ports,
                                   CircuitClass circuit_class) {
  if (circuit_class == CircuitClass::NotAMultiplier) return no_golden_model();
  return verify_against_golden(ProductCounts(extracted, ports), extracted,
                               field, ports, circuit_class);
}

VerifyResult verify_known_multiplier(const nl::Netlist& netlist,
                                     const gf2m::Field& field,
                                     unsigned threads,
                                     const std::string& a_base,
                                     const std::string& b_base,
                                     const std::string& z_base) {
  const auto ports = nl::multiplier_ports(netlist, a_base, b_base, z_base);
  if (ports.m() != field.m()) {
    VerifyResult result;
    result.detail = "netlist width " + std::to_string(ports.m()) +
                    " != field degree " + std::to_string(field.m());
    return result;
  }
  const auto extraction = extract_outputs(netlist, ports.z.bits, threads);
  return verify_against_golden(extraction.anfs, field, ports,
                               CircuitClass::StandardProduct);
}

}  // namespace gfre::core
