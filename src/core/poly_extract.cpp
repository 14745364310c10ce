#include "core/poly_extract.hpp"

#include "core/product_counts.hpp"
#include "util/error.hpp"

namespace gfre::core {

using anf::Anf;
using anf::Monomial;

std::vector<Monomial> product_set(const nl::MultiplierPorts& ports,
                                  unsigned k) {
  const unsigned m = ports.m();
  GFRE_ASSERT(k <= 2 * m - 2, "product set index " << k << " out of range");
  std::vector<Monomial> set;
  const unsigned i_begin = (k >= m) ? (k - m + 1) : 0u;
  const unsigned i_end = std::min(k, m - 1);
  for (unsigned i = i_begin; i <= i_end; ++i) {
    const unsigned j = k - i;
    set.push_back(Monomial::from_vars({ports.a.bits[i], ports.b.bits[j]}));
  }
  return set;
}

SetMembership product_set_membership(const Anf& anf,
                                     const std::vector<Monomial>& set) {
  GFRE_ASSERT(!set.empty(), "empty product set");
  std::size_t present = 0;
  for (const Monomial& m : set) {
    if (anf.contains(m)) ++present;
  }
  if (present == 0) return SetMembership::None;
  if (present == set.size()) return SetMembership::All;
  return SetMembership::Mixed;
}

gf2::Poly recover_irreducible(const ProductCounts& counts) {
  const unsigned m = counts.m();
  GFRE_ASSERT(m >= 2, "product set S_" << m << " is empty");
  gf2::Poly p = gf2::Poly::monomial(m);  // line 2: P(x) = x^m
  for (unsigned i = 0; i < m; ++i) {     // lines 3-9
    if (counts.membership(i, m) == SetMembership::All) {
      p.flip_coeff(i);  // line 7: P(x) += x^i
    }
  }
  return p;
}

gf2::Poly recover_irreducible(const std::vector<Anf>& anfs,
                              const nl::MultiplierPorts& ports) {
  return recover_irreducible(ProductCounts(anfs, ports));
}

}  // namespace gfre::core
