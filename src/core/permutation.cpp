#include "core/permutation.hpp"

#include "core/product_counts.hpp"

namespace gfre::core {

std::optional<std::vector<unsigned>> recover_output_order(
    const ProductCounts& counts) {
  const unsigned m = counts.m();

  // For each output, the set of in-field k (k < m) whose S_k it contains
  // completely must be a singleton {k}; that k is the bit position.
  std::vector<unsigned> order(m, m);  // order[bit] = anf index
  std::vector<bool> claimed(m, false);
  for (unsigned out = 0; out < m; ++out) {
    std::optional<unsigned> position;
    for (unsigned k = 0; k < m; ++k) {
      switch (counts.membership(out, k)) {
        case SetMembership::All:
          if (position.has_value()) return std::nullopt;  // two claims
          position = k;
          break;
        case SetMembership::None:
          break;
        case SetMembership::Mixed:
          return std::nullopt;  // not a clean product structure
      }
    }
    if (!position.has_value()) return std::nullopt;  // no claim
    if (claimed[*position]) return std::nullopt;     // duplicate bit
    claimed[*position] = true;
    order[*position] = out;
  }
  return order;
}

std::optional<std::vector<unsigned>> recover_output_order(
    const std::vector<anf::Anf>& anfs, const nl::MultiplierPorts& ports) {
  return recover_output_order(ProductCounts(anfs, ports));
}

}  // namespace gfre::core
