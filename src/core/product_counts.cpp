#include "core/product_counts.hpp"

#include <tuple>
#include <utility>

#include "util/error.hpp"

namespace gfre::core {

namespace {

/// One operand position a variable occupies: a_index (b_side false) or
/// b_index (b_side true).
struct Role {
  anf::Var var;
  bool b_side;
  unsigned index;
};

using RoleIt = std::vector<Role>::const_iterator;

}  // namespace

ProductCounts::ProductCounts(const std::vector<anf::Anf>& anfs,
                             const nl::MultiplierPorts& ports)
    : m_(ports.m()) {
  GFRE_ASSERT(anfs.size() == m_,
              "expected " << m_ << " output ANFs, got " << anfs.size());
  GFRE_ASSERT(m_ >= 1, "need m >= 1");

  // Every operand position, sorted by variable: a variable's positions form
  // one run, a single entry unless the operand words share nets.  b sorts
  // after a within a run, so the run's last entry is the side the
  // bilinearity check assigns (b wins a shared net).
  std::vector<Role> roles;
  roles.reserve(2 * std::size_t{m_});
  for (unsigned i = 0; i < m_; ++i) {
    roles.push_back({ports.a.bits[i], false, i});
  }
  for (unsigned j = 0; j < m_; ++j) {
    roles.push_back({ports.b.bits[j], true, j});
  }
  std::sort(roles.begin(), roles.end(), [](const Role& x, const Role& y) {
    return std::tie(x.var, x.b_side, x.index) <
           std::tie(y.var, y.b_side, y.index);
  });
  for (std::size_t r = 1; r < roles.size(); ++r) {
    if (roles[r].var == roles[r - 1].var) distinct_operands_ = false;
  }
  // Dense index over the operand variables' id range: the roles of v are
  // roles[first[v - lo], first[v - lo + 1]).  Operand bits are primary
  // inputs, which netlists number first, so the range is usually about 2m
  // ids wide; a lookup is one load where a binary search would mispredict
  // its way down ~log2(2m) levels.
  const anf::Var lo = roles.front().var;
  const anf::Var hi = roles.back().var;
  std::vector<std::uint32_t> first(std::size_t{hi - lo} + 2, 0);
  for (const Role& r : roles) ++first[r.var - lo + 1];
  for (std::size_t s = 1; s < first.size(); ++s) first[s] += first[s - 1];
  const auto roles_of = [&](anf::Var v) {
    if (v < lo || v > hi) return std::pair{roles.cend(), roles.cend()};
    return std::pair{roles.cbegin() + first[v - lo],
                     roles.cbegin() + first[v - lo + 1]};
  };

  counts_.assign(m_ * buckets(), 0);
  outputs_.resize(m_);
  for (unsigned out = 0; out < m_; ++out) {
    std::uint32_t* bucket = counts_.data() + out * buckets();
    Output& output = outputs_[out];
    output.terms = anfs[out].size();
    for (const anf::Monomial& monomial : anfs[out].monomials()) {
      const auto& vars = monomial.vars();
      ProductViolation why = ProductViolation::Degree;
      if (vars.size() == 2) {
        const auto [u, u_end] = roles_of(vars[0]);
        const auto [v, v_end] = roles_of(vars[1]);
        // a_i*b_j, with a_i either of the two variables.
        for (RoleIt x = u; x != u_end; ++x) {
          for (RoleIt y = v; y != v_end; ++y) {
            if (x->b_side != y->b_side) ++bucket[x->index + y->index];
          }
        }
        const bool product = u != u_end && v != v_end &&
                             (u_end - 1)->b_side != (v_end - 1)->b_side;
        why = product ? ProductViolation::None : ProductViolation::MixedSides;
      } else if (vars.size() == 1) {
        // a_i*b_j is a single variable when a_i and b_j are one net.
        const auto [u, u_end] = roles_of(vars[0]);
        for (RoleIt x = u; x != u_end && !x->b_side; ++x) {
          for (RoleIt y = x; y != u_end; ++y) {
            if (y->b_side) ++bucket[x->index + y->index];
          }
        }
      }
      if (why != ProductViolation::None &&
          output.violation == ProductViolation::None) {
        output.violation = why;
        output.violation_degree = monomial.degree();
      }
    }
  }
}

void ProductCounts::permute(const std::vector<unsigned>& order) {
  GFRE_ASSERT(order.size() == m_, "permutation of " << order.size()
                                                    << " outputs, expected "
                                                    << m_);
  std::vector<std::uint32_t> counts(counts_.size());
  std::vector<Output> outputs(m_);
  for (unsigned i = 0; i < m_; ++i) {
    std::copy_n(counts_.data() + order[i] * buckets(), buckets(),
                counts.data() + i * buckets());
    outputs[i] = outputs_[order[i]];
  }
  counts_ = std::move(counts);
  outputs_ = std::move(outputs);
}

}  // namespace gfre::core
