// Theorem 2 determinism: per-output-bit backward rewriting is independent
// across bits, so the thread count used for parallel extraction must not
// change any result — neither the extracted ANFs nor the recovered P(x).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/flow.hpp"
#include "core/parallel_extract.hpp"
#include "core/rewriter.hpp"
#include "gen/mastrovito.hpp"
#include "gf2m/field.hpp"
#include "gf2poly/irreducible.hpp"

namespace gfre {
namespace {

using core::extract_all_outputs;
using gf2::Poly;

constexpr unsigned kThreadCounts[] = {1, 2, 8};

class ThreadInvariance : public ::testing::TestWithParam<unsigned> {};

TEST_P(ThreadInvariance, ExtractionAnfsAreIdenticalAcrossThreadCounts) {
  const unsigned m = GetParam();
  const gf2m::Field field(gf2::default_irreducible(m));
  const auto netlist = gen::generate_mastrovito(field);

  const auto baseline = extract_all_outputs(netlist, 1);
  ASSERT_EQ(baseline.anfs.size(), m);
  for (const unsigned threads : kThreadCounts) {
    const auto result = extract_all_outputs(netlist, threads);
    EXPECT_EQ(result.threads, threads);
    ASSERT_EQ(result.anfs.size(), m) << "threads=" << threads;
    for (unsigned bit = 0; bit < m; ++bit) {
      EXPECT_EQ(result.anfs[bit], baseline.anfs[bit])
          << "threads=" << threads << " bit=" << bit;
    }
  }
}

TEST_P(ThreadInvariance, RecoveredPolynomialIsIdenticalAcrossThreadCounts) {
  const unsigned m = GetParam();
  const Poly p = gf2::default_irreducible(m);
  const gf2m::Field field(p);
  const auto netlist = gen::generate_mastrovito(field);

  for (const unsigned threads : kThreadCounts) {
    core::FlowOptions options;
    options.threads = threads;
    const auto report = core::reverse_engineer(netlist, options);
    EXPECT_TRUE(report.success) << "threads=" << threads << "\n"
                                << report.summary();
    EXPECT_EQ(report.recovery.p, p) << "threads=" << threads;
    EXPECT_EQ(report.algorithm2_p, p) << "threads=" << threads;
    EXPECT_EQ(report.m, m);
  }
}

TEST_P(ThreadInvariance, OversubscriptionBeyondBitCountIsHarmless) {
  // More threads than output bits: the pool must not duplicate, drop or
  // reorder per-bit work.
  const unsigned m = GetParam();
  const gf2m::Field field(gf2::default_irreducible(m));
  const auto netlist = gen::generate_mastrovito(field);
  const auto baseline = extract_all_outputs(netlist, 1);
  const auto flooded = extract_all_outputs(netlist, 4 * m);
  ASSERT_EQ(flooded.anfs.size(), baseline.anfs.size());
  for (unsigned bit = 0; bit < m; ++bit) {
    EXPECT_EQ(flooded.anfs[bit], baseline.anfs[bit]) << "bit=" << bit;
  }
}

INSTANTIATE_TEST_SUITE_P(Gf2m4To8, ThreadInvariance,
                         ::testing::Values(4u, 5u, 6u, 7u, 8u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return "m" + std::to_string(info.param);
                         });

// An m=8 word-level interface whose cones 1 and 2 blow up at different
// rates: z1 is a product of four 3-input XORs, z2 a product of four
// 2-input XORs, and every other z_i is a single AND.  Under a small term
// budget exactly those two cones throw, with different live-monomial
// counts in their messages — so which failure surfaces is observable.
nl::Netlist two_blowup_cones() {
  constexpr unsigned m = 8;
  nl::Netlist netlist("two_blowup_cones");
  std::vector<nl::Var> a, b;
  for (unsigned i = 0; i < m; ++i) {
    a.push_back(netlist.add_input("a" + std::to_string(i)));
  }
  for (unsigned i = 0; i < m; ++i) {
    b.push_back(netlist.add_input("b" + std::to_string(i)));
  }
  const auto product = [&](unsigned width, const std::string& name) {
    nl::Var acc = 0;
    for (unsigned f = 0; f < 4; ++f) {
      nl::Var factor = netlist.add_gate(nl::CellType::Xor, {a[f], b[f]});
      if (width == 3) {
        factor = netlist.add_gate(nl::CellType::Xor, {factor, a[f + 4]});
      }
      acc = f == 0 ? factor
                   : netlist.add_gate(nl::CellType::And, {acc, factor},
                                      f == 3 ? name : "");
    }
    return acc;
  };
  for (unsigned i = 0; i < m; ++i) {
    const std::string name = "z" + std::to_string(i);
    netlist.mark_output(
        i == 1   ? product(3, name)
        : i == 2 ? product(2, name)
                 : netlist.add_gate(nl::CellType::And, {a[i], b[i]}, name));
  }
  return netlist;
}

std::string extraction_error(const nl::Netlist& netlist,
                             const std::vector<nl::Var>& outputs,
                             unsigned threads, std::size_t max_terms) {
  try {
    core::extract_outputs(netlist, outputs, threads,
                          core::RewriteStrategy::Packed, max_terms);
  } catch (const core::TermBudgetExceeded& e) {
    return e.what();
  }
  return "";
}

TEST(ThreadInvarianceBudget, LowestIndexFailureWinsAtEveryThreadCount) {
  // Two of eight cones exceed the budget.  Every extraction must run all
  // cones before surfacing a failure (the sanitizer leg would flag a
  // worker outliving the call), and the failure rethrown must be cone 1's
  // — the one the sequential loop stops at — whatever order the workers
  // finish in.
  constexpr std::size_t kBudget = 10;
  const auto netlist = two_blowup_cones();
  const auto& outputs = netlist.outputs();
  const unsigned m = static_cast<unsigned>(outputs.size());

  std::vector<std::string> per_cone;
  for (const nl::Var out : outputs) {
    per_cone.push_back(extraction_error(netlist, {out}, 1, kBudget));
  }
  ASSERT_TRUE(per_cone[0].empty());
  ASSERT_FALSE(per_cone[1].empty());
  ASSERT_FALSE(per_cone[2].empty());
  ASSERT_NE(per_cone[1], per_cone[2])
      << "the failing cones must be told apart by their messages";
  for (unsigned i = 3; i < m; ++i) ASSERT_TRUE(per_cone[i].empty()) << i;

  const std::string sequential =
      extraction_error(netlist, outputs, 1, kBudget);
  EXPECT_EQ(sequential, per_cone[1]);
  for (const unsigned threads : {2u, 4u, 4 * m}) {
    EXPECT_EQ(extraction_error(netlist, outputs, threads, kBudget),
              sequential)
        << "threads=" << threads;
  }

  for (const unsigned threads : {1u, 2u, 4u, 4 * m}) {
    core::FlowOptions options;
    options.threads = threads;
    options.max_terms = kBudget;
    const auto report = core::reverse_engineer(netlist, options);
    EXPECT_FALSE(report.success) << "threads=" << threads;
    EXPECT_EQ(report.recovery.diagnosis, "extraction aborted: " + sequential)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace gfre
