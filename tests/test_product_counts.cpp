// Differential suite for the analysis layer's counting pass
// (core/product_counts.hpp).  Algorithm 2, the reduction-matrix recovery,
// the output-order recovery, golden verification and analyze_extraction's
// phase sequence must report exactly what the textbook reading reports:
// one product_set_membership probe per (S_k, output bit), and a golden
// model built as whole ANFs.  The oracle below is that reading, spelled
// out.  Inputs: every generator family at m = 2..32 in declared and
// scrambled output order, random bilinear ANFs with injected defects, and
// operand words that share nets.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/flow.hpp"
#include "core/parallel_extract.hpp"
#include "core/permutation.hpp"
#include "core/poly_extract.hpp"
#include "core/redmatrix.hpp"
#include "core/verify.hpp"
#include "gen/karatsuba.hpp"
#include "gen/mastrovito.hpp"
#include "gen/montgomery_gate.hpp"
#include "gen/shift_add.hpp"
#include "gen/squarer.hpp"
#include "gf2m/field.hpp"
#include "gf2poly/irreducible.hpp"
#include "util/prng.hpp"

namespace gfre::core {
namespace {

using anf::Anf;
using anf::Monomial;
using gf2::Poly;

// ---------------------------------------------------------------------------
// The textbook oracle
// ---------------------------------------------------------------------------

Poly oracle_irreducible(const std::vector<Anf>& anfs,
                        const nl::MultiplierPorts& ports) {
  const unsigned m = ports.m();
  const auto p_m = product_set(ports, m);
  Poly p = Poly::monomial(m);
  for (unsigned i = 0; i < m; ++i) {
    if (product_set_membership(anfs[i], p_m) == SetMembership::All) {
      p.flip_coeff(i);
    }
  }
  return p;
}

/// The first monomial, output by output, that is not a_i * b_j.
std::string oracle_bilinearity(const std::vector<Anf>& anfs,
                               const nl::MultiplierPorts& ports) {
  enum class Side { A, B };
  std::unordered_map<anf::Var, Side> side;
  for (anf::Var v : ports.a.bits) side[v] = Side::A;
  for (anf::Var v : ports.b.bits) side[v] = Side::B;
  for (std::size_t i = 0; i < anfs.size(); ++i) {
    for (const Monomial& monomial : anfs[i].monomials()) {
      if (monomial.degree() != 2) {
        return "output bit " + std::to_string(i) +
               " has a non-bilinear monomial of degree " +
               std::to_string(monomial.degree());
      }
      const auto sa = side.find(monomial.vars()[0]);
      const auto sb = side.find(monomial.vars()[1]);
      if (sa == side.end() || sb == side.end() || sa->second == sb->second) {
        return "output bit " + std::to_string(i) +
               " mixes operand sides in a monomial";
      }
    }
  }
  return "";
}

RecoveryReport oracle_reduction_matrix(const std::vector<Anf>& anfs,
                                       const nl::MultiplierPorts& ports) {
  const unsigned m = ports.m();
  RecoveryReport report;
  report.diagnosis = oracle_bilinearity(anfs, ports);
  if (!report.diagnosis.empty()) return report;

  report.rows.assign(2 * m - 1, Poly{});
  for (unsigned k = 0; k <= 2 * m - 2; ++k) {
    const auto set = product_set(ports, k);
    for (unsigned i = 0; i < m; ++i) {
      const SetMembership membership = product_set_membership(anfs[i], set);
      if (membership == SetMembership::Mixed) {
        report.diagnosis = "product set S_" + std::to_string(k) +
                           " is split across output bit " +
                           std::to_string(i) +
                           " — inconsistent GF(2^m) reduction";
        return report;
      }
      if (membership == SetMembership::All) report.rows[k].set_coeff(i, true);
    }
  }

  bool low_identity = true;
  for (unsigned k = 0; k < m; ++k) {
    low_identity = low_identity && report.rows[k] == Poly::monomial(k);
  }
  bool high_identity = true;
  for (unsigned k = m; k <= 2 * m - 2; ++k) {
    high_identity = high_identity && report.rows[k] == Poly::monomial(k - m);
  }
  if (low_identity) {
    report.circuit_class = CircuitClass::StandardProduct;
    report.p = report.rows[m] + Poly::monomial(m);
    report.p_is_irreducible = gf2::is_irreducible(report.p);
    report.rows_consistent = true;
    Poly r = report.rows[m];  // x^k mod P, from k = m on
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
      report.diagnosis =
          "recovered modulus " + report.p.to_string() + " is reducible";
    }
    return report;
  }
  if (high_identity) {
    report.circuit_class = CircuitClass::MontgomeryRaw;
    Poly p = Poly::one();  // row m-1 is (P(x)+1)/x
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
      report.diagnosis = "recovered modulus " + p.to_string() + " is reducible";
      return report;
    }
    const gf2m::Field field(p);
    const Poly x_inv_m = field.inverse(field.reduce(Poly::monomial(m)));
    report.rows_consistent = true;
    for (unsigned k = 0; k < m; ++k) {
      if (report.rows[k] !=
          field.mul(field.reduce(Poly::monomial(k)), x_inv_m)) {
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

std::optional<std::vector<unsigned>> oracle_output_order(
    const std::vector<Anf>& anfs, const nl::MultiplierPorts& ports) {
  const unsigned m = ports.m();
  std::vector<unsigned> order(m, m);
  std::vector<bool> claimed(m, false);
  for (unsigned out = 0; out < m; ++out) {
    std::optional<unsigned> position;
    for (unsigned k = 0; k < m; ++k) {
      const SetMembership membership =
          product_set_membership(anfs[out], product_set(ports, k));
      if (membership == SetMembership::Mixed) return std::nullopt;
      if (membership == SetMembership::All) {
        if (position.has_value()) return std::nullopt;
        position = k;
      }
    }
    if (!position.has_value() || claimed[*position]) return std::nullopt;
    claimed[*position] = true;
    order[*position] = out;
  }
  return order;
}

VerifyResult oracle_verify(const std::vector<Anf>& extracted,
                           const gf2m::Field& field,
                           const nl::MultiplierPorts& ports,
                           CircuitClass circuit_class) {
  VerifyResult result;
  if (circuit_class == CircuitClass::NotAMultiplier) {
    result.detail = "no golden model: circuit is not a GF(2^m) multiplier";
    return result;
  }
  const auto spec = golden_anfs(field, ports,
                                circuit_class == CircuitClass::MontgomeryRaw);
  for (unsigned i = 0; i < spec.size(); ++i) {
    if (spec[i] != extracted[i]) {
      result.mismatch_bit = i;
      result.detail = "output bit " + std::to_string(i) +
                      ": implementation ANF has " +
                      std::to_string(extracted[i].size()) +
                      " monomials, golden has " +
                      std::to_string(spec[i].size());
      return result;
    }
  }
  result.equivalent = true;
  result.detail = "all " + std::to_string(spec.size()) +
                  " output ANFs match the golden model";
  return result;
}

/// analyze_extraction's phases 2-4 (permutation retry and verification
/// on), textbook style.
FlowReport oracle_analyze(std::vector<Anf> anfs,
                          const nl::MultiplierPorts& ports) {
  const unsigned m = ports.m();
  FlowReport report;
  report.algorithm2_p = oracle_irreducible(anfs, ports);
  report.recovery = oracle_reduction_matrix(anfs, ports);
  if (report.recovery.circuit_class == CircuitClass::NotAMultiplier) {
    if (const auto order = oracle_output_order(anfs, ports)) {
      bool identity = true;
      for (unsigned i = 0; i < m; ++i) identity &= (*order)[i] == i;
      if (!identity) {
        std::vector<Anf> reordered(m);
        for (unsigned i = 0; i < m; ++i) reordered[i] = anfs[(*order)[i]];
        anfs = std::move(reordered);
        report.output_permutation = *order;
        report.algorithm2_p = oracle_irreducible(anfs, ports);
        report.recovery = oracle_reduction_matrix(anfs, ports);
      }
    }
  }
  if (report.recovery.circuit_class != CircuitClass::NotAMultiplier &&
      report.recovery.p_is_irreducible) {
    report.verification =
        oracle_verify(anfs, gf2m::Field(report.recovery.p), ports,
                      report.recovery.circuit_class);
  } else {
    report.verification.detail = "skipped: no irreducible P(x) recovered";
  }
  report.success =
      report.recovery.circuit_class != CircuitClass::NotAMultiplier &&
      report.recovery.p_is_irreducible && report.recovery.rows_consistent &&
      report.verification.equivalent;
  return report;
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

void expect_recovery_equal(const RecoveryReport& got,
                           const RecoveryReport& want,
                           const std::string& label) {
  EXPECT_EQ(got.circuit_class, want.circuit_class) << label;
  EXPECT_EQ(got.p, want.p) << label;
  EXPECT_EQ(got.p_is_irreducible, want.p_is_irreducible) << label;
  EXPECT_EQ(got.rows, want.rows) << label;
  EXPECT_EQ(got.rows_consistent, want.rows_consistent) << label;
  EXPECT_EQ(got.diagnosis, want.diagnosis) << label;
}

void expect_verification_equal(const VerifyResult& got,
                               const VerifyResult& want,
                               const std::string& label) {
  EXPECT_EQ(got.equivalent, want.equivalent) << label;
  EXPECT_EQ(got.mismatch_bit, want.mismatch_bit) << label;
  EXPECT_EQ(got.detail, want.detail) << label;
}

/// Every analysis entry point against the oracle on one set of ANFs.  The
/// golden checks run against `field` under every circuit class, so
/// mismatch reports are compared as well as matches.
void expect_matches_oracle(const std::vector<Anf>& anfs,
                           const nl::MultiplierPorts& ports,
                           const gf2m::Field& field,
                           const std::string& label) {
  EXPECT_EQ(recover_irreducible(anfs, ports), oracle_irreducible(anfs, ports))
      << label;
  expect_recovery_equal(recover_reduction_matrix(anfs, ports),
                        oracle_reduction_matrix(anfs, ports), label);
  EXPECT_EQ(recover_output_order(anfs, ports),
            oracle_output_order(anfs, ports))
      << label;
  for (const CircuitClass c :
       {CircuitClass::StandardProduct, CircuitClass::MontgomeryRaw,
        CircuitClass::NotAMultiplier}) {
    expect_verification_equal(verify_against_golden(anfs, field, ports, c),
                              oracle_verify(anfs, field, ports, c),
                              label + " verified as " + to_string(c));
  }

  ExtractionResult extraction;
  extraction.anfs = anfs;
  extraction.per_bit.resize(anfs.size());
  const FlowReport got = analyze_extraction(
      nl::Netlist("differential"), ports, std::move(extraction), {});
  const FlowReport want = oracle_analyze(anfs, ports);
  const std::string flow = label + " (analyze_extraction)";
  EXPECT_EQ(got.algorithm2_p, want.algorithm2_p) << flow;
  expect_recovery_equal(got.recovery, want.recovery, flow);
  EXPECT_EQ(got.output_permutation, want.output_permutation) << flow;
  expect_verification_equal(got.verification, want.verification, flow);
  EXPECT_EQ(got.success, want.success) << flow;
  EXPECT_TRUE(got.extraction.anfs.empty()) << flow;
}

std::vector<unsigned> random_order(unsigned m, Prng& rng) {
  std::vector<unsigned> order(m);
  for (unsigned i = 0; i < m; ++i) order[i] = i;
  for (unsigned i = m; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  return order;
}

std::vector<Anf> reorder(const std::vector<Anf>& anfs,
                         const std::vector<unsigned>& order) {
  std::vector<Anf> out(anfs.size());
  for (std::size_t i = 0; i < anfs.size(); ++i) out[i] = anfs[order[i]];
  return out;
}

// ---------------------------------------------------------------------------
// Generator families, m = 2..32
// ---------------------------------------------------------------------------

struct Family {
  const char* name;
  nl::Netlist (*make)(const gf2m::Field&);
  /// The squarer has one operand word; it is read as both a and b, so
  /// product sets overlap their mirror images and a_i*a_i collapses to
  /// a_i — the shared-net path of the counting pass.
  bool one_word = false;
};

nl::Netlist make_mastrovito(const gf2m::Field& f) {
  return gen::generate_mastrovito(f);
}
nl::Netlist make_montgomery(const gf2m::Field& f) {
  return gen::generate_montgomery(f);
}
nl::Netlist make_montgomery_raw(const gf2m::Field& f) {
  gen::MontgomeryOptions options;
  options.raw = true;
  return gen::generate_montgomery(f, options);
}
nl::Netlist make_karatsuba(const gf2m::Field& f) {
  return gen::generate_karatsuba(f);
}
nl::Netlist make_shift_add(const gf2m::Field& f) {
  return gen::generate_shift_add(f);
}
nl::Netlist make_squarer(const gf2m::Field& f) {
  return gen::generate_squarer(f);
}

class FamiliesAgainstOracle : public ::testing::TestWithParam<Family> {};

TEST_P(FamiliesAgainstOracle, AgreeAtEveryWidthFrom2To32) {
  const Family& family = GetParam();
  Prng rng(0x5eedULL + static_cast<unsigned char>(family.name[0]));
  for (unsigned m = 2; m <= 32; ++m) {
    const gf2m::Field field(gf2::default_irreducible(m));
    const nl::Netlist netlist = family.make(field);
    const auto ports = family.one_word
                           ? nl::multiplier_ports(netlist, "a", "a", "z")
                           : nl::multiplier_ports(netlist);
    const auto anfs = extract_outputs(netlist, ports.z.bits, 1).anfs;
    const std::string label =
        std::string(family.name) + " m=" + std::to_string(m);
    expect_matches_oracle(anfs, ports, field, label);
    expect_matches_oracle(reorder(anfs, random_order(m, rng)), ports, field,
                          label + " scrambled");
    if (HasFailure()) return;  // one width's reports say enough
  }
}

INSTANTIATE_TEST_SUITE_P(
    Generators, FamiliesAgainstOracle,
    ::testing::Values(Family{"mastrovito", &make_mastrovito},
                      Family{"montgomery", &make_montgomery},
                      Family{"montgomery_raw", &make_montgomery_raw},
                      Family{"karatsuba", &make_karatsuba},
                      Family{"shiftadd", &make_shift_add},
                      Family{"squarer", &make_squarer, true}),
    [](const ::testing::TestParamInfo<Family>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// Random bilinear ANFs with injected defects
// ---------------------------------------------------------------------------

/// Never an operand bit: those are 3t + 1.
constexpr anf::Var kStrayVar = 2;

/// m-bit operand words over shuffled, interleaved variable ids, so the
/// lookup cannot lean on the generators' a-then-b numbering.
nl::MultiplierPorts shuffled_ports(unsigned m, Prng& rng) {
  std::vector<anf::Var> vars(2 * m);
  for (unsigned t = 0; t < 2 * m; ++t) vars[t] = 3 * t + 1;
  for (unsigned t = 2 * m; t > 1; --t) {
    std::swap(vars[t - 1], vars[rng.next_below(t)]);
  }
  nl::MultiplierPorts ports;
  ports.a.base = "a";
  ports.b.base = "b";
  ports.z.base = "z";
  for (unsigned i = 0; i < m; ++i) {
    ports.a.bits.push_back(vars[i]);
    ports.b.bits.push_back(vars[m + i]);
    ports.z.bits.push_back(100000 + i);
  }
  return ports;
}

enum class Defect { SplitSet, SameSide, Degree1, Degree3, StrayVar, MovedSet };
constexpr unsigned kDefects = 6;

const char* defect_name(Defect defect) {
  switch (defect) {
    case Defect::SplitSet: return "split-set";
    case Defect::SameSide: return "same-side";
    case Defect::Degree1: return "degree-1";
    case Defect::Degree3: return "degree-3";
    case Defect::StrayVar: return "stray-var";
    case Defect::MovedSet: return "moved-set";
  }
  return "?";
}

/// Two distinct bit indices below m (m >= 2).
std::pair<unsigned, unsigned> two_bits(unsigned m, Prng& rng) {
  const auto x = static_cast<unsigned>(rng.next_below(m));
  return {x, static_cast<unsigned>((x + 1 + rng.next_below(m - 1)) % m)};
}

void inject(Defect defect, std::vector<Anf>& anfs,
            const nl::MultiplierPorts& ports, Prng& rng) {
  const unsigned m = ports.m();
  Anf& out = anfs[rng.next_below(m)];
  const auto [i, i2] = two_bits(m, rng);
  const auto [j, j2] = two_bits(m, rng);
  const anf::Var a = ports.a.bits[i];
  const anf::Var b = ports.b.bits[j];
  switch (defect) {
    case Defect::SplitSet: {
      // One member of a multi-member S_k toggled in one output.
      const auto k = static_cast<unsigned>(1 + rng.next_below(2 * m - 3));
      const auto set = product_set(ports, k);
      out.toggle(set[rng.next_below(set.size())]);
      break;
    }
    case Defect::SameSide:
      out.toggle(Monomial::from_vars({a, ports.a.bits[i2]}));
      break;
    case Defect::Degree1:
      out.toggle(Monomial(b));
      break;
    case Defect::Degree3:
      out.toggle(Monomial::from_vars({a, b, ports.b.bits[j2]}));
      break;
    case Defect::StrayVar:
      out.toggle(Monomial::from_vars({a, kStrayVar}));
      break;
    case Defect::MovedSet: {
      // A whole S_k moved between outputs: memberships stay all-or-none,
      // but the rows no longer follow one modulus.
      const auto k = static_cast<unsigned>(rng.next_below(2 * m - 1));
      Anf& other = anfs[rng.next_below(m)];
      for (const Monomial& monomial : product_set(ports, k)) {
        out.toggle(monomial);
        other.toggle(monomial);
      }
      break;
    }
  }
}

TEST(CountingAgainstOracle, RandomBilinearAnfsWithInjectedDefects) {
  Prng rng(20241016);
  std::map<unsigned, std::vector<Poly>> irreducibles;
  for (int round = 0; round < 600; ++round) {
    const auto m = static_cast<unsigned>(2 + rng.next_below(9));  // 2..10
    auto& candidates = irreducibles[m];
    if (candidates.empty()) candidates = gf2::all_irreducible(m);
    const gf2m::Field field(candidates[rng.next_below(candidates.size())]);
    const auto ports = shuffled_ports(m, rng);
    const bool raw = rng.next_bool();
    auto anfs = golden_anfs(field, ports, raw);
    std::string label = "round " + std::to_string(round) + " " +
                        field.modulus().to_string() + (raw ? " raw" : "");
    const auto defects = static_cast<unsigned>(rng.next_below(3));
    for (unsigned d = 0; d < defects; ++d) {
      const auto defect = static_cast<Defect>(rng.next_below(kDefects));
      inject(defect, anfs, ports, rng);
      label += std::string(" +") + defect_name(defect);
    }
    if (rng.next_bool()) {
      anfs = reorder(anfs, random_order(m, rng));
      label += " scrambled";
    }
    expect_matches_oracle(anfs, ports, field, label);
    if (HasFailure()) return;
  }
}

TEST(CountingAgainstOracle, OperandWordsSharingNets) {
  // a == b, or some b bits wired to a bits: product sets overlap, a_i*a_i
  // collapses to the single variable a_i, and toggled sets can cancel.
  // Counting positions must still agree with probing every listed member.
  Prng rng(77);
  for (int round = 0; round < 300; ++round) {
    const auto m = static_cast<unsigned>(2 + rng.next_below(7));  // 2..8
    auto ports = shuffled_ports(m, rng);
    if (round % 3 == 0) {
      ports.b.bits = ports.a.bits;
    } else {
      const auto shared = static_cast<unsigned>(1 + rng.next_below(m));
      for (unsigned s = 0; s < shared; ++s) {
        ports.b.bits[rng.next_below(m)] = ports.a.bits[rng.next_below(m)];
      }
    }
    const gf2m::Field field(gf2::default_irreducible(m));
    // Sums of whole product sets, so not every membership is split.
    std::vector<Anf> anfs(m);
    for (Anf& anf : anfs) {
      for (unsigned k = 0; k <= 2 * m - 2; ++k) {
        if (rng.next_below(3) != 0) continue;
        for (const Monomial& monomial : product_set(ports, k)) {
          anf.toggle(monomial);
        }
      }
    }
    if (rng.next_bool()) {
      inject(static_cast<Defect>(rng.next_below(kDefects)), anfs, ports, rng);
    }
    expect_matches_oracle(anfs, ports, field,
                          "round " + std::to_string(round) +
                              " m=" + std::to_string(m));
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace gfre::core
