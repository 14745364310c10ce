// Seeded input generation for the end-to-end benchmark.
//
// Every netlist a workload analyzes is generated here during set-up and
// written to disk; the program under test only ever sees those files.  The
// generating polynomial travels with each file as the answer the benchmark
// checks the recovered P(x) against, so correctness never rests on a value
// the program itself reported.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gf2poly/gf2_poly.hpp"
#include "util/prng.hpp"

namespace gfre::e2e {

enum class Family { Mastrovito, Montgomery, Karatsuba, ShiftAdd };
enum class Dialect { Eqn, Blif, Verilog };

const char* family_name(Family family);
const char* dialect_ext(Dialect dialect);

/// One generated netlist file and its known answer.
struct Circuit {
  std::string path;
  unsigned m = 0;
  gf2::Poly p;  ///< the polynomial the circuit was generated from
  /// Circuits sharing a twin id are the same multiplier in different
  /// dialects; their reports must agree on P(x) and circuit class.
  std::size_t twin = 0;
};

/// An irreducible pentanomial x^m + x^a + x^b + x^c + 1 with
/// limit > a > b > c > 0, drawn by rejection sampling.  Keeping the middle
/// terms low keeps every draw's reduction network about the same size, as
/// with the NIST B-field polynomials.
gf2::Poly draw_pentanomial(unsigned m, unsigned limit, Prng& rng);

/// Generates one multiplier for GF(2^m)/p and writes it once per dialect as
/// `<dir>/<stem>.<ext>`.  Returns one Circuit per dialect, in order.
std::vector<Circuit> write_multiplier(Family family, const gf2::Poly& p,
                                      const std::vector<Dialect>& dialects,
                                      const std::string& dir,
                                      const std::string& stem,
                                      std::size_t twin);

}  // namespace gfre::e2e
