// The .eqn equation format.
//
// A line-oriented gate-equation format in the spirit of the "equations"
// inputs the paper's tool consumes (one polynomial-able equation per gate):
//
//   # GF(2^4) Mastrovito multiplier
//   model mastrovito_m4
//   input a0 a1 a2 a3 b0 b1 b2 b3;
//   output z0 z1 z2 z3;
//   s0 = AND(a0, b0);
//   t1 = XOR(s1, s4);
//   z0 = BUF(t9);
//
// Statements may appear in any order; the reader topologically orders the
// equations (and reports cycles as parse errors).
#pragma once

#include <iosfwd>
#include <string>

#include "frontend/frontend.hpp"
#include "netlist/netlist.hpp"

namespace gfre::nl {

/// Serializes a netlist to .eqn text.
std::string write_eqn(const Netlist& netlist);

/// Parses .eqn text; `filename` is used in diagnostics only.  Operator
/// names outside the builtin mnemonics are resolved against
/// `options.library` (single gate when the cell matches a builtin truth
/// table, structural expansion otherwise).
Netlist read_eqn(const std::string& text,
                 const std::string& filename = "<eqn>",
                 const frontend::FrontendOptions& options = {});

/// File helpers.
void write_eqn_file(const Netlist& netlist, const std::string& path);
Netlist read_eqn_file(const std::string& path);

}  // namespace gfre::nl
