// Structural Verilog subset.
//
// Writer: emits one `assign` per gate using ~ & | ^ expressions (plus the
// ternary operator for MUX), which loads into any synthesis tool.  Names
// that are not simple identifiers (flattened instance paths, vector bits)
// are emitted as escaped identifiers.
//
// Reader: parses structural netlists — multi-module files with hierarchy
// (module instantiation with named or positional connections, flattened
// with instance-path net naming), `include resolution with cycle
// detection, parameter/localparam with constant folding, vector ports and
// bit-selects, escaped identifiers, Verilog gate primitives (and/or/...),
// `assign` expressions with ~ & | ^ ?: — and, given a cell library,
// instances of standard cells resolved to gate subgraphs.  The supported
// subset is specified in docs/FRONTEND.md.
#pragma once

#include <string>

#include "frontend/frontend.hpp"
#include "netlist/netlist.hpp"

namespace gfre::nl {

/// Serializes a netlist as structural Verilog.
std::string write_verilog(const Netlist& netlist);

/// Parses the structural Verilog subset; `filename` is used in
/// diagnostics and as the base directory for `include resolution.
Netlist read_verilog(const std::string& text,
                     const std::string& filename = "<verilog>",
                     const frontend::FrontendOptions& options = {});

void write_verilog_file(const Netlist& netlist, const std::string& path);
Netlist read_verilog_file(const std::string& path);

/// Quotes `name` as a Verilog identifier: returned verbatim when it is a
/// simple identifier, otherwise escaped ("\name " — the trailing space is
/// part of the escape syntax).
std::string verilog_ident(const std::string& name);

}  // namespace gfre::nl
