// The unified netlist frontend: one entry point from bytes to Netlist.
//
// Dispatch is by content, not file extension: sniff_format() inspects the
// first meaningful token (comments and whitespace skipped), so a BLIF
// file named circuit.txt — or bytes arriving over the serving tier's wire
// protocol — parse the same as a well-named file.  Unrecognizable bytes
// are a diagnosed `unknown_format` parse error, never a crash.
//
// Every dialect parser is reachable through parse_netlist() and shares
// the frontend/source.hpp lexing substrate, so CRLF handling,
// comment stripping and file:line:column diagnostics behave identically
// across .eqn, BLIF and Verilog.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "frontend/cell_library.hpp"
#include "netlist/netlist.hpp"

namespace gfre::frontend {

enum class Format { Eqn, Blif, Verilog, Unknown };

/// Determines the dialect from the first non-comment token of `bytes`.
Format sniff_format(std::string_view bytes);

/// Cross-dialect parse options.
struct FrontendOptions {
  /// Standard-cell definitions for instantiated (Verilog) or referenced
  /// (.eqn operator) cell types outside the builtin set.  May be null.
  std::shared_ptr<const CellLibrary> library;
  /// Verilog only: top module override.  Empty = the single module, or
  /// the unique uninstantiated one in a multi-module file.
  std::string top;
};

/// Sniffs and parses.  Throws ParseError with an `unknown_format`
/// diagnosis when the bytes match no dialect.
nl::Netlist parse_netlist(const std::string& text, const std::string& filename,
                          const FrontendOptions& options = {});

}  // namespace gfre::frontend
