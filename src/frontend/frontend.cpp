#include "frontend/frontend.hpp"

#include <cctype>

#include "netlist/io_blif.hpp"
#include "netlist/io_eqn.hpp"
#include "netlist/io_verilog.hpp"
#include "util/error.hpp"

namespace gfre::frontend {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '$' ||
         c == '[' || c == ']' || c == '.';
}

/// Advances past whitespace and every comment style any dialect accepts
/// ('#' and '//' to end of line, '/* */' blocks).  Comments don't decide
/// the format — the first real token does.
std::size_t skip_trivia(std::string_view bytes, std::size_t pos) {
  while (pos < bytes.size()) {
    const char c = bytes[pos];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++pos;
      continue;
    }
    if (c == '#') {
      while (pos < bytes.size() && bytes[pos] != '\n') ++pos;
      continue;
    }
    if (c == '/' && pos + 1 < bytes.size()) {
      if (bytes[pos + 1] == '/') {
        while (pos < bytes.size() && bytes[pos] != '\n') ++pos;
        continue;
      }
      if (bytes[pos + 1] == '*') {
        pos += 2;
        while (pos + 1 < bytes.size() &&
               !(bytes[pos] == '*' && bytes[pos + 1] == '/'))
          ++pos;
        pos = (pos + 1 < bytes.size()) ? pos + 2 : bytes.size();
        continue;
      }
    }
    break;
  }
  return pos;
}

}  // namespace

Format sniff_format(std::string_view bytes) {
  std::size_t pos = skip_trivia(bytes, 0);
  if (pos >= bytes.size()) return Format::Unknown;
  const char c = bytes[pos];
  // BLIF is the only dialect whose statements lead with a dot directive.
  if (c == '.') return Format::Blif;
  // Compiler directives (`include, `define) and escaped identifiers only
  // exist in Verilog.
  if (c == '`' || c == '\\') return Format::Verilog;
  if (!ident_start(c)) return Format::Unknown;
  std::size_t end = pos;
  while (end < bytes.size() && ident_char(bytes[end])) ++end;
  const std::string_view word = bytes.substr(pos, end - pos);
  if (word == "module" || word == "macromodule") return Format::Verilog;
  if (word == "model" || word == "input" || word == "output")
    return Format::Eqn;
  // A bare equation ("s0 = AND(a, b);") is legal leading .eqn content.
  pos = skip_trivia(bytes, end);
  if (pos < bytes.size() && bytes[pos] == '=') return Format::Eqn;
  return Format::Unknown;
}

nl::Netlist parse_netlist(const std::string& text, const std::string& filename,
                          const FrontendOptions& options) {
  switch (sniff_format(text)) {
    case Format::Eqn:
      return nl::read_eqn(text, filename, options);
    case Format::Blif:
      return nl::read_blif(text, filename);  // covers never name cells
    case Format::Verilog:
      return nl::read_verilog(text, filename, options);
    case Format::Unknown:
      break;
  }
  throw ParseError(
      filename, 1,
      "unknown_format: content matches no supported dialect (expected "
      ".eqn equations, BLIF directives, or a Verilog module)");
}

}  // namespace gfre::frontend
