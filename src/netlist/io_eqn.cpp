#include "netlist/io_eqn.hpp"

#include <cctype>
#include <fstream>
#include <span>
#include <sstream>
#include <string_view>

#include "frontend/cell_library.hpp"
#include "frontend/graph.hpp"
#include "frontend/source.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace gfre::nl {

std::string write_eqn(const Netlist& netlist) {
  std::ostringstream out;
  out << "# gfre .eqn netlist — " << netlist.num_equations()
      << " equations\n";
  out << "model " << netlist.name() << "\n";
  out << "input";
  for (Var v : netlist.inputs()) out << " " << netlist.var_name(v);
  out << ";\n";
  out << "output";
  for (Var v : netlist.outputs()) out << " " << netlist.var_name(v);
  out << ";\n";
  for (std::size_t g : netlist.topological_order()) {
    const Gate& gate = netlist.gate(g);
    out << netlist.var_name(gate.output) << " = " << cell_name(gate.type)
        << "(";
    for (std::size_t i = 0; i < gate.inputs.size(); ++i) {
      if (i != 0) out << ", ";
      out << netlist.var_name(gate.inputs[i]);
    }
    out << ");\n";
  }
  return out.str();
}

namespace {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '[' || c == ']' || c == '.' || c == '$';
}

/// Identifier tokens of `text`, as views into it, into `names` (cleared
/// first; the readers reuse one vector for every statement).
void tokenize_names(std::string_view text,
                    std::vector<std::string_view>& names) {
  names.clear();
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i < text.size() && is_ident_char(text[i])) continue;
    if (i > begin) names.push_back(text.substr(begin, i - begin));
    begin = i + 1;
  }
}

/// `line` starts with declaration keyword `keyword` (a whole word); the
/// rest of the line is returned in `rest`.
bool starts_with_keyword(std::string_view line, std::string_view keyword,
                         std::string_view* rest) {
  if (!line.starts_with(keyword) ||
      (line.size() > keyword.size() && is_ident_char(line[keyword.size()])))
    return false;
  *rest = line.substr(keyword.size());
  return true;
}

/// Registers the node for `lhs = op(args)`: builtin mnemonics become single
/// gates; with a library loaded, library cells resolve to their builtin
/// equivalent or expand structurally.
void add_equation_node(frontend::GraphBuilder& builder, std::string_view lhs,
                       std::string_view op,
                       std::span<const std::string_view> args,
                       const frontend::Loc& loc,
                       const frontend::CellLibrary* library) {
  CellType type{};
  try {
    type = cell_from_name(op);
  } catch (const InvalidArgument& e) {
    if (!library) frontend::fail_at(loc, e.what());
    const std::string op_name(op);
    const frontend::LibCell* cell = library->find(op_name);
    if (!cell) {
      // Match the builtin mnemonic error shape, mentioning the library.
      frontend::fail_at(loc, "unknown cell '" + op_name +
                                 "' (not builtin, not in library '" +
                                 library->name() + "')");
    }
    if (args.size() != cell->inputs.size())
      frontend::fail_at(loc, "cell '" + op_name + "' expects " +
                                 std::to_string(cell->inputs.size()) +
                                 " arguments, got " +
                                 std::to_string(args.size()));
    builder.add_cell(lhs, cell, args, loc);
    return;
  }
  if (!arity_ok(type, args.size()))
    frontend::fail_at(loc, "bad arity for " + std::string(op));
  builder.add_gate(lhs, type, args, loc);
}

}  // namespace

Netlist read_eqn(const std::string& text, const std::string& filename,
                 const frontend::FrontendOptions& options) {
  frontend::LineScanner scanner(
      text, filename,
      frontend::LineSyntax{.hash_comments = true, .slash_comments = true,
                           .block_comments = true});
  std::string model = "top";
  frontend::GraphBuilder builder;
  const frontend::CellLibrary* library = options.library.get();

  frontend::Loc loc{filename, 0, 0};
  std::vector<std::string_view> names;  // reused by every statement
  while (auto logical = scanner.next()) {
    std::string_view line = logical->text;
    loc.line = logical->line;
    if (!line.empty() && line.back() == ';') line.remove_suffix(1);
    while (!line.empty() &&
           std::isspace(static_cast<unsigned char>(line.back())))
      line.remove_suffix(1);
    if (line.empty()) continue;

    // A statement with '=' is an equation, so a net may be named `model`,
    // `input` or `output`; the keywords lead only declarations.
    const auto eq = line.find('=');
    std::string_view rest;
    if (eq == std::string_view::npos) {
      if (line.starts_with("model ")) {
        line.remove_prefix(6);
        while (!line.empty() &&
               std::isspace(static_cast<unsigned char>(line.front())))
          line.remove_prefix(1);
        model = line;
      } else if (starts_with_keyword(line, "input", &rest)) {
        tokenize_names(rest, names);
        for (std::string_view n : names) builder.add_input(n, loc);
      } else if (starts_with_keyword(line, "output", &rest)) {
        tokenize_names(rest, names);
        for (std::string_view n : names) builder.add_output(n, loc);
      } else {
        frontend::fail_at(loc, "unrecognized statement: " + std::string(line));
      }
      continue;
    }
    tokenize_names(line.substr(0, eq), names);
    if (names.size() != 1)
      frontend::fail_at(loc, "bad equation left-hand side");
    const std::string_view lhs = names[0];
    const std::string_view rhs = line.substr(eq + 1);
    const auto paren = rhs.find('(');
    if (paren == std::string_view::npos) {
      // Constant form: "x = 0" / "x = 1".
      tokenize_names(rhs, names);
      if (names.size() == 1 && (names[0] == "0" || names[0] == "1")) {
        add_equation_node(builder, lhs, names[0] == "0" ? "CONST0" : "CONST1",
                          {}, loc, library);
        continue;
      }
      frontend::fail_at(loc, "expected OP(args) or 0/1");
    }
    tokenize_names(rhs.substr(0, paren), names);
    if (names.size() != 1) frontend::fail_at(loc, "bad operator name");
    const std::string_view op = names[0];
    const auto close = rhs.rfind(')');
    if (close == std::string_view::npos || close < paren)
      frontend::fail_at(loc, "unbalanced parentheses");
    tokenize_names(rhs.substr(paren + 1, close - paren - 1), names);
    add_equation_node(builder, lhs, op, names, loc, library);
  }
  Netlist netlist = builder.build();
  netlist.set_name(model);
  return netlist;
}

void write_eqn_file(const Netlist& netlist, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open '" + path + "' for writing");
  out << write_eqn(netlist);
}

Netlist read_eqn_file(const std::string& path) {
  std::string text;
  if (!util::read_file_to_string(path, &text))
    throw Error("cannot open '" + path + "' for reading");
  return read_eqn(text, path);
}

}  // namespace gfre::nl
