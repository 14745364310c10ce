#include "netlist/io_blif.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "frontend/graph.hpp"
#include "frontend/source.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace gfre::nl {

namespace {

// -- Writing ---------------------------------------------------------------

/// Emits the SOP cover of a cell.  Rows are over the gate's inputs in order;
/// the final column is the output value.
void write_cover(std::ostream& out, const Gate& gate) {
  const std::size_t n = gate.inputs.size();
  switch (gate.type) {
    case CellType::Const0:
      // Empty cover = constant 0.
      return;
    case CellType::Const1:
      out << "1\n";
      return;
    case CellType::Buf:
      out << "1 1\n";
      return;
    case CellType::Inv:
      out << "0 1\n";
      return;
    case CellType::And:
      out << std::string(n, '1') << " 1\n";
      return;
    case CellType::Nand:
      out << std::string(n, '1') << " 0\n";
      return;
    case CellType::Or:
      for (std::size_t i = 0; i < n; ++i) {
        std::string row(n, '-');
        row[i] = '1';
        out << row << " 1\n";
      }
      return;
    case CellType::Nor:
      out << std::string(n, '0') << " 1\n";
      return;
    default:
      break;
  }
  // Generic fallback: enumerate the truth table rows evaluating to 1.
  GFRE_ASSERT(n <= 8, "cover enumeration too wide");
  std::array<bool, 8> in{};
  for (std::size_t row = 0; row < (std::size_t{1} << n); ++row) {
    for (std::size_t i = 0; i < n; ++i) in[i] = (row >> i) & 1;
    if (eval_cell(gate.type, std::span<const bool>(in.data(), n))) {
      std::string bits(n, '0');
      for (std::size_t i = 0; i < n; ++i) {
        if (in[i]) bits[i] = '1';
      }
      out << bits << " 1\n";
    }
  }
}

// -- Reading ---------------------------------------------------------------

/// The cover rows of one .names block ("1-0 1"), and the line of its
/// directive for diagnostics.
struct Cover {
  std::vector<std::string> rows;
  int line = 0;
};

/// Whitespace-separated tokens of `line`, as views into it, into `tokens`
/// (cleared first; the reader reuses one vector for every line).
void split_ws(std::string_view line, std::vector<std::string_view>& tokens) {
  tokens.clear();
  std::size_t pos = 0;
  while (true) {
    pos = line.find_first_not_of(" \t\r\n\v\f", pos);
    if (pos == std::string_view::npos) break;
    const std::size_t end = std::min(line.find_first_of(" \t\r\n\v\f", pos),
                                     line.size());
    tokens.push_back(line.substr(pos, end - pos));
    pos = end;
  }
}

/// Builds the gates for one .names node and returns the net named
/// `out_name`.  `inputs` are the resolved argument nets (cover columns, in
/// order).  Shared `inv_cache` keeps one INV per inverted literal across
/// the whole file.
Var synthesize_node(Netlist& netlist, const Cover& cover,
                    std::span<const Var> inputs, const std::string& out_name,
                    const std::string& file,
                    std::unordered_map<Var, Var>& inv_cache) {
  const std::size_t n = inputs.size();
  const auto fail = [&](const std::string& msg) {
    frontend::fail_at(frontend::Loc{file, cover.line, 0}, msg);
  };

  auto inverted = [&](Var v) -> Var {
    const auto it = inv_cache.find(v);
    if (it != inv_cache.end()) return it->second;
    const Var inv = netlist.add_gate(CellType::Inv, {v});
    inv_cache.emplace(v, inv);
    return inv;
  };

  // Parse rows into (mask, polarity) pairs.
  struct Row {
    std::string_view bits;
    bool value;
  };
  std::vector<Row> rows;
  std::vector<std::string_view> tokens;
  for (const std::string& text : cover.rows) {
    split_ws(text, tokens);
    if (n == 0) {
      if (tokens.size() != 1 || (tokens[0] != "0" && tokens[0] != "1")) {
        fail("bad constant cover row");
      }
      rows.push_back(Row{{}, tokens[0] == "1"});
      continue;
    }
    if (tokens.size() != 2 || tokens[0].size() != n ||
        (tokens[1] != "0" && tokens[1] != "1")) {
      fail("bad cover row '" + text + "'");
    }
    rows.push_back(Row{tokens[0], tokens[1] == "1"});
  }

  // All rows must share one output polarity (standard BLIF).
  bool polarity = true;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i == 0) {
      polarity = rows[i].value;
    } else if (rows[i].value != polarity) {
      fail("mixed cover polarities");
    }
  }

  if (rows.empty()) return netlist.add_gate(CellType::Const0, {}, out_name);
  if (n == 0) {
    return netlist.add_gate(polarity ? CellType::Const1 : CellType::Const0,
                            {}, out_name);
  }

  // Each row -> product term; OR of terms; invert if polarity is 0.
  std::vector<Var> terms;
  for (const auto& row : rows) {
    std::vector<Var> literals;
    for (std::size_t i = 0; i < n; ++i) {
      if (row.bits[i] == '1') {
        literals.push_back(inputs[i]);
      } else if (row.bits[i] == '0') {
        literals.push_back(inverted(inputs[i]));
      } else if (row.bits[i] != '-') {
        fail("bad cover literal '" + std::string(row.bits) + "'");
      }
    }
    if (literals.empty()) {
      // Row of all don't-cares: tautology.
      terms.push_back(netlist.add_gate(CellType::Const1, {}));
    } else if (literals.size() == 1) {
      terms.push_back(literals[0]);
    } else {
      terms.push_back(netlist.add_gate(CellType::And, literals));
    }
  }

  // OR chain (bounded arity); final gate carries the node's output name.
  auto reduce_or = [&](std::vector<Var> operands, const std::string& name,
                       bool invert) -> Var {
    while (operands.size() > 4) {
      std::vector<Var> next;
      for (std::size_t i = 0; i < operands.size(); i += 4) {
        const std::size_t chunk = std::min<std::size_t>(4, operands.size() - i);
        if (chunk == 1) {
          next.push_back(operands[i]);
        } else {
          next.push_back(netlist.add_gate(
              CellType::Or,
              std::vector<Var>(operands.begin() + i,
                               operands.begin() + i + chunk)));
        }
      }
      operands = std::move(next);
    }
    if (operands.size() == 1) {
      return netlist.add_gate(invert ? CellType::Inv : CellType::Buf,
                              {operands[0]}, name);
    }
    return netlist.add_gate(invert ? CellType::Nor : CellType::Or, operands,
                            name);
  };

  return reduce_or(std::move(terms), out_name, !polarity);
}

}  // namespace

std::string write_blif(const Netlist& netlist) {
  std::ostringstream out;
  out << ".model " << netlist.name() << "\n";
  out << ".inputs";
  for (Var v : netlist.inputs()) out << " " << netlist.var_name(v);
  out << "\n.outputs";
  for (Var v : netlist.outputs()) out << " " << netlist.var_name(v);
  out << "\n";
  for (std::size_t g : netlist.topological_order()) {
    const Gate& gate = netlist.gate(g);
    out << ".names";
    for (Var in : gate.inputs) out << " " << netlist.var_name(in);
    out << " " << netlist.var_name(gate.output) << "\n";
    write_cover(out, gate);
  }
  out << ".end\n";
  return out.str();
}

Netlist read_blif(const std::string& text, const std::string& filename) {
  frontend::LineScanner scanner(
      text, filename,
      frontend::LineSyntax{.hash_comments = true, .slash_comments = false,
                           .block_comments = true,
                           .backslash_continuation = true});
  std::string model = "top";
  frontend::GraphBuilder builder;
  // One INV per inverted literal, shared across the whole file.
  std::unordered_map<Var, Var> inv_cache;
  // The .names block being collected: rows attach to it until the next
  // directive.
  std::vector<std::string> signals;  // inputs..., output last
  std::vector<std::string_view> names;  // views of `signals`
  std::shared_ptr<Cover> current;
  frontend::Loc cover_loc{filename, 0, 0};

  auto finish_current = [&]() {
    if (!current) return;
    names.assign(signals.begin(), signals.end());
    cover_loc.line = current->line;
    builder.add_node(
        names.back(), std::span(names).first(names.size() - 1), cover_loc,
        [cover = std::move(current), &inv_cache, &filename](
            Netlist& netlist, std::span<const Var> inputs,
            const std::string& out) {
          return synthesize_node(netlist, *cover, inputs, out, filename,
                                 inv_cache);
        });
  };

  frontend::Loc loc{filename, 0, 0};
  std::vector<std::string_view> tokens;  // reused by every line
  while (auto logical = scanner.next()) {
    loc.line = logical->line;
    split_ws(logical->text, tokens);
    if (tokens.empty()) continue;
    const std::string_view keyword = tokens[0];
    if (keyword == ".model") {
      finish_current();
      if (tokens.size() >= 2) model = tokens[1];
    } else if (keyword == ".inputs") {
      finish_current();
      for (std::size_t i = 1; i < tokens.size(); ++i)
        builder.add_input(tokens[i], loc);
    } else if (keyword == ".outputs") {
      finish_current();
      for (std::size_t i = 1; i < tokens.size(); ++i)
        builder.add_output(tokens[i], loc);
    } else if (keyword == ".names") {
      finish_current();
      if (tokens.size() < 2) frontend::fail_at(loc, ".names without signals");
      signals.assign(tokens.begin() + 1, tokens.end());
      current = std::make_shared<Cover>();
      current->line = loc.line;
    } else if (keyword == ".end") {
      finish_current();
    } else if (keyword[0] == '.') {
      frontend::fail_at(loc, "unsupported BLIF construct '" +
                                 std::string(keyword) + "'");
    } else {
      if (!current) frontend::fail_at(loc, "cover row outside .names");
      current->rows.emplace_back(logical->text);
    }
  }
  finish_current();

  Netlist netlist = builder.build();
  netlist.set_name(model);
  return netlist;
}

void write_blif_file(const Netlist& netlist, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open '" + path + "' for writing");
  out << write_blif(netlist);
}

Netlist read_blif_file(const std::string& path) {
  std::string text;
  if (!util::read_file_to_string(path, &text))
    throw Error("cannot open '" + path + "' for reading");
  return read_blif(text, path);
}

}  // namespace gfre::nl
