// Cell-library techmapping: semantic matching of library cells onto the
// builtin cell set, and structural expansion for everything else.
#include <array>
#include <span>
#include <vector>

#include "frontend/cell_library.hpp"
#include "netlist/cell.hpp"
#include "opt/passes.hpp"
#include "util/error.hpp"

namespace gfre::opt {

std::optional<nl::CellType> match_builtin_cell(const frontend::LibCell& cell) {
  const std::size_t n = cell.inputs.size();
  if (n > 8) return std::nullopt;
  // The cell's truth table, LSB-first over pin values.
  const std::size_t rows = std::size_t{1} << n;
  std::vector<bool> table(rows);
  std::vector<bool> values(n);
  for (std::size_t row = 0; row < rows; ++row) {
    for (std::size_t i = 0; i < n; ++i) values[i] = (row >> i) & 1;
    table[row] = frontend::eval_bool_expr(cell.function, values);
  }
  std::array<bool, 8> pins{};
  for (nl::CellType type : nl::all_cell_types()) {
    if (!nl::arity_ok(type, n)) continue;
    bool match = true;
    for (std::size_t row = 0; row < rows && match; ++row) {
      for (std::size_t i = 0; i < n; ++i) pins[i] = (row >> i) & 1;
      match = nl::eval_cell(type, std::span<const bool>(pins.data(), n)) ==
              table[row];
    }
    if (match) return type;
  }
  return std::nullopt;
}

namespace {

/// Emits gates computing `expr` (a resolved BoolExpr over pin indices)
/// and returns the net holding the result.  The root gate takes `output`
/// (empty = auto-named).
nl::Var emit_expr(nl::Netlist& netlist, const frontend::BoolExpr& expr,
                  std::span<const nl::Var> actuals,
                  const std::string& output) {
  using Kind = frontend::BoolExpr::Kind;
  auto sub = [&](const frontend::BoolExpr& e) {
    return emit_expr(netlist, e, actuals, "");
  };
  switch (expr.kind) {
    case Kind::Const0:
      return netlist.add_gate(nl::CellType::Const0, {}, output);
    case Kind::Const1:
      return netlist.add_gate(nl::CellType::Const1, {}, output);
    case Kind::Ref: {
      const nl::Var net = actuals[expr.pin];
      // A bare pin reference still needs a gate when it must drive a
      // specific output net.
      if (output.empty()) return net;
      return netlist.add_gate(nl::CellType::Buf, {net}, output);
    }
    case Kind::Not:
      return netlist.add_gate(nl::CellType::Inv, {sub(expr.operands[0])},
                              output);
    case Kind::And:
      return netlist.add_gate(nl::CellType::And,
                              {sub(expr.operands[0]), sub(expr.operands[1])},
                              output);
    case Kind::Or:
      return netlist.add_gate(nl::CellType::Or,
                              {sub(expr.operands[0]), sub(expr.operands[1])},
                              output);
    case Kind::Xor:
      return netlist.add_gate(nl::CellType::Xor,
                              {sub(expr.operands[0]), sub(expr.operands[1])},
                              output);
    case Kind::Mux:
      return netlist.add_gate(nl::CellType::Mux,
                              {sub(expr.operands[0]), sub(expr.operands[1]),
                               sub(expr.operands[2])},
                              output);
  }
  GFRE_ASSERT(false, "unreachable BoolExpr kind");
  return 0;
}

}  // namespace

nl::Var expand_cell_function(nl::Netlist& netlist,
                             const frontend::LibCell& cell,
                             std::span<const nl::Var> actuals,
                             const std::string& output) {
  GFRE_ASSERT(actuals.size() == cell.inputs.size(),
              "cell '" << cell.name << "' expansion arity mismatch");
  return emit_expr(netlist, cell.function, actuals, output);
}

}  // namespace gfre::opt
