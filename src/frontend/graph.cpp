#include "frontend/graph.hpp"

#include "util/error.hpp"

namespace gfre::frontend {

namespace {

// def_ value of a declared input.
constexpr std::uint32_t kInput = UINT32_MAX;

/// Emits gates computing `expr` with pin i bound to `pins[i]`, operands
/// before the gate that reads them, and returns the net holding the
/// result.  The root gate takes `output` (empty = auto-named).
nl::Var emit_bool_expr(nl::Netlist& netlist, const BoolExpr& expr,
                       std::span<const nl::Var> pins,
                       const std::string& output) {
  if (expr.kind == BoolExpr::Kind::Ref) {
    const nl::Var net = pins[expr.pin];
    // A bare pin reference still needs a gate when it must drive a
    // specific output net.
    if (output.empty()) return net;
    return netlist.add_gate(nl::CellType::Buf, {net}, output);
  }
  std::vector<nl::Var> inputs;
  inputs.reserve(expr.operands.size());
  for (const BoolExpr& op : expr.operands)
    inputs.push_back(emit_bool_expr(netlist, op, pins, ""));
  return netlist.add_gate(expr.type, std::move(inputs), output);
}

}  // namespace

GraphBuilder::NameId GraphBuilder::intern(std::string_view name) {
  const auto [id, fresh] = names_.intern(name);
  if (fresh) def_.push_back(0);
  return id;
}

GraphBuilder::Pos GraphBuilder::pos_of(const Loc& loc) {
  // A file switch only happens at an `include boundary.
  if (files_.empty() || files_.back() != loc.file) files_.push_back(loc.file);
  return Pos{static_cast<std::uint32_t>(files_.size() - 1), loc.line,
             loc.column};
}

Loc GraphBuilder::loc_of(const Pos& pos) const {
  return Loc{files_[pos.file], pos.line, pos.column};
}

void GraphBuilder::add_input(std::string_view name, const Loc& loc) {
  const NameId id = intern(name);
  if (def_[id] == kInput)
    fail_at(loc, "input '" + std::string(name) + "' declared twice");
  if (def_[id] != 0)
    fail_at(loc, "input '" + std::string(name) + "' is also driven");
  def_[id] = kInput;
  inputs_.push_back(id);
}

void GraphBuilder::add_output(std::string_view name, const Loc& loc) {
  outputs_.emplace_back(intern(name), pos_of(loc));
}

GraphBuilder::Node& GraphBuilder::push_node(
    std::string_view out, std::span<const std::string_view> args,
    const Loc& loc) {
  const NameId id = intern(out);
  if (def_[id] == kInput)
    fail_at(loc, "input '" + std::string(out) + "' is also driven");
  if (def_[id] != 0)
    fail_at(loc, "net '" + std::string(out) + "' defined twice");
  Node& node = nodes_.emplace_back();
  def_[id] = static_cast<std::uint32_t>(nodes_.size());
  node.output = id;
  node.args_begin = static_cast<std::uint32_t>(args_.size());
  for (std::string_view arg : args) args_.push_back(intern(arg));
  node.args_end = static_cast<std::uint32_t>(args_.size());
  node.pos = pos_of(loc);
  return node;
}

void GraphBuilder::add_gate(std::string_view out, nl::CellType type,
                            std::span<const std::string_view> args,
                            const Loc& loc) {
  push_node(out, args, loc).type = type;
}

void GraphBuilder::add_cell(std::string_view out, const LibCell* cell,
                            std::span<const std::string_view> args,
                            const Loc& loc) {
  GFRE_ASSERT(args.size() == cell->inputs.size(),
              "cell '" << cell->name << "' instance arity mismatch");
  if (cell->builtin) return add_gate(out, *cell->builtin, args, loc);
  add_function(out, &cell->function, args, loc);
}

void GraphBuilder::add_function(std::string_view out,
                                const BoolExpr* function,
                                std::span<const std::string_view> args,
                                const Loc& loc) {
  Node& node = push_node(out, args, loc);
  node.kind = Node::Kind::Function;
  node.function = function;
}

void GraphBuilder::add_node(std::string_view out,
                            std::span<const std::string_view> args,
                            const Loc& loc, EmitFn emit) {
  Node& node = push_node(out, args, loc);
  node.kind = Node::Kind::Custom;
  node.emit = static_cast<std::uint32_t>(emits_.size());
  emits_.push_back(std::move(emit));
}

nl::Var GraphBuilder::emit(nl::Netlist& netlist, const Node& node,
                           std::span<const nl::Var> args) {
  // `out` lives in the netlist's name table, whose names never move.
  const std::string& out = netlist.names().name(node.output);
  switch (node.kind) {
    case Node::Kind::Gate:
      return netlist.add_gate(node.type, {args.begin(), args.end()},
                              node.output);
    case Node::Kind::Function:
      return emit_bool_expr(netlist, *node.function, args, out);
    case Node::Kind::Custom:
      return emits_[node.emit](netlist, args, out);
  }
  GFRE_ASSERT(false, "unreachable node kind");
  return 0;
}

void GraphBuilder::instantiate(nl::Netlist& netlist) {
  // Iterative DFS from each node in insertion order: frame = (node index,
  // next argument to resolve).  Deep XOR chains in crypto-scale netlists
  // overflow the call stack otherwise.
  struct Frame {
    std::uint32_t node;
    std::uint32_t next_arg;
  };
  const util::NameTable& names = netlist.names();
  std::vector<Frame> stack;
  std::vector<nl::Var> args;
  for (std::uint32_t root = 0; root < nodes_.size(); ++root) {
    if (nodes_[root].state == 2) continue;
    stack.push_back({root, nodes_[root].args_begin});
    nodes_[root].state = 1;
    while (!stack.empty()) {
      Frame& fr = stack.back();
      Node& node = nodes_[fr.node];
      bool descended = false;
      while (fr.next_arg < node.args_end) {
        const NameId arg = args_[fr.next_arg++];
        const std::uint32_t def = def_[arg];
        if (def == kInput) continue;  // inputs pre-created
        if (def == 0)
          fail_at(loc_of(node.pos), "undefined net '" + names.name(arg) + "'");
        Node& dep = nodes_[def - 1];
        if (dep.state == 2) continue;
        if (dep.state == 1)
          fail_at(loc_of(node.pos),
                  "combinational cycle through '" + names.name(arg) + "'");
        dep.state = 1;
        stack.push_back({def - 1, dep.args_begin});
        descended = true;
        break;
      }
      if (descended) continue;
      // All args resolved: emit this node's gates.
      args.clear();
      for (std::uint32_t i = node.args_begin; i < node.args_end; ++i)
        args.push_back(var_[args_[i]]);
      const nl::Var v = emit(netlist, node, args);
      GFRE_ASSERT(&netlist.var_name(v) == &names.name(node.output),
                  "frontend node for '" << names.name(node.output)
                                        << "' did not create its net");
      var_[node.output] = v;
      node.state = 2;
      stack.pop_back();
    }
  }
}

nl::Netlist GraphBuilder::build() {
  nl::Netlist netlist;
  // Every interned name is reserved in the netlist, so auto-generated
  // helper names never take a declared one, regardless of instantiation
  // order.
  var_.assign(names_.size(), 0);
  netlist.adopt_names(std::move(names_));
  for (NameId id : inputs_) var_[id] = netlist.add_input(id);
  instantiate(netlist);
  for (const auto& [id, pos] : outputs_) {
    if (def_[id] == 0)
      fail_at(loc_of(pos),
              "undriven output '" + netlist.names().name(id) + "'");
    netlist.mark_output(var_[id]);
  }
  return netlist;
}

}  // namespace gfre::frontend
