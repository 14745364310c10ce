// Id-level netlist construction shared by every frontend.
//
// Parsers declare inputs and outputs and add nodes — "net <output> is
// computed from nets <args> by <what to emit>" — in source order.  Each
// net name is hashed and stored once, when an add_* call first sees it,
// into a util::NameTable; a node is a plain record over its ids.  build()
// moves that table into the Netlist it makes (every name reserved there,
// so auto-named helper gates never take a declared name) and instantiates
// the nodes by a depth-first traversal over the ids, so statements may
// appear in any order and every structural diagnostic (undefined net,
// double definition, combinational cycle, driven input, undriven output)
// comes from one implementation with the source location of the
// statement.  Inputs and builtin gates get their nets by table id;
// function and custom nodes pass their output by name.
//
// Emission lives here too.  A node is a builtin gate, or a BoolExpr
// function whose pin i is the node's arg i, emitted one gate per BoolExpr
// gate node.  A library cell with no builtin match and a Verilog `assign`
// (an anonymous cell whose pins are its net references) are both such
// functions; the builder holds a pointer to the library's or the module
// AST's BoolExpr, so each must outlive build().  Only BLIF covers bring
// their own EmitFn.
//
// The traversal visits nodes in insertion order and resolves each node's
// args first, which means a file whose statements are already in
// topological order instantiates gates exactly in file order — the
// property the hierarchical-vs-flat differential tests lean on.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "frontend/cell_library.hpp"
#include "frontend/source.hpp"
#include "netlist/netlist.hpp"

namespace gfre::frontend {

/// Emits the gate(s) computing one node and returns the net named `out`.
/// `args` are the resolved nets for the node's argument names, in order.
/// It may create auxiliary auto-named gates.
using EmitFn = std::function<nl::Var(
    nl::Netlist&, std::span<const nl::Var> args, const std::string& out)>;

class GraphBuilder {
 public:
  /// Declares a primary input (declaration order = Var id order).
  void add_input(std::string_view name, const Loc& loc);

  /// Declares a primary output (order significant).
  void add_output(std::string_view name, const Loc& loc);

  /// `out` is one builtin gate of `type` over `args`.
  void add_gate(std::string_view out, nl::CellType type,
                std::span<const std::string_view> args, const Loc& loc);

  /// `out` is an instance of library cell `cell` (one arg per input pin):
  /// its builtin gate when it has one, else its function's expansion.
  void add_cell(std::string_view out, const LibCell* cell,
                std::span<const std::string_view> args, const Loc& loc);

  /// `out` is `function` with pin i bound to `args[i]`: one gate per
  /// BoolExpr gate node, the root named `out`, inner gates auto-named.
  /// `function` must outlive build().
  void add_function(std::string_view out, const BoolExpr* function,
                    std::span<const std::string_view> args, const Loc& loc);

  /// `out` is whatever `emit` builds from `args`.
  void add_node(std::string_view out, std::span<const std::string_view> args,
                const Loc& loc, EmitFn emit);

  /// Instantiates the netlist; throws ParseError on structural problems.
  /// Call once: the name table moves into the result.
  nl::Netlist build();

 private:
  using NameId = nl::NameId;

  /// A source position with its file as an index into files_.
  struct Pos {
    std::uint32_t file = 0;
    int line = 0;
    int column = 0;
  };

  struct Node {
    enum class Kind : unsigned char { Gate, Function, Custom };
    NameId output = 0;
    std::uint32_t args_begin = 0;  ///< [args_begin, args_end) in args_
    std::uint32_t args_end = 0;
    Pos pos;
    Kind kind = Kind::Gate;
    nl::CellType type{};                 ///< Gate
    unsigned char state = 0;             ///< 0 unvisited, 1 visiting, 2 done
    const BoolExpr* function = nullptr;  ///< Function
    std::uint32_t emit = 0;              ///< Custom: index into emits_
  };

  NameId intern(std::string_view name);
  Pos pos_of(const Loc& loc);
  Loc loc_of(const Pos& pos) const;
  /// Registers a Gate node for `out` (callers retag it) after the
  /// double-definition checks.
  Node& push_node(std::string_view out, std::span<const std::string_view> args,
                  const Loc& loc);
  nl::Var emit(nl::Netlist& netlist, const Node& node,
               std::span<const nl::Var> args);
  void instantiate(nl::Netlist& netlist);

  std::vector<SourceName> files_;  ///< one entry per run of statements
  util::NameTable names_;  ///< moved into the netlist by build()
  /// Per id: 0 undefined, kInput, or driving node index + 1.
  std::vector<std::uint32_t> def_;
  std::vector<NameId> inputs_;
  std::vector<std::pair<NameId, Pos>> outputs_;
  std::vector<Node> nodes_;
  std::vector<NameId> args_;
  std::vector<EmitFn> emits_;
  std::vector<nl::Var> var_;  ///< per id, filled by build()
};

}  // namespace gfre::frontend
