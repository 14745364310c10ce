// Gate-level netlist graph.
//
// A netlist is a DAG of cells over named Boolean nets.  Every net is an
// anf::Var, so netlist signals and rewriting variables share one id space —
// backward rewriting (core) substitutes gate outputs without any mapping
// layer.  Gates are stored in creation order; topological order is computed
// on demand (parsers may interleave declarations).  Net names live in one
// util::NameTable, each stored once; the frontend hands over the table it
// filled while parsing (adopt_names), so a parsed name is hashed once.
//
// The number of gates is the paper's "#eqns" column: one algebraic equation
// per gate.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "anf/monomial.hpp"
#include "netlist/cell.hpp"
#include "util/name_table.hpp"

namespace gfre::nl {

using anf::Var;
/// A name's id in the netlist's name table (see adopt_names).
using NameId = util::NameTable::Id;

/// One gate instance: a cell driving one output net.
struct Gate {
  CellType type;
  Var output;
  std::vector<Var> inputs;
};

/// Gate-level combinational netlist.
class Netlist {
 public:
  explicit Netlist(std::string name = "top") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // -- Construction -------------------------------------------------------

  /// Declares a primary input net.  Names must be unique.
  Var add_input(const std::string& name);

  /// Creates a gate; returns its output net.  An empty name auto-generates
  /// one ("n<id>").  Inputs must already exist.
  Var add_gate(CellType type, std::vector<Var> inputs,
               const std::string& name = "");

  /// Marks an existing net as a primary output (order is significant: for a
  /// multiplier, outputs are z0..z{m-1} in bit order).
  void mark_output(Var v);

  /// Reserves a name so auto-generated names never take it.  Used by
  /// rebuilding passes (output names must survive) and parsers (declared
  /// names may appear after intermediate gates are synthesized).
  void reserve_name(const std::string& name);

  /// Takes over `names` as the name table of a netlist that has no nets
  /// yet, every name in it reserved.  The frontend interns each name once
  /// while parsing and hands its table over here, so the add_input and
  /// add_gate overloads below give a reserved name its net by id, without
  /// hashing it again.
  void adopt_names(util::NameTable names);
  Var add_input(NameId name);
  Var add_gate(CellType type, std::vector<Var> inputs, NameId name);

  // -- Interrogation ------------------------------------------------------

  std::size_t num_vars() const { return var_name_.size(); }
  std::size_t num_gates() const { return gates_.size(); }
  /// One equation per gate — the paper's "#eqns" metric.
  std::size_t num_equations() const { return gates_.size(); }

  const std::vector<Gate>& gates() const { return gates_; }
  const Gate& gate(std::size_t idx) const { return gates_[idx]; }
  const std::vector<Var>& inputs() const { return inputs_; }
  const std::vector<Var>& outputs() const { return outputs_; }

  const std::string& var_name(Var v) const;
  bool is_input(Var v) const;

  /// Gate index driving net v, or nullopt for primary inputs.
  std::optional<std::size_t> driver(Var v) const;

  /// Net id by name, or nullopt (also for a reserved name with no net).
  std::optional<Var> find_var(const std::string& name) const;

  /// Every name the netlist knows, nets and reserved names alike.
  const util::NameTable& names() const { return names_; }

  // -- Structure ----------------------------------------------------------

  /// Gate indices in topological order (inputs before users).
  /// Throws Error on combinational cycles.
  std::vector<std::size_t> topological_order() const;

  /// Gate indices in the transitive fanin cone of `root`, topologically
  /// ordered.  This is the per-output-bit logic cone of Theorem 2.
  ///
  /// Cost: one whole-netlist index build on first use (cached until the
  /// netlist is mutated), then a linear bitmap sweep per call — the
  /// crypto-size multipliers call this once per output bit over cones
  /// covering most of the netlist, where a per-call DFS was the dominant
  /// extraction cost.
  std::vector<std::size_t> fanin_cone(Var root) const;

  /// Primary inputs feeding the cone of `root`.
  std::vector<Var> cone_inputs(Var root) const;

  /// Logic depth (longest path, in gates).
  unsigned depth() const;

  /// Per-cell-type gate counts.
  std::unordered_map<CellType, std::size_t> cell_histogram() const;

  /// Total XOR/XNOR two-input-equivalent operations: an n-ary XOR counts as
  /// n-1.  Used for the Figure 1 style cost comparisons on real netlists.
  std::size_t xor2_equivalent_count() const;

  /// Structural sanity: acyclic (the construction calls check the rest).
  /// Throws Error with a diagnostic on violation.
  void validate() const;

 private:
  Var new_var(const std::string& name);
  Var new_var(NameId name);
  void check_gate_inputs(CellType type, const std::vector<Var>& inputs) const;
  Var push_gate(CellType type, std::vector<Var> inputs, Var out);

  /// Tri-color DFS from one gate, appending reachable gates to `order` in
  /// topological order; backs topological_order().
  void topo_dfs(std::size_t root_gate, std::vector<unsigned char>& mark,
                std::vector<std::size_t>& order) const;

  /// Whole-netlist structure shared by every fanin_cone() call: the global
  /// topological order plus a flattened gate -> driver-gate adjacency, both
  /// expressed in topological *positions* so the per-cone reachability
  /// sweep is one backward pass over a dense bitmap.  Built lazily under
  /// cone_index_mutex_ and dropped on mutation; callers hold a shared_ptr
  /// so concurrent extraction threads never race a rebuild.
  struct ConeIndex {
    std::vector<std::size_t> topo;         ///< topo[pos] = gate index
    std::vector<std::uint32_t> pos_of;     ///< gate index -> topo position
    std::vector<std::uint32_t> fanin_off;  ///< per position: fanin_pos range
    std::vector<std::uint32_t> fanin_pos;  ///< driver gates, as positions
  };
  /// Cache cell for the lazily-built index.  Copying or moving a Netlist
  /// must not share (or steal) the cache — copies simply start cold, which
  /// also keeps Netlist's value semantics despite the mutex inside.
  struct ConeIndexCache {
    std::mutex mutex;
    std::shared_ptr<const ConeIndex> index;
    ConeIndexCache() = default;
    ConeIndexCache(const ConeIndexCache&) noexcept {}
    ConeIndexCache(ConeIndexCache&&) noexcept {}
    ConeIndexCache& operator=(const ConeIndexCache&) noexcept {
      index.reset();
      return *this;
    }
    ConeIndexCache& operator=(ConeIndexCache&&) noexcept {
      index.reset();
      return *this;
    }
  };
  std::shared_ptr<const ConeIndex> cone_index() const;
  void invalidate_cone_index();

  std::string name_;
  std::size_t next_auto_name_ = 0;
  // Each net name is stored once, in names_.  name_var_[id] is the net
  // named by table id `id`, or kReserved while a reserved name has none;
  // var_name_[v] is the table id of net v's name.
  static constexpr Var kReserved = ~Var{0};
  util::NameTable names_;
  std::vector<Var> name_var_;
  std::vector<NameId> var_name_;
  // driver_[v] = gate index + 1, or 0 when v is an input.  Every net is an
  // input or a gate output, so this also answers is_input.
  std::vector<std::size_t> driver_;
  std::vector<Gate> gates_;
  std::vector<Var> inputs_;
  std::vector<Var> outputs_;
  mutable ConeIndexCache cone_cache_;
};

}  // namespace gfre::nl
