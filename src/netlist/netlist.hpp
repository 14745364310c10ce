// Gate-level netlist graph.
//
// A netlist is a DAG of cells over named Boolean nets.  Every net is an
// anf::Var, so netlist signals and rewriting variables share one id space —
// backward rewriting (core) substitutes gate outputs without any mapping
// layer.  Gates are stored in creation order; topological order is computed
// on demand (parsers may interleave declarations).
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

namespace gfre::nl {

using anf::Var;

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

  // -- Interrogation ------------------------------------------------------

  std::size_t num_vars() const { return names_.var_names.size(); }
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

  /// Net id by name, or nullopt.
  std::optional<Var> find_var(const std::string& name) const;

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

  /// Each net name stored once: as a key of `by_name`, which `var_names`
  /// points into.  A reserved name is a key mapped to kReserved (no net
  /// yet).  Copies re-point `var_names` at their own keys; moves keep the
  /// map's nodes, so the pointers stay valid.
  struct Names {
    static constexpr Var kReserved = ~Var{0};
    std::unordered_map<std::string, Var> by_name;
    std::vector<const std::string*> var_names;
    Names() = default;
    Names(const Names& other) { *this = other; }
    Names(Names&&) noexcept = default;
    Names& operator=(const Names& other);
    Names& operator=(Names&&) noexcept = default;
  };

  std::string name_;
  std::size_t next_auto_name_ = 0;
  Names names_;
  // driver_[v] = gate index + 1, or 0 when v is an input.  Every net is an
  // input or a gate output, so this also answers is_input.
  std::vector<std::size_t> driver_;
  std::vector<Gate> gates_;
  std::vector<Var> inputs_;
  std::vector<Var> outputs_;
  mutable ConeIndexCache cone_cache_;
};

}  // namespace gfre::nl
