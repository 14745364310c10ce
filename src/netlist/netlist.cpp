#include "netlist/netlist.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>

#include "util/error.hpp"

namespace gfre::nl {

namespace {
// Tri-color DFS marks for topo_dfs.
constexpr unsigned char kWhite = 0;
constexpr unsigned char kGrey = 1;
constexpr unsigned char kBlack = 2;
}  // namespace

Var Netlist::new_var(const std::string& name) {
  if (!name.empty()) {
    const auto [id, fresh] = names_.intern(name);
    if (fresh) name_var_.push_back(kReserved);
    return new_var(id);
  }
  // Auto names must not collide with explicit or reserved names (e.g. a
  // parsed file whose nets were themselves auto-named "n<k>" by a
  // previous tool, or output names a rebuilding pass will need later).
  char buf[24] = {'n'};
  for (;;) {
    const char* end =
        std::to_chars(buf + 1, std::end(buf), next_auto_name_++).ptr;
    const auto [id, fresh] = names_.intern(std::string_view(buf, end - buf));
    if (!fresh) continue;
    name_var_.push_back(kReserved);
    return new_var(id);
  }
}

Var Netlist::new_var(NameId name) {
  GFRE_ASSERT(name_var_[name] == kReserved,
              "duplicate net name '" << names_.name(name) << "'");
  const Var v = static_cast<Var>(var_name_.size());
  name_var_[name] = v;
  var_name_.push_back(name);
  driver_.push_back(0);
  return v;
}

void Netlist::adopt_names(util::NameTable names) {
  GFRE_ASSERT(names_.size() == 0, "adopt_names on a netlist with names");
  names_ = std::move(names);
  name_var_.assign(names_.size(), kReserved);
}

Var Netlist::add_input(const std::string& name) {
  const Var v = new_var(name);
  inputs_.push_back(v);
  return v;
}

Var Netlist::add_input(NameId name) {
  const Var v = new_var(name);
  inputs_.push_back(v);
  return v;
}

void Netlist::check_gate_inputs(CellType type,
                                const std::vector<Var>& inputs) const {
  GFRE_ASSERT(arity_ok(type, inputs.size()),
              "gate " << cell_name(type) << " cannot take " << inputs.size()
                      << " inputs");
  for (Var in : inputs) {
    GFRE_ASSERT(in < num_vars(), "gate input net " << in << " undeclared");
  }
}

Var Netlist::push_gate(CellType type, std::vector<Var> inputs, Var out) {
  gates_.push_back(Gate{type, out, std::move(inputs)});
  driver_[out] = gates_.size();  // index + 1
  invalidate_cone_index();
  return out;
}

Var Netlist::add_gate(CellType type, std::vector<Var> inputs,
                      const std::string& name) {
  check_gate_inputs(type, inputs);
  return push_gate(type, std::move(inputs), new_var(name));
}

Var Netlist::add_gate(CellType type, std::vector<Var> inputs, NameId name) {
  check_gate_inputs(type, inputs);
  return push_gate(type, std::move(inputs), new_var(name));
}

void Netlist::mark_output(Var v) {
  GFRE_ASSERT(v < num_vars(), "output net " << v << " undeclared");
  outputs_.push_back(v);
}

void Netlist::reserve_name(const std::string& name) {
  if (!name.empty() && names_.intern(name).second)
    name_var_.push_back(kReserved);
}

const std::string& Netlist::var_name(Var v) const {
  GFRE_ASSERT(v < num_vars(), "net " << v << " undeclared");
  return names_.name(var_name_[v]);
}

bool Netlist::is_input(Var v) const {
  GFRE_ASSERT(v < num_vars(), "net " << v << " undeclared");
  return driver_[v] == 0;
}

std::optional<std::size_t> Netlist::driver(Var v) const {
  GFRE_ASSERT(v < num_vars(), "net " << v << " undeclared");
  if (driver_[v] == 0) return std::nullopt;
  return driver_[v] - 1;
}

std::optional<Var> Netlist::find_var(const std::string& name) const {
  const NameId id = names_.find(name);
  if (id == util::NameTable::kMissing || name_var_[id] == kReserved)
    return std::nullopt;
  return name_var_[id];
}

void Netlist::topo_dfs(std::size_t root_gate,
                       std::vector<unsigned char>& mark,
                       std::vector<std::size_t>& order) const {
  // Iterative tri-color DFS appending gates reachable from root_gate to
  // `order` in topological order (inputs before users); throws on
  // combinational cycles.  Backs the whole-netlist sort (which in turn
  // backs the cached cone index behind fanin_cone).
  std::vector<std::pair<std::size_t, std::size_t>> stack;  // (gate, next-in)
  mark[root_gate] = kGrey;
  stack.emplace_back(root_gate, 0);
  while (!stack.empty()) {
    auto& [g, next] = stack.back();
    const Gate& gate = gates_[g];
    bool descended = false;
    while (next < gate.inputs.size()) {
      const Var in = gate.inputs[next++];
      const auto drv = driver(in);
      if (!drv.has_value() || mark[*drv] == kBlack) continue;
      if (mark[*drv] == kGrey) {
        throw Error("combinational cycle through net '" + var_name(in) +
                    "' in netlist '" + name_ + "'");
      }
      mark[*drv] = kGrey;
      // emplace_back may reallocate, invalidating g/next/gate — leave the
      // inner loop now and re-bind from stack.back() on the next pass.
      stack.emplace_back(*drv, 0);
      descended = true;
      break;
    }
    if (!descended && next >= gate.inputs.size()) {
      mark[g] = kBlack;
      order.push_back(g);
      stack.pop_back();
    }
  }
}

std::vector<std::size_t> Netlist::topological_order() const {
  std::vector<unsigned char> mark(gates_.size(), kWhite);
  std::vector<std::size_t> order;
  order.reserve(gates_.size());
  for (std::size_t root = 0; root < gates_.size(); ++root) {
    if (mark[root] == kWhite) topo_dfs(root, mark, order);
  }
  return order;
}

std::shared_ptr<const Netlist::ConeIndex> Netlist::cone_index() const {
  std::lock_guard<std::mutex> lock(cone_cache_.mutex);
  if (cone_cache_.index == nullptr) {
    auto index = std::make_shared<ConeIndex>();
    index->topo = topological_order();  // throws on combinational cycles
    index->pos_of.resize(gates_.size());
    for (std::size_t pos = 0; pos < index->topo.size(); ++pos) {
      index->pos_of[index->topo[pos]] = static_cast<std::uint32_t>(pos);
    }
    index->fanin_off.reserve(index->topo.size() + 1);
    for (std::size_t g : index->topo) {
      index->fanin_off.push_back(
          static_cast<std::uint32_t>(index->fanin_pos.size()));
      for (Var in : gates_[g].inputs) {
        if (driver_[in] != 0) {
          index->fanin_pos.push_back(index->pos_of[driver_[in] - 1]);
        }
      }
    }
    index->fanin_off.push_back(
        static_cast<std::uint32_t>(index->fanin_pos.size()));
    cone_cache_.index = std::move(index);
  }
  return cone_cache_.index;
}

void Netlist::invalidate_cone_index() {
  std::lock_guard<std::mutex> lock(cone_cache_.mutex);
  cone_cache_.index.reset();
}

std::vector<std::size_t> Netlist::fanin_cone(Var root) const {
  GFRE_ASSERT(root < num_vars(), "net " << root << " undeclared");
  const auto root_drv = driver(root);
  if (!root_drv.has_value()) return {};
  // Backward reachability sweep over the cached whole-netlist order: mark
  // the root's position in a dense bitmap, walk positions downward (every
  // driver sits at a strictly lower position), and mark each reached
  // gate's drivers.  Crypto-size multiplier cones cover most of the
  // netlist for every output bit, so this sequential pass over the
  // flattened adjacency beats a pointer-chasing DFS per bit by a wide
  // margin — and the L2-resident bitmap replaces a byte-per-gate mark
  // array.
  const auto index = cone_index();
  const std::size_t root_pos = index->pos_of[*root_drv];
  std::vector<std::uint64_t> in_cone((root_pos + 64) / 64, 0);
  in_cone[root_pos >> 6] |= std::uint64_t{1} << (root_pos & 63);
  const std::uint32_t* fanin_off = index->fanin_off.data();
  const std::uint32_t* fanin_pos = index->fanin_pos.data();
  std::size_t count = 0;
  // Sweep word-by-word downward, skipping all-zero words outright — small
  // cones in a large netlist (e.g. Mastrovito output bits) would otherwise
  // crawl position-by-position through vast empty stretches.  A nonzero
  // word is scanned bit-by-bit descending from a register image: marking
  // p's fanin can set bits in the current word (always strictly below p,
  // drivers sit at lower positions), and folding those into the register
  // keeps dense cones free of per-position memory round-trips.  (A
  // count-leading-zeros skip within the word measures slower on dense
  // cones: it chains each bit pick on the previous visit's marks.)
  for (std::size_t w = (root_pos >> 6) + 1; w-- > 0;) {
    std::uint64_t word = in_cone[w];
    if (word == 0) continue;  // all marks for w arrived before the sweep got here
    for (unsigned b = 64; b-- > 0;) {
      if (((word >> b) & 1u) == 0) continue;
      const std::size_t p = (w << 6) | b;
      ++count;
      for (std::uint32_t i = fanin_off[p]; i < fanin_off[p + 1]; ++i) {
        const std::uint32_t q = fanin_pos[i];
        const std::uint64_t bit = std::uint64_t{1} << (q & 63);
        if ((q >> 6) == w) {
          word |= bit;  // below b: the descending scan still reaches it
        } else {
          in_cone[q >> 6] |= bit;
        }
      }
    }
    in_cone[w] = word;
  }
  // Emit in increasing position: a restriction of a topological order is
  // a topological order of the cone.
  std::vector<std::size_t> cone;
  cone.reserve(count);
  for (std::size_t w = 0; w < in_cone.size(); ++w) {
    std::uint64_t bits = in_cone[w];
    while (bits != 0) {
      const std::size_t p =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      cone.push_back(index->topo[p]);
    }
  }
  return cone;
}

std::vector<Var> Netlist::cone_inputs(Var root) const {
  std::vector<bool> seen(num_vars(), false);
  std::vector<Var> result;
  std::vector<Var> work{root};
  while (!work.empty()) {
    const Var v = work.back();
    work.pop_back();
    if (seen[v]) continue;
    seen[v] = true;
    const auto drv = driver(v);
    if (!drv.has_value()) {
      result.push_back(v);
      continue;
    }
    for (Var in : gates_[*drv].inputs) work.push_back(in);
  }
  std::sort(result.begin(), result.end());
  return result;
}

unsigned Netlist::depth() const {
  std::vector<unsigned> level(num_vars(), 0);
  unsigned max_level = 0;
  for (std::size_t g : topological_order()) {
    const Gate& gate = gates_[g];
    unsigned lvl = 0;
    for (Var in : gate.inputs) lvl = std::max(lvl, level[in]);
    level[gate.output] = lvl + 1;
    max_level = std::max(max_level, lvl + 1);
  }
  return max_level;
}

std::unordered_map<CellType, std::size_t> Netlist::cell_histogram() const {
  std::unordered_map<CellType, std::size_t> histogram;
  for (const Gate& g : gates_) ++histogram[g.type];
  return histogram;
}

std::size_t Netlist::xor2_equivalent_count() const {
  std::size_t count = 0;
  for (const Gate& g : gates_) {
    if (g.type == CellType::Xor || g.type == CellType::Xnor) {
      count += g.inputs.size() - 1;
    }
  }
  return count;
}

void Netlist::validate() const {
  // add_gate and mark_output already enforce unique names, existing
  // inputs, arity and declared outputs, and a gate always drives a fresh
  // net; the topological sort re-checks that no cycle slipped in.
  (void)topological_order();
}

}  // namespace gfre::nl
