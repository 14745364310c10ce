// P(x) mixing — decoy-polynomial reduction rows XORed into output bits.
//
// For a decoy irreducible Q(x) of degree m, a "reduction row" is
// support(x^k mod Q) for some k in [m, 2m-2] — exactly the shape of the
// true reduction network's rows, which is what makes the decoy plausible.
// Each selected output z is re-driven as z = z_raw ^ d ^ d', where d and
// d' are two structurally separate XOR gates over the RAW output nets of
// the row's tap bits (raw nets keep the construction acyclic even when
// taps land on other decoyed outputs).  d ^ d' = 0, so the function is
// unchanged and the true P(x) remains recoverable — but backward
// rewriting expands both decoy cones (most of the netlist each) before
// they cancel, so the attack's peak live-term count grows with strength.
#include <algorithm>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "gf2poly/irreducible.hpp"
#include "obf/internal.hpp"

namespace gfre::obf::detail {
namespace {

/// Candidate decoys of degree m: NIST-convention default, every
/// irreducible trinomial, the first pentanomial, and reciprocals —
/// deduplicated and ordered so the seeded pick is deterministic.
std::vector<gf2::Poly> decoy_candidates(unsigned m) {
  std::vector<gf2::Poly> out;
  const auto push = [&](const gf2::Poly& p) {
    if (p.degree() != static_cast<int>(m)) return;
    for (const gf2::Poly& q : out)
      if (q == p) return;
    out.push_back(p);
  };
  push(gf2::default_irreducible(m));
  for (unsigned a : gf2::irreducible_trinomials(m)) push(gf2::Poly{m, a, 0});
  if (const auto penta = gf2::first_irreducible_pentanomial(m)) push(*penta);
  const std::size_t base = out.size();
  for (std::size_t i = 0; i < base; ++i) push(out[i].reciprocal());
  return out;
}

}  // namespace

nl::Netlist px_mix_pass(const nl::Netlist& src, unsigned strength,
                        const PassOptions& options, Prng& rng,
                        gf2::Poly* decoy_used) {
  using nl::CellType;
  using nl::Var;
  *decoy_used = gf2::Poly();
  const unsigned m = static_cast<unsigned>(src.outputs().size());
  if (m < 2) return src;

  gf2::Poly decoy = options.decoy;
  if (decoy.degree() != static_cast<int>(m)) {
    const std::vector<gf2::Poly> candidates = decoy_candidates(m);
    decoy = candidates[rng.next_below(candidates.size())];
  }

  // One decoy row per strength level: (output bit, row exponent k).
  struct Row {
    unsigned out_index;
    std::vector<unsigned> taps;  // bit indices < m, ascending
  };
  std::vector<Row> rows;
  for (unsigned r = 0; r < strength; ++r) {
    const unsigned out_index = static_cast<unsigned>(rng.next_below(m));
    const unsigned k = m + static_cast<unsigned>(
                               rng.next_below(m > 1 ? m - 1 : 1));
    if (src.is_input(src.outputs()[out_index])) continue;  // cannot re-drive
    Row row{out_index, {}};
    const gf2::Poly residue = gf2::Poly::monomial(k).mod(decoy);
    for (unsigned d : residue.support())
      if (d < m) row.taps.push_back(d);
    std::sort(row.taps.begin(), row.taps.end());
    // XOR gates need >= 2 operands; pad deterministically.
    for (unsigned pad = 0; row.taps.size() < 2 && pad < m; ++pad) {
      bool present = false;
      for (unsigned t : row.taps) present |= (t == pad);
      if (!present) row.taps.push_back(pad);
    }
    rows.push_back(std::move(row));
  }
  if (rows.empty()) return src;
  *decoy_used = decoy;

  std::vector<unsigned> rows_on(m, 0);
  for (const Row& row : rows) ++rows_on[row.out_index];

  nl::Netlist out(src.name());
  // Every name this pass invents must be free in both netlists: a stack
  // that mixes twice meets the first pass's names in `src`.
  const auto fresh = [&](const std::string& base) {
    std::string name = base;
    for (unsigned k = 1; src.find_var(name) || out.find_var(name); ++k)
      name = base + "_" + std::to_string(k);
    return name;
  };
  std::vector<Var> map(src.num_vars());
  for (Var v : src.inputs()) map[v] = out.add_input(src.var_name(v));
  // Decoyed output gates keep their logic but surrender their name to the
  // final mix gate.
  std::unordered_map<Var, bool> decoyed;
  for (unsigned i = 0; i < m; ++i)
    if (rows_on[i] > 0) decoyed[src.outputs()[i]] = true;
  for (std::size_t g : src.topological_order()) {
    const nl::Gate& gate = src.gate(g);
    std::vector<Var> in;
    in.reserve(gate.inputs.size());
    for (Var v : gate.inputs) in.push_back(map[v]);
    const std::string& name = src.var_name(gate.output);
    map[gate.output] = out.add_gate(
        gate.type, std::move(in),
        decoyed.count(gate.output) ? fresh(name + "__raw") : name);
  }

  // Chain the decoy rows; taps always reference the raw output nets.
  //
  // The cancelling pair must NOT be two identical gates: backward
  // rewriting substitutes the last gates first, so d ^ d' over the same
  // operands cancels immediately and costs the attack nothing.  Instead
  // the second copy is an XOR over a CLONED sub-cone of each tap
  // (duplicated to 3*strength levels, bottoming out on shared nets).
  // The clones sit above the originals in topological order, so the
  // rewriter expands the duplicated region first and must carry it live
  // until the original tap expansion reaches the shared frontier and the
  // monomials cancel — the deeper the clones, the longer that window
  // overlaps the expensive partial-product layer, which is exactly the
  // measured peak-term blowup.
  std::vector<Var> current(m);
  std::vector<unsigned> emitted_on(m, 0);
  for (unsigned i = 0; i < m; ++i) current[i] = map[src.outputs()[i]];
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Row& row = rows[r];
    const std::string tag = std::to_string(r);
    std::unordered_map<Var, Var> clone_memo;
    std::size_t clone_tag = 0;
    const std::function<Var(Var, unsigned)> clone = [&](Var v,
                                                        unsigned depth) -> Var {
      if (src.is_input(v) || depth == 0) return map[v];
      const auto hit = clone_memo.find(v);
      if (hit != clone_memo.end()) return hit->second;
      const nl::Gate& gate = src.gate(*src.driver(v));
      std::vector<Var> in;
      in.reserve(gate.inputs.size());
      for (Var w : gate.inputs) in.push_back(clone(w, depth - 1));
      const Var c = out.add_gate(
          gate.type, std::move(in),
          fresh("obf_mix" + tag + "_c" + std::to_string(clone_tag++)));
      clone_memo.emplace(v, c);
      return c;
    };
    std::vector<Var> taps, taps_clone;
    taps.reserve(row.taps.size());
    taps_clone.reserve(row.taps.size());
    for (unsigned t : row.taps) {
      taps.push_back(map[src.outputs()[t]]);
      taps_clone.push_back(clone(src.outputs()[t], 3 * strength));
    }
    const Var d1 =
        out.add_gate(CellType::Xor, taps, fresh("obf_mix" + tag + "a"));
    const Var d2 =
        out.add_gate(CellType::Xor, taps_clone, fresh("obf_mix" + tag + "b"));
    const std::string& final_name = src.var_name(src.outputs()[row.out_index]);
    const bool last = ++emitted_on[row.out_index] == rows_on[row.out_index];
    current[row.out_index] = out.add_gate(
        CellType::Xor, {current[row.out_index], d1, d2},
        last ? final_name : fresh(final_name + "__mix" + tag));
  }
  for (unsigned i = 0; i < m; ++i) out.mark_output(current[i]);
  return out;
}

}  // namespace gfre::obf::detail
