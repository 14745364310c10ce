#include "core/rewriter.hpp"

#include <algorithm>
#include <memory>
#include <ostream>
#include <vector>

#include "anf/packed.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace gfre::core {

using anf::Anf;
using anf::Monomial;
using nl::Var;

const char* to_string(RewriteStrategy strategy) {
  switch (strategy) {
    case RewriteStrategy::Packed: return "packed";
    case RewriteStrategy::NaiveScan: return "naive";
  }
  return "?";
}

namespace {

void trace_step(std::ostream& out, const nl::Netlist& netlist,
                std::size_t gate_index, const Anf& f,
                std::size_t cancelled_this_step) {
  out << "G" << gate_index << ": "
      << f.to_string([&](Var v) { return netlist.var_name(v); });
  if (cancelled_this_step > 0) {
    out << "   elim: " << cancelled_this_step << " monomial"
        << (cancelled_this_step == 1 ? "" : "s");
  }
  out << "\n";
}

// ---------------------------------------------------------------------------
// Algorithm-1 backends.  Each backend owns the polynomial store; the shared
// driver below walks the cone and applies the gate steps.
//
// Backend interface:
//   Backend(netlist, output, cone)   — F := {output}
//   bool prepare(Var v)              — true iff v occurs in F (caches
//                                      hits)
//   void substitute(const nl::Gate&) — apply the gate's ANF for v
//   std::size_t size()               — |F|
//   std::size_t transient_peak()     — intra-substitution |F| estimate
//   std::size_t cancellations()      — running mod-2 cancellation count
//   Anf value()                      — F as a canonical Anf
// ---------------------------------------------------------------------------

/// Per-thread scratch for the packed backend's var -> slot remap: an
/// epoch-stamped table sized to the netlist plus the reusable slot_to_var
/// and TermList buffers.  Starting a cone bumps the epoch instead of
/// refilling an O(num_vars) sentinel table, so per-bit backend setup costs
/// O(1), and the buffers keep their capacity across the thousands of
/// cones a crypto-size extraction walks (zero steady-state allocations).
struct RemapScratch {
  // stamp[v] = (epoch << 32) | slot; a stale epoch half means "unmapped".
  std::vector<std::uint64_t> stamp;
  std::vector<Var> slot_to_var;
  anf::packed::TermList terms;
  std::uint32_t epoch = 0;
  bool in_use = false;

  std::uint32_t next_epoch() {
    if (++epoch == 0) {  // wrap: invalidate every stamp explicitly
      std::fill(stamp.begin(), stamp.end(), std::uint64_t{0});
      epoch = 1;
    }
    return epoch;
  }

  void ensure_vars(std::size_t n) {
    if (stamp.size() < n) stamp.resize(n, 0);
  }
};

RemapScratch& thread_remap_scratch() {
  thread_local RemapScratch scratch;
  return scratch;
}

/// Packed backend: cone-local dense slot remapping over anf/packed.hpp.
class PackedBackend {
 public:
  PackedBackend(const nl::Netlist& netlist, Var output,
                const std::vector<std::size_t>& cone) {
    RemapScratch& st = *lease_.scratch;
    st.ensure_vars(netlist.num_vars());
    epoch_ = st.next_epoch();
    st.slot_to_var.clear();
    const auto root = slot_of(output);  // always slot 0
    // Slots are assigned lazily, on a var's first entry into F (root here,
    // substituted-term vars in build_terms) — never for the millions of
    // cone gates whose outputs the rewrite never reaches.  The engine and
    // its representation only need an upper bound on the slots that can
    // appear: every cone var is either a cone gate's output or undriven,
    // so cone size plus the netlist's undriven-var count covers it.  The
    // bound may overshoot the exact cone var count near a representation
    // boundary; any rep wide enough for the bound is wide enough for the
    // cone.
    const std::size_t bound = std::min<std::size_t>(
        anf::packed::kMaxSlots,
        std::max<std::size_t>(
            1, cone.size() + (netlist.num_vars() - netlist.num_gates())));
    engine_.emplace(bound, root);
  }

  bool prepare(Var v) {
    // A var gets a slot exactly when it first enters F, so a stale epoch
    // stamp IS the "never touched" test: the reverse walk rejects the
    // millions of cone gates whose outputs never appeared in F with one
    // table read and no engine call.  (Superset semantics — a touched
    // var's insertions may all have cancelled; occurrence_count settles
    // it.)
    RemapScratch& st = *lease_.scratch;
    const std::uint64_t stamp = st.stamp[v];
    if ((stamp >> 32) != epoch_) return false;
    var_slot_ = static_cast<anf::packed::Slot>(stamp);
    return engine_->occurrence_count(var_slot_) > 0;
  }

  void substitute(const nl::Gate& gate) {
    build_terms(gate);
    engine_->substitute(var_slot_, terms_);
  }

  // The engine folds live_ into its running peak at exactly the driver's
  // observation points (construction and the end of each substitution), so
  // the driver can skip its per-substitution size queries and read the
  // final value here — same number, fewer than half the virtual hops in
  // the hot loop.
  static constexpr bool kTracksPeak = true;
  std::size_t peak_terms() const { return engine_->peak_terms(); }

  std::size_t size() const { return engine_->size(); }
  std::size_t transient_peak() const { return engine_->size(); }
  std::size_t cancellations() const { return engine_->cancellations(); }

  Anf value() const {
    Anf out;
    const auto monos = engine_->monomials();
    out.reserve(monos.size());
    std::vector<Var> vars;
    const std::vector<Var>& slot_to_var = lease_.scratch->slot_to_var;
    for (const auto& mono : monos) {
      vars.clear();
      for (anf::packed::Slot s : mono) vars.push_back(slot_to_var[s]);
      out.toggle(Monomial::from_vars(vars));
    }
    return out;
  }

 private:
  /// Leases the thread scratch for this backend's lifetime; a nested
  /// backend on the same thread (tests only — the extraction driver never
  /// nests) falls back to a private heap-allocated scratch.  A member so
  /// a throwing constructor still releases the lease.
  struct ScratchLease {
    RemapScratch* scratch;
    std::unique_ptr<RemapScratch> owned;
    ScratchLease() {
      RemapScratch& ts = thread_remap_scratch();
      if (!ts.in_use) {
        ts.in_use = true;
        scratch = &ts;
      } else {
        owned = std::make_unique<RemapScratch>();
        scratch = owned.get();
      }
    }
    ~ScratchLease() {
      if (owned == nullptr) scratch->in_use = false;
    }
  };

  void push_singleton(Var v) {
    terms_.begin_term();
    terms_.push_slot(slot_of(v));
    terms_.end_term();
  }

  void push_constant_one() {
    terms_.begin_term();
    terms_.end_term();
  }

  /// Builds the gate's ANF directly in slot space.  The simple cell
  /// families that dominate generated netlists (AND/XOR trees, inverters)
  /// skip the per-gate Anf construction entirely; complex cells fall back
  /// to the exact cell_anf model.  Duplicate gate inputs need no special
  /// care: AND terms dedup on end_term(), XOR duplicates cancel mod 2 in
  /// the engine — identical semantics to cell_anf.
  void build_terms(const nl::Gate& gate) {
    terms_.clear();
    switch (gate.type) {
      case nl::CellType::Const0:
        break;
      case nl::CellType::Const1:
        push_constant_one();
        break;
      case nl::CellType::Buf:
        push_singleton(gate.inputs[0]);
        break;
      case nl::CellType::Inv:
        push_constant_one();
        push_singleton(gate.inputs[0]);
        break;
      case nl::CellType::Xor:
        for (Var in : gate.inputs) push_singleton(in);
        break;
      case nl::CellType::Xnor:
        push_constant_one();
        for (Var in : gate.inputs) push_singleton(in);
        break;
      case nl::CellType::Nand:
        push_constant_one();
        [[fallthrough]];
      case nl::CellType::And:
        terms_.begin_term();
        for (Var in : gate.inputs) terms_.push_slot(slot_of(in));
        terms_.end_term();
        break;
      default: {
        const Anf expression = nl::cell_anf(gate.type, gate.inputs);
        for (const Monomial& term : expression.monomials()) {
          terms_.begin_term();
          for (Var v : term.vars()) terms_.push_slot(slot_of(v));
          terms_.end_term();
        }
        break;
      }
    }
  }

  /// Slot of v, assigned on first use this cone (epoch-stamped).
  std::uint32_t slot_of(Var v) {
    RemapScratch& st = *lease_.scratch;
    const std::uint64_t stamp = st.stamp[v];
    if ((stamp >> 32) == epoch_) return static_cast<std::uint32_t>(stamp);
    if (st.slot_to_var.size() >= anf::packed::kMaxSlots) {
      throw anf::packed::Overflow("cone exceeds the packed slot space");
    }
    const auto s = static_cast<std::uint32_t>(st.slot_to_var.size());
    st.stamp[v] = (std::uint64_t{epoch_} << 32) | s;
    st.slot_to_var.push_back(v);
    return s;
  }

  ScratchLease lease_;
  std::uint32_t epoch_ = 0;
  std::optional<anf::packed::ConeEngine> engine_;
  anf::packed::Slot var_slot_ = 0;
  anf::packed::TermList& terms_ = lease_.scratch->terms;
};

/// Textbook whole-polynomial scan (lines 4-5 of Algorithm 1, literal
/// reading): the differential oracle, and the engine for the rare cone
/// that overflows the packed representation.
class NaiveBackend {
 public:
  NaiveBackend(const nl::Netlist&, Var output,
               const std::vector<std::size_t>&)
      : f_(Anf::var(output)) {}

  static constexpr bool kTracksPeak = false;

  bool prepare(Var v) {
    var_ = v;
    hits_.clear();
    for (const Monomial& m : f_.monomials()) {
      if (m.contains(v)) hits_.push_back(m);
    }
    return !hits_.empty();
  }

  void substitute(const nl::Gate& gate) {
    const Anf expression = nl::cell_anf(gate.type, gate.inputs);
    transient_peak_ =
        f_.size() - hits_.size() + hits_.size() * expression.size();
    for (const Monomial& hit : hits_) {
      f_.toggle(hit);  // remove
      const Monomial rest = hit.without(var_);
      for (const Monomial& term : expression.monomials()) {
        if (!f_.toggle(rest.times(term))) ++cancellations_;
      }
    }
  }

  std::size_t size() const { return f_.size(); }
  std::size_t transient_peak() const { return transient_peak_; }
  std::size_t cancellations() const { return cancellations_; }
  const Anf& value() const { return f_; }

 private:
  Anf f_;
  Var var_ = 0;
  std::vector<Monomial> hits_;
  std::size_t cancellations_ = 0;
  std::size_t transient_peak_ = 0;
};

/// Algorithm 1, generic over the substitution backend.
template <typename Backend>
Anf run_backward_rewriting(const nl::Netlist& netlist, Var output,
                           const RewriteOptions& options,
                           RewriteStats* stats) {
  const auto cone = netlist.fanin_cone(output);
  if (stats != nullptr) {
    const double seconds = stats->seconds;
    *stats = RewriteStats{};  // fresh slate (matters on packed fallback)
    stats->seconds = seconds;
    stats->cone_gates = cone.size();
  }

  Backend backend(netlist, output, cone);
  std::size_t peak = Backend::kTracksPeak ? 0 : backend.size();
  const auto current_peak = [&]() -> std::size_t {
    if constexpr (Backend::kTracksPeak) {
      return backend.peak_terms();
    } else {
      return peak;
    }
  };
  // Reverse topological order: consumers before producers.
  for (std::size_t idx = cone.size(); idx-- > 0;) {
    const nl::Gate& gate = netlist.gate(cone[idx]);
    if (!backend.prepare(gate.output)) continue;
    if (stats != nullptr) ++stats->substitutions;

    const std::size_t cancelled_before =
        options.trace == nullptr ? 0 : backend.cancellations();
    backend.substitute(gate);
    if constexpr (!Backend::kTracksPeak) {
      peak = std::max({peak, backend.size(), backend.transient_peak()});
    }
    if (options.max_terms != 0 && backend.size() > options.max_terms) {
      if (stats != nullptr) {
        stats->cancellations = backend.cancellations();
        stats->peak_terms = current_peak();
        stats->final_terms = backend.size();
      }
      throw TermBudgetExceeded(backend.size(), options.max_terms);
    }
    if (options.deadline.has_value() &&
        std::chrono::steady_clock::now() > *options.deadline) {
      // Same checkpoint as the term budget: between substitutions, F is
      // consistent, so the abort is clean.  One clock read per
      // substitution is noise against the substitution itself.
      if (stats != nullptr) {
        stats->cancellations = backend.cancellations();
        stats->peak_terms = current_peak();
        stats->final_terms = backend.size();
      }
      throw DeadlineExceeded();
    }
    if (options.trace != nullptr) {
      // Materializing value() per step costs O(|F|) for the packed
      // backend, but trace_step's sorted full-polynomial print is already
      // that order — tracing is a demonstration feature, not a hot path.
      trace_step(*options.trace, netlist, cone[idx], backend.value(),
                 backend.cancellations() - cancelled_before);
    }
  }

  if (stats != nullptr) {
    stats->cancellations = backend.cancellations();
    stats->peak_terms = current_peak();
    stats->final_terms = backend.size();
  }
  return backend.value();
}

}  // namespace

Anf extract_output_anf(const nl::Netlist& netlist, Var output,
                       const RewriteOptions& options, RewriteStats* stats) {
  Timer timer;
  Anf result;
  switch (options.strategy) {
    case RewriteStrategy::Packed:
      try {
        result =
            run_backward_rewriting<PackedBackend>(netlist, output, options,
                                                  stats);
      } catch (const anf::packed::Overflow&) {
        // Cone beyond the packing limits (slot space or sparse degree
        // cap): redo this cone on the textbook oracle.
        result = run_backward_rewriting<NaiveBackend>(netlist, output,
                                                      options, stats);
      }
      break;
    case RewriteStrategy::NaiveScan:
      result = run_backward_rewriting<NaiveBackend>(netlist, output, options,
                                                    stats);
      break;
  }
  // Sanity (Theorem 1): a fully rewritten polynomial mentions only primary
  // inputs.
  for (const auto& monomial : result.monomials()) {
    for (Var v : monomial.vars()) {
      GFRE_ASSERT(netlist.is_input(v),
                  "rewriting left internal variable '" << netlist.var_name(v)
                                                       << "' in the ANF");
    }
  }
  if (stats != nullptr) stats->seconds = timer.seconds();
  return result;
}

}  // namespace gfre::core
