// Packed cone-local ANF engine — the cache-friendly backend of Algorithm 1.
//
// Backward rewriting only ever manipulates variables inside one output
// bit's fanin cone (Theorem 2), so the engine works in a *cone-local* id
// space: the rewriter densely remaps cone variables to slots 0..k-1 and
// this engine packs each monomial as a fixed-width bitset over those slots
// (one, two, four or eight 64-bit words chosen per cone), with a sorted
// inline-array spill representation for cones wider than 512 variables —
// wide enough for the NIST binary-curve multipliers (m=163..571), whose
// Montgomery cones reach hundreds of thousands of variables.  Monomials
// live in an open-addressed flat hash table with in-place mod-2 toggling —
// no per-monomial heap allocation, no node-based buckets — and the
// variable -> occurrence index stores small (entry id, generation)
// handles instead of monomial copies, so a gate substitution touches only
// the monomials that actually mention the substituted variable.
//
// The hash table probes 16-byte control-tag groups (SwissTable style) and
// runs its word loops through an anf/simd.hpp kernel table; tables,
// buckets and scratch all live in a per-thread anf::MonotonicArena — zero
// steady-state heap allocations per cone.  Each
// cone snapshots anf::simd::active_level() and runs this one engine on
// that level's kernel table (the portable one at Scalar, AVX2 / AVX-512
// picked at runtime otherwise).  Every table yields bit-identical
// polynomials and statistics; the level is a pure speed knob and
// deliberately not part of any result-cache key.
//
// The engine is representation-agnostic to its caller: core/rewriter.cpp
// feeds it slot-space substitution steps and converts the final polynomial
// back to the canonical anf::Anf, so Algorithm 2, verification and
// printing are untouched.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "anf/simd.hpp"

namespace gfre::anf::packed {

/// Cone-local variable id.  The rewriter guarantees slots are dense in
/// [0, num_slots) with num_slots <= kMaxSlots.
using Slot = std::uint32_t;

/// A monomial in slot space: strictly ascending slot list (empty = 1).
using SlotMono = std::vector<Slot>;

/// Monomial representation picked per cone from its variable count.
enum class RepKind {
  Bits64,   ///< one 64-bit word   (cone <= 64 variables)
  Bits128,  ///< two words         (cone <= 128 variables)
  Bits256,  ///< four words        (cone <= 256 variables)
  Bits512,  ///< eight words       (cone <= 512 variables)
  Sparse,   ///< sorted inline slot array — the wide-cone spill path
};

const char* to_string(RepKind kind);

/// Largest cone the engine can host.  Slots are 32-bit; the cap exists to
/// bound the dense per-slot occurrence index, and comfortably covers the
/// widest NIST-size cones observed (Montgomery m=571 ~ 5.8e5 variables).
inline constexpr std::size_t kMaxSlots = std::size_t{1} << 22;

/// Maximum monomial degree the sparse spill representation holds inline.
/// Exceeding it raises Overflow; the caller falls back to the textbook
/// oracle (core::RewriteStrategy::NaiveScan) for that cone.
inline constexpr unsigned kSparseMaxDegree = 25;

/// Width selection: smallest fixed-width bitset that covers the cone,
/// else the sparse spill path.
RepKind rep_for_cone(std::size_t cone_vars);

/// Raised when a cone exceeds the engine's packing limits (too many cone
/// variables for the slot space, or a monomial too wide for the sparse
/// representation).  Callers treat it as "use the textbook oracle".
struct Overflow : std::runtime_error {
  explicit Overflow(const std::string& what) : std::runtime_error(what) {}
};

/// A gate's ANF in slot space: terms stored back to back in one flat
/// buffer, so building the per-gate expression costs zero allocations in
/// steady state (callers keep one TermList and clear() it per gate).
class TermList {
 public:
  void clear() {
    slots_.clear();
    ends_.clear();
  }

  /// Opens a new term; an immediately closed term is the constant 1.
  void begin_term() { open_ = slots_.size(); }
  void push_slot(Slot s) { slots_.push_back(s); }
  /// Closes the open term, canonicalizing it (sorted, idempotent slots
  /// deduplicated).  Terms of <= 2 slots — the overwhelming majority, as
  /// generated netlists are dominated by 2-input cells — take an inline
  /// compare/swap instead of the generic sort+unique.
  void end_term() {
    const std::size_t n = slots_.size() - open_;
    if (n <= 2) {
      if (n == 2) {
        Slot& a = slots_[open_];
        Slot& b = slots_[open_ + 1];
        if (a > b) {
          std::swap(a, b);
        } else if (a == b) {
          slots_.pop_back();  // idempotent: x*x = x
        }
      }
      ends_.push_back(static_cast<std::uint32_t>(slots_.size()));
      return;
    }
    std::sort(slots_.begin() + static_cast<std::ptrdiff_t>(open_),
              slots_.end());
    slots_.erase(std::unique(slots_.begin() +
                                 static_cast<std::ptrdiff_t>(open_),
                             slots_.end()),
                 slots_.end());
    ends_.push_back(static_cast<std::uint32_t>(slots_.size()));
  }

  /// Convenience: appends a whole term at once.
  void add_term(const SlotMono& mono) {
    begin_term();
    for (Slot s : mono) push_slot(s);
    end_term();
  }

  std::size_t term_count() const { return ends_.size(); }
  const Slot* term_begin(std::size_t i) const {
    return slots_.data() + (i == 0 ? 0 : ends_[i - 1]);
  }
  const Slot* term_end(std::size_t i) const { return slots_.data() + ends_[i]; }

 private:
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> ends_;
  std::size_t open_ = 0;
};

/// One cone's polynomial F under backward rewriting.  Starts as the single
/// monomial {root}; substitute() applies one gate of Algorithm 1.
class ConeEngine {
 public:
  /// num_slots must cover every slot ever passed in (<= kMaxSlots, else
  /// Overflow).  root is F's initial monomial.  The SIMD level is
  /// snapshotted from anf::simd::active_level() here.
  ConeEngine(std::size_t num_slots, Slot root);
  ~ConeEngine();
  ConeEngine(ConeEngine&&) noexcept;
  ConeEngine& operator=(ConeEngine&&) noexcept;

  RepKind rep() const;

  /// The kernel level this engine was constructed with (Scalar = the
  /// portable kernel table).
  simd::Level level() const;

  /// Number of live monomials currently mentioning `var` (compacts the
  /// occurrence bucket as a side effect).  O(bucket length).
  std::size_t occurrence_count(Slot var);

  /// Algorithm 1, line 5: removes every monomial containing `var` and
  /// toggles (monomial \ var) * term for each term of the gate's ANF.
  /// `var` must never reappear in a later step — reverse topological
  /// order guarantees this.
  void substitute(Slot var, const TermList& terms);

  /// Live monomial count |F|.
  std::size_t size() const;
  /// Mod-2 cancellations performed by substitute() so far.
  std::size_t cancellations() const;
  /// Max |F| observed after any substitution (and at construction).
  std::size_t peak_terms() const;

  /// Snapshot of F as sorted slot lists (monomial order unspecified).
  std::vector<SlotMono> monomials() const;

  struct Impl;
  /// Impls normally live placement-constructed in the per-thread engine
  /// scratch (so constructing an engine allocates nothing); the deleter
  /// distinguishes that from the heap-allocated fallback.
  struct ImplDeleter {
    void operator()(Impl* impl) const noexcept;
  };

 private:
  std::unique_ptr<Impl, ImplDeleter> impl_;
};

}  // namespace gfre::anf::packed
