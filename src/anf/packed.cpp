#include "anf/packed.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <string>

#include "anf/arena.hpp"
#include "anf/simd.hpp"

namespace gfre::anf::packed {

const char* to_string(RepKind kind) {
  switch (kind) {
    case RepKind::Bits64: return "bits64";
    case RepKind::Bits128: return "bits128";
    case RepKind::Bits256: return "bits256";
    case RepKind::Bits512: return "bits512";
    case RepKind::Sparse: return "sparse";
  }
  return "?";
}

RepKind rep_for_cone(std::size_t cone_vars) {
  if (cone_vars <= 64) return RepKind::Bits64;
  if (cone_vars <= 128) return RepKind::Bits128;
  if (cone_vars <= 256) return RepKind::Bits256;
  if (cone_vars <= 512) return RepKind::Bits512;
  return RepKind::Sparse;
}

namespace {

inline std::uint64_t mix64(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 29;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 32;
  return h;
}

/// Fixed-width bitset monomial: bit s set <=> slot s in the monomial.
template <unsigned W>
struct BitsRep {
  static constexpr RepKind kKind = W == 1   ? RepKind::Bits64
                                   : W == 2 ? RepKind::Bits128
                                   : W == 4 ? RepKind::Bits256
                                            : RepKind::Bits512;
  static constexpr unsigned kWords = W;
  std::array<std::uint64_t, W> w{};

  static BitsRep from_range(const Slot* begin, const Slot* end) {
    BitsRep r;
    for (const Slot* s = begin; s != end; ++s) r.w[*s >> 6] |= 1ull << (*s & 63);
    return r;
  }

  std::uint64_t hash() const {
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (unsigned i = 0; i < W; ++i) h = mix64(h ^ w[i]);
    return h;
  }

  void clear(Slot s) { w[s >> 6] &= ~(1ull << (s & 63)); }

  template <typename Fn>
  void for_each_slot(Fn&& fn) const {
    for (unsigned i = 0; i < W; ++i) {
      std::uint64_t bits = w[i];
      while (bits != 0) {
        fn(static_cast<Slot>(64 * i + std::countr_zero(bits)));
        bits &= bits - 1;
      }
    }
  }
};

/// Wide-cone spill representation: a sorted inline array of 32-bit slots,
/// stored as packed 64-bit words (halfword 0 is the degree, halfwords
/// 1..kSparseMaxDegree the slots) so equality and hashing are straight
/// word-kernel operations.  Covers any cone up to kMaxSlots; degree is
/// capped at kSparseMaxDegree (Overflow past that — the caller falls back
/// to the textbook oracle).
///
/// Invariant (prefix-dirty): the used words — halfwords 0..deg, plus one
/// zeroed trailing halfword when deg is even — are canonical, with
/// halfwords [1, deg] sorted ascending; words past them may hold stale
/// content from a recycled entry or a reused scratch value.  Every
/// consumer is degree-bounded — rep_eq and rep_hash read the used-word
/// prefix, for_each_slot reads deg slots — so the stale tail is never
/// observed, and toggles stop paying a 13-word zero plus a 13-word copy
/// for degree-3 monomials.
struct SparseRep {
  static constexpr RepKind kKind = RepKind::Sparse;
  static constexpr unsigned kWords = (kSparseMaxDegree + 2) / 2;
  std::array<std::uint64_t, kWords> w{};

  std::uint32_t deg() const { return static_cast<std::uint32_t>(w[0]); }

  std::uint32_t slot_at(unsigned i) const {  // i in [0, deg)
    const unsigned h = i + 1;
    return static_cast<std::uint32_t>(w[h >> 1] >> ((h & 1u) * 32));
  }

  void set_slot(unsigned i, std::uint32_t s) {
    const unsigned h = i + 1;
    const unsigned shift = (h & 1u) * 32;
    w[h >> 1] = (w[h >> 1] & ~(0xffffffffull << shift)) |
                (static_cast<std::uint64_t>(s) << shift);
  }

  void set_deg(std::uint32_t d) {
    w[0] = (w[0] & ~0xffffffffull) | d;
  }

  /// Requires [begin, end) sorted ascending without duplicates.
  static SparseRep from_range(const Slot* begin, const Slot* end) {
    const auto n = static_cast<std::size_t>(end - begin);
    if (n > kSparseMaxDegree) {
      throw Overflow("monomial degree " + std::to_string(n) +
                     " exceeds the sparse packing cap");
    }
    SparseRep r;
    r.set_deg(static_cast<std::uint32_t>(n));
    for (std::size_t i = 0; i < n; ++i) {
      r.set_slot(static_cast<unsigned>(i), begin[i]);
    }
    return r;
  }

  std::uint64_t hash() const {
    // Only the used-word prefix is canonical (see the invariant above).
    const unsigned words = (deg() + 2) / 2;
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (unsigned i = 0; i < words; ++i) h = mix64(h ^ w[i]);
    return h;
  }

  void clear(Slot s) {
    const unsigned d = deg();
    for (unsigned i = 0; i < d; ++i) {
      if (slot_at(i) != s) continue;
      for (unsigned j = i + 1; j < d; ++j) set_slot(j - 1, slot_at(j));
      set_slot(d - 1, 0);  // the new trailing halfword
      set_deg(d - 1);
      return;
    }
  }

  template <typename Fn>
  void for_each_slot(Fn&& fn) const {
    const unsigned d = deg();
    for (unsigned i = 0; i < d; ++i) fn(static_cast<Slot>(slot_at(i)));
  }
};

// Kernel-routed representation helpers: the engine's word loops go through
// the simd::Kernels table it was built with.

template <unsigned W>
inline bool rep_eq(const BitsRep<W>& a, const BitsRep<W>& b,
                   const simd::Kernels& k) {
  if constexpr (W == 1) {
    (void)k;
    return a.w[0] == b.w[0];
  } else {
    return k.eq_words(a.w.data(), b.w.data(), W);
  }
}

inline bool rep_eq(const SparseRep& a, const SparseRep& b,
                   const simd::Kernels& k) {
  if (a.w[0] != b.w[0]) return false;  // degree + first slot fast reject
  // Equal w[0] means equal degrees, so comparing the used-word prefix
  // suffices (typical cone monomials have degree <= 3, i.e. two words
  // instead of thirteen).
  return k.eq_words(a.w.data(), b.w.data(), (a.deg() + 2) / 2);
}

template <unsigned W>
inline void rep_united(BitsRep<W>& dst, const BitsRep<W>& a,
                       const BitsRep<W>& b, const simd::Kernels& k) {
  if constexpr (W == 1) {
    (void)k;
    dst.w[0] = a.w[0] | b.w[0];
  } else {
    k.or_words(dst.w.data(), a.w.data(), b.w.data(), W);
  }
}

/// Sorted-merge union a ∪ b into dst's prefix (dst must alias neither).
inline void rep_united(SparseRep& dst, const SparseRep& a, const SparseRep& b,
                       const simd::Kernels&) {
  const unsigned da = a.deg(), db = b.deg();
  unsigned i = 0, j = 0, n = 0;
  while (i < da || j < db) {
    std::uint32_t next;
    if (j >= db || (i < da && a.slot_at(i) <= b.slot_at(j))) {
      next = a.slot_at(i);
      if (j < db && b.slot_at(j) == next) ++j;  // idempotent: x*x = x
      ++i;
    } else {
      next = b.slot_at(j++);
    }
    if (n == kSparseMaxDegree) {
      throw Overflow("monomial union exceeds the sparse packing cap");
    }
    dst.set_slot(n++, next);
  }
  dst.set_deg(n);
  // Even degree leaves the covering word's high halfword unused: zero it
  // so prefix-wide equality and hashing stay content-independent.
  if ((n & 1u) == 0) dst.w[n >> 1] &= 0xffffffffull;
}

template <unsigned W>
inline std::size_t rep_degree(const BitsRep<W>& r, const simd::Kernels& k) {
  return k.popcount_words(r.w.data(), W);
}

inline std::size_t rep_degree(const SparseRep& r, const simd::Kernels&) {
  return r.deg();
}

/// Entry assignment (prefix-only for SparseRep, see its invariant).
template <unsigned W>
inline void rep_assign(BitsRep<W>& dst, const BitsRep<W>& src) {
  dst = src;
}

inline void rep_assign(SparseRep& dst, const SparseRep& src) {
  const unsigned words = (src.deg() + 2) / 2;
  for (unsigned i = 0; i < words; ++i) dst.w[i] = src.w[i];
}

template <unsigned W>
inline std::uint64_t rep_hash(const BitsRep<W>& r) {
  return r.hash();
}

/// Table-layout hash.  Layout does not affect set semantics (same toggles,
/// same cancellations, same monomials), so one avalanche over the two words
/// that cover every degree <= 3 monomial — the overwhelming cone traffic —
/// replaces the serial per-word mixing chain there.
inline std::uint64_t rep_hash(const SparseRep& r) {
  const unsigned words = (r.deg() + 2) / 2;
  if (words == 1) return mix64(r.w[0]);
  if (words == 2) return mix64(r.w[0] ^ (r.w[1] * 0x9e3779b97f4a7c15ull));
  return r.hash();
}

}  // namespace

// ---------------------------------------------------------------------------
// Engine interface + per-thread scratch
// ---------------------------------------------------------------------------

struct ConeEngine::Impl {
  virtual ~Impl() = default;
  virtual RepKind rep() const = 0;
  virtual simd::Level level() const = 0;
  virtual std::size_t occurrence_count(Slot var) = 0;
  virtual void substitute(Slot var, const TermList& terms) = 0;
  virtual std::size_t size() const = 0;
  virtual std::size_t cancellations() const = 0;
  virtual std::size_t peak_terms() const = 0;
  virtual std::vector<SlotMono> monomials() const = 0;

  /// True when this impl was placement-constructed in the per-thread
  /// scratch buffer (ImplDeleter then runs the destructor only).
  bool placed_ = false;
};

namespace {

/// A slot's occurrence bucket: packed (id, gen) handles in arena memory.
/// Trivial by design — the per-thread bucket directory persists across
/// cones and is revalidated by epoch, so a stale Bucket is simply
/// overwritten, never destroyed.
struct Bucket {
  std::uint64_t* refs;
  std::uint32_t size;
  std::uint32_t cap;
};

constexpr std::size_t kImplStorageBytes = 768;

/// Per-thread engine scratch: the cone arena plus the epoch-validated
/// occurrence-bucket directory and the impl placement buffer.  One cone
/// engine leases it at a time (in_use); a nested engine — which the
/// rewriter never creates, but tests may — falls back to a private
/// heap-allocated scratch.
struct EngineScratch {
  MonotonicArena arena;
  std::vector<Bucket> occ;
  std::vector<std::uint32_t> occ_epoch;
  std::uint32_t epoch = 0;
  bool in_use = false;
  alignas(64) unsigned char impl_storage[kImplStorageBytes];

  std::uint32_t next_epoch() {
    if (++epoch == 0) {  // wrap: invalidate everything explicitly
      std::fill(occ_epoch.begin(), occ_epoch.end(), 0u);
      epoch = 1;
    }
    return epoch;
  }

  void ensure_slots(std::size_t n) {
    if (occ.size() < n) {
      occ.resize(n, Bucket{nullptr, 0, 0});
      occ_epoch.resize(n, 0u);
    }
  }
};

EngineScratch& thread_scratch() {
  thread_local EngineScratch scratch;
  return scratch;
}

// ---------------------------------------------------------------------------
// The engine: 16-byte control-tag groups (SwissTable-style) probed and
// compared through an anf/simd.hpp kernel table, with every table, bucket
// and scratch buffer bump-allocated from the per-thread cone arena.
//
// A probe touches a 16-byte tag group first (one cache line covers four
// groups) and only dereferences entries whose 7-bit tag matched, and cone
// teardown/retirement is a pointer rewind.  Every kernel table computes the
// same words, so the level changes only the speed, never a result.
// ---------------------------------------------------------------------------

template <typename Rep>
class KernelEngine final : public ConeEngine::Impl {
 public:
  KernelEngine(std::size_t num_slots, Slot root, const simd::Kernels& k,
               simd::Level lvl, EngineScratch* scratch, bool owns_scratch)
      : k_(k), level_(lvl), scratch_(scratch), owns_scratch_(owns_scratch) {
    scratch_->ensure_slots(num_slots);
    epoch_ = scratch_->next_epoch();
    scratch_->arena.reset();
    entries_.attach(scratch_->arena);
    free_.attach(scratch_->arena);
    hit_ids_.attach(scratch_->arena);
    packed_terms_.attach(scratch_->arena);
    init_table(kMinTableSlots);
    toggle(Rep::from_range(&root, &root + 1));
    cancellations_ = 0;
    peak_ = live_;
  }

  ~KernelEngine() override {
    if (owns_scratch_) {
      delete scratch_;
    } else {
      scratch_->in_use = false;
    }
  }

  RepKind rep() const override { return Rep::kKind; }
  simd::Level level() const override { return level_; }

  std::size_t occurrence_count(Slot var) override {
    // Most queried vars never entered F (the driver probes every cone
    // gate): an empty bucket answers without touching the hits stash.
    if (live_bucket(var).size == 0) {
      hits_valid_ = false;
      return 0;
    }
    collect_hits(var);
    return hit_ids_.size();
  }

  void substitute(Slot var, const TermList& terms) override {
    // Reuses the hit set stashed by an immediately preceding
    // occurrence_count(var) — the driver's prepare/substitute pairing —
    // so the bucket is walked once per gate.  The stash can only go stale
    // through toggles, which happen exclusively below (and invalidate it).
    if (!hits_valid_ || hits_var_ != var) collect_hits(var);
    hits_valid_ = false;
    // `var` never reappears (reverse topological order): retire the
    // bucket — the arena reclaims its memory at the next cone.
    live_bucket(var) = Bucket{nullptr, 0, 0};

    packed_terms_.clear();
    for (std::size_t t = 0; t < terms.term_count(); ++t) {
      packed_terms_.push_back(
          Rep::from_range(terms.term_begin(t), terms.term_end(t)));
    }

    // Hits are stashed as entry ids, not monomial copies: pending hits
    // stay live until their own turn (products never contain `var`, so
    // toggles below can neither cancel a pending hit nor recycle its
    // entry), and each is copied out exactly once, right before its kill.
    // Kills go by id — entries carry their table position, so no probe is
    // needed (and none counts as a mod-2 cancellation).
    Rep rest;
    Rep product;
    for (std::size_t h = 0; h < hit_ids_.size(); ++h) {
      const std::uint32_t id = hit_ids_[h];
      rep_assign(rest, entries_[id].mono);
      kill(id);
      rest.clear(var);
      for (const Rep& term : packed_terms_) {
        rep_united(product, rest, term, k_);
        toggle(product);
      }
    }
    peak_ = std::max(peak_, live_);
  }

  std::size_t size() const override { return live_; }
  std::size_t cancellations() const override { return cancellations_; }
  std::size_t peak_terms() const override { return peak_; }

  std::vector<SlotMono> monomials() const override {
    std::vector<SlotMono> out;
    out.reserve(live_);
    for (std::size_t id = 0; id < entries_.size(); ++id) {
      const Entry& e = entries_[id];
      if ((e.gen & 1u) == 0) continue;  // odd generation = live
      SlotMono mono;
      mono.reserve(rep_degree(e.mono, k_));
      e.mono.for_each_slot([&](Slot s) { mono.push_back(s); });
      out.push_back(std::move(mono));
    }
    return out;
  }

 private:
  struct Entry {
    Rep mono{};
    // Liveness is the generation's parity (odd = live); a stale occurrence
    // handle is detected by generation mismatch, so a recycled entry id
    // never aliases an old handle.
    std::uint32_t gen = 0;
    std::uint32_t pos = 0;  // table slot holding this entry (valid while live)
  };

  static constexpr std::uint8_t kEmptyTag = 0xFF;
  static constexpr std::uint8_t kTombTag = 0xFE;
  static constexpr std::size_t kMinTableSlots = 64;  // 4 groups
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  static std::uint8_t tag_of(std::uint64_t hash) {
    return static_cast<std::uint8_t>(hash >> 57);  // top 7 bits: 0..127
  }

  void init_table(std::size_t slots) {
    groups_ = slots / 16;
    tags_ = scratch_->arena.allocate_array<std::uint8_t>(slots);
    idx_ = scratch_->arena.allocate_array<std::uint32_t>(slots);
    std::memset(tags_, kEmptyTag, slots);
    used_ = 0;
  }

  Bucket& live_bucket(Slot s) {
    if (scratch_->occ_epoch[s] != epoch_) {
      scratch_->occ_epoch[s] = epoch_;
      scratch_->occ[s] = Bucket{nullptr, 0, 0};
    }
    return scratch_->occ[s];
  }

  void bucket_push(Slot s, std::uint64_t ref) {
    Bucket& b = live_bucket(s);
    if (b.size == b.cap) {
      const std::uint32_t cap = b.cap == 0 ? 4 : b.cap * 2;
      auto* refs = scratch_->arena.allocate_array<std::uint64_t>(cap);
      if (b.size != 0) {
        std::memcpy(refs, b.refs, std::size_t{b.size} * sizeof(std::uint64_t));
      }
      b.refs = refs;
      b.cap = cap;
    }
    b.refs[b.size++] = ref;
  }

  /// Adds mono mod 2: inserts if absent, cancels if present.  One fused
  /// probe_group call per group yields the tag-match, empty and free masks
  /// together (a third of the indirect calls of probing them separately).
  void toggle(const Rep& mono) {
    maybe_grow();
    const std::uint64_t h = rep_hash(mono);
    const std::uint8_t tag = tag_of(h);
    const std::size_t gmask = groups_ - 1;
    std::size_t g = h & gmask;
    std::size_t first_free = kNone;
    for (;; g = (g + 1) & gmask) {
      const std::uint8_t* gt = tags_ + g * 16;
      const std::uint64_t probe = k_.probe_group(gt, tag);
      std::uint32_t match = static_cast<std::uint32_t>(probe & 0xFFFFu);
      while (match != 0) {
        const unsigned b = static_cast<unsigned>(std::countr_zero(match));
        match &= match - 1;
        const std::size_t pos = g * 16 + b;
        const std::uint32_t id = idx_[pos];
        if (rep_eq(entries_[id].mono, mono, k_)) {
          kill(id);
          ++cancellations_;
          return;
        }
      }
      if (first_free == kNone) {
        const std::uint32_t free_mask =
            static_cast<std::uint32_t>((probe >> 32) & 0xFFFFu);
        if (free_mask != 0) {
          first_free =
              g * 16 + static_cast<unsigned>(std::countr_zero(free_mask));
        }
      }
      if ((probe & 0xFFFF0000u) != 0) {  // group has an empty slot: absent
        do_insert(mono, tag, first_free);
        return;
      }
    }
  }

  /// Removes a live entry in O(1) via its stored table position.  Used both
  /// for mod-2 cancellation (toggle) and for retiring substitution hits —
  /// the latter never probes at all.
  void kill(std::uint32_t id) {
    Entry& e = entries_[id];
    ++e.gen;  // live -> dead; stale handles stop matching
    free_.push_back(id);
    tags_[e.pos] = kTombTag;
    --live_;
  }

  void do_insert(const Rep& mono, std::uint8_t tag, std::size_t pos) {
    std::uint32_t id;
    if (!free_.empty()) {
      id = free_.back();
      free_.pop_back();
    } else {
      entries_.emplace_back();
      id = static_cast<std::uint32_t>(entries_.size() - 1);
    }
    Entry& e = entries_[id];
    rep_assign(e.mono, mono);
    ++e.gen;  // dead -> live
    e.pos = static_cast<std::uint32_t>(pos);
    if (tags_[pos] == kEmptyTag) ++used_;
    tags_[pos] = tag;
    idx_[pos] = id;
    ++live_;
    const std::uint64_t ref = (static_cast<std::uint64_t>(id) << 32) | e.gen;
    mono.for_each_slot([&](Slot s) { bucket_push(s, ref); });
  }

  /// Validates the bucket's handles, stashing live entry ids in hit_ids_
  /// (no monomial copies — substitute() reads each entry once, at its
  /// kill) and compacting the bucket in place.
  void collect_hits(Slot var) {
    Bucket& bucket = live_bucket(var);
    hit_ids_.clear();
    std::uint32_t out = 0;
    for (std::uint32_t i = 0; i < bucket.size; ++i) {
      const std::uint64_t ref = bucket.refs[i];
      const auto id = static_cast<std::uint32_t>(ref >> 32);
      const auto gen = static_cast<std::uint32_t>(ref);
      if (entries_[id].gen != gen) continue;  // stale handle
      hit_ids_.push_back(id);
      bucket.refs[out++] = ref;
    }
    bucket.size = out;
    hits_var_ = var;
    hits_valid_ = true;
  }

  void maybe_grow() {
    if ((used_ + 1) * 8 < groups_ * 16 * 7) return;
    // Grow for the live set; if tombstones dominate, a rehash at the same
    // power of two just sweeps them out.  Old table memory is abandoned
    // to the arena (reclaimed wholesale at the next cone).
    const std::size_t target =
        std::bit_ceil(std::max(kMinTableSlots, live_ * 4));
    init_table(target);
    used_ = live_;
    const std::size_t gmask = groups_ - 1;
    for (std::size_t id = 0; id < entries_.size(); ++id) {
      if ((entries_[id].gen & 1u) == 0) continue;
      const std::uint64_t h = rep_hash(entries_[id].mono);
      for (std::size_t g = h & gmask;; g = (g + 1) & gmask) {
        const std::uint32_t empty = k_.match_tags16(tags_ + g * 16, kEmptyTag);
        if (empty == 0) continue;
        const std::size_t pos =
            g * 16 + static_cast<unsigned>(std::countr_zero(empty));
        tags_[pos] = tag_of(h);
        idx_[pos] = static_cast<std::uint32_t>(id);
        entries_[id].pos = static_cast<std::uint32_t>(pos);
        break;
      }
    }
  }

  const simd::Kernels k_;  // by value: one indirection per kernel call
  const simd::Level level_;
  EngineScratch* scratch_;
  const bool owns_scratch_;
  std::uint32_t epoch_ = 0;

  std::uint8_t* tags_ = nullptr;   // groups_ * 16 control bytes
  std::uint32_t* idx_ = nullptr;   // parallel entry ids
  std::size_t groups_ = 0;

  ArenaVector<Entry> entries_;
  ArenaVector<std::uint32_t> free_;
  std::size_t live_ = 0;
  std::size_t used_ = 0;  // non-empty table slots (live + tombstones)
  std::size_t cancellations_ = 0;
  std::size_t peak_ = 0;
  ArenaVector<std::uint32_t> hit_ids_;
  Slot hits_var_ = 0;
  bool hits_valid_ = false;
  ArenaVector<Rep> packed_terms_;
};

template <typename Rep>
ConeEngine::Impl* make_impl(std::size_t num_slots, Slot root,
                            const simd::Kernels& kernels, simd::Level lvl) {
  static_assert(sizeof(KernelEngine<Rep>) <= kImplStorageBytes);
  EngineScratch& ts = thread_scratch();
  if (!ts.in_use) {
    ts.in_use = true;
    try {
      auto* impl = new (static_cast<void*>(ts.impl_storage))
          KernelEngine<Rep>(num_slots, root, kernels, lvl, &ts, false);
      impl->placed_ = true;
      return impl;
    } catch (...) {
      ts.in_use = false;
      throw;
    }
  }
  // Nested engine on this thread: rare (the rewriter never does it), so a
  // private heap scratch is fine.
  auto scratch = std::make_unique<EngineScratch>();
  auto* impl =
      new KernelEngine<Rep>(num_slots, root, kernels, lvl, scratch.get(),
                            /*owns_scratch=*/true);
  scratch.release();  // now owned by the impl
  return impl;
}

}  // namespace

void ConeEngine::ImplDeleter::operator()(Impl* impl) const noexcept {
  if (impl == nullptr) return;
  if (impl->placed_) {
    impl->~Impl();  // storage belongs to the thread scratch
  } else {
    delete impl;
  }
}

ConeEngine::ConeEngine(std::size_t num_slots, Slot root) {
  if (num_slots > kMaxSlots) {
    throw Overflow("cone has " + std::to_string(num_slots) +
                   " variables, beyond the packed slot space");
  }
  const simd::Level lvl = simd::active_level();
  // active_level() never exceeds detect_level(), so its table exists.
  const simd::Kernels& kernels = *simd::kernels_for_level(lvl);
  switch (rep_for_cone(num_slots)) {
    case RepKind::Bits64:
      impl_.reset(make_impl<BitsRep<1>>(num_slots, root, kernels, lvl));
      break;
    case RepKind::Bits128:
      impl_.reset(make_impl<BitsRep<2>>(num_slots, root, kernels, lvl));
      break;
    case RepKind::Bits256:
      impl_.reset(make_impl<BitsRep<4>>(num_slots, root, kernels, lvl));
      break;
    case RepKind::Bits512:
      impl_.reset(make_impl<BitsRep<8>>(num_slots, root, kernels, lvl));
      break;
    case RepKind::Sparse:
      impl_.reset(make_impl<SparseRep>(num_slots, root, kernels, lvl));
      break;
  }
}

ConeEngine::~ConeEngine() = default;
ConeEngine::ConeEngine(ConeEngine&&) noexcept = default;
ConeEngine& ConeEngine::operator=(ConeEngine&&) noexcept = default;

RepKind ConeEngine::rep() const { return impl_->rep(); }
simd::Level ConeEngine::level() const { return impl_->level(); }
std::size_t ConeEngine::occurrence_count(Slot var) {
  return impl_->occurrence_count(var);
}
void ConeEngine::substitute(Slot var, const TermList& terms) {
  impl_->substitute(var, terms);
}
std::size_t ConeEngine::size() const { return impl_->size(); }
std::size_t ConeEngine::cancellations() const { return impl_->cancellations(); }
std::size_t ConeEngine::peak_terms() const { return impl_->peak_terms(); }
std::vector<SlotMono> ConeEngine::monomials() const {
  return impl_->monomials();
}

}  // namespace gfre::anf::packed
