// Differential suite for the SIMD kernel layer and the arena-backed packed
// engine.  The engine is one piece of code at every level; a level only
// picks its kernel table.  Every vector table compiled into the binary must
// be bit-identical to the portable scalar table at the word-kernel level
// (random payloads, boundary word counts) and at the whole-flow level
// (FlowReports across generator families and thread counts).  At the
// engine level, every executable level — Scalar included — is checked
// against a textbook mod-2 set model over every RepKind, including widths
// straddling the 64- and 512-bit representation boundaries.  Also
// unit-covers MonotonicArena/ArenaVector and asserts, at every level, that
// a cone extraction performs zero steady-state heap allocations once the
// per-thread arena is warm.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iterator>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "anf/arena.hpp"
#include "anf/packed.hpp"
#include "anf/simd.hpp"
#include "core/flow.hpp"
#include "core/rewriter.hpp"
#include "gen/karatsuba.hpp"
#include "gen/mastrovito.hpp"
#include "gen/montgomery_gate.hpp"
#include "gen/shift_add.hpp"
#include "gen/squarer.hpp"
#include "gf2m/field.hpp"
#include "gf2poly/catalog.hpp"
#include "gf2poly/irreducible.hpp"
#include "helpers.hpp"
#include "util/prng.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter — replaces operator new/delete for this binary
// so the zero-steady-state-allocation acceptance test can observe every
// heap allocation the engine (or the arena behind it) performs.  malloc is
// still the backing store, so sanitizers keep full visibility.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t a = static_cast<std::size_t>(align);
  if (a < sizeof(void*)) a = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, a, size == 0 ? 1 : size) != 0) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t a = static_cast<std::size_t>(align);
  if (a < sizeof(void*)) a = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, a, size == 0 ? 1 : size) != 0) throw std::bad_alloc();
  return p;
}

// GCC pairs the *builtin* operator-new semantics with these frees when it
// inlines them at delete sites, and warns — a false positive once the
// whole new/delete family is replaced with malloc-backed bodies above.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace gfre {
namespace {

namespace simd = anf::simd;
using anf::MonotonicArena;
using anf::ArenaVector;
using anf::packed::ConeEngine;
using anf::packed::RepKind;
using anf::packed::Slot;
using anf::packed::SlotMono;
using anf::packed::TermList;

/// Restores the process-global kernel level on scope exit, so a failing
/// assertion can't leak a forced level into later suites.
class LevelGuard {
 public:
  explicit LevelGuard(simd::Level level) : saved_(simd::active_level()) {
    simd::set_level(level);
  }
  ~LevelGuard() { simd::set_level(saved_); }
  LevelGuard(const LevelGuard&) = delete;
  LevelGuard& operator=(const LevelGuard&) = delete;

 private:
  simd::Level saved_;
};

/// Every level this binary can actually execute here, scalar included.
std::vector<simd::Level> executable_levels() {
  std::vector<simd::Level> levels{simd::Level::Scalar};
  if (simd::detect_level() >= simd::Level::Avx2) {
    levels.push_back(simd::Level::Avx2);
  }
  if (simd::detect_level() >= simd::Level::Avx512) {
    levels.push_back(simd::Level::Avx512);
  }
  return levels;
}

// ---------------------------------------------------------------------------
// Word-kernel differential: random payloads, every compiled level vs scalar
// ---------------------------------------------------------------------------

TEST(SimdKernels, ScalarTableIsAlwaysAvailable) {
  ASSERT_NE(simd::kernels_for_level(simd::Level::Scalar), nullptr);
  EXPECT_EQ(simd::to_string(simd::Level::Scalar), std::string("scalar"));
  EXPECT_EQ(simd::to_string(simd::Level::Avx2), std::string("avx2"));
  EXPECT_EQ(simd::to_string(simd::Level::Avx512), std::string("avx512"));
}

TEST(SimdKernels, TablesExistExactlyForExecutableLevels) {
  for (simd::Level level : executable_levels()) {
    EXPECT_NE(simd::kernels_for_level(level), nullptr)
        << simd::to_string(level);
  }
  if (simd::detect_level() < simd::Level::Avx512) {
    EXPECT_EQ(simd::kernels_for_level(simd::Level::Avx512), nullptr);
  }
}

TEST(SimdKernels, TagProbesMatchScalarOnRandomGroups) {
  const simd::Kernels& scalar = *simd::kernels_for_level(simd::Level::Scalar);
  Prng rng(0x7a95);
  for (simd::Level level : executable_levels()) {
    const simd::Kernels& k = *simd::kernels_for_level(level);
    for (int round = 0; round < 2000; ++round) {
      // Tag bytes mix live hashes (0x00..0x7F), empty (0xFF) and tombstone
      // (0x80) — exactly the values the control-tag table stores.
      std::uint8_t tags[16];
      for (auto& t : tags) {
        const std::uint64_t r = rng.next_u64();
        if ((r & 7u) == 0) {
          t = 0xFF;
        } else if ((r & 7u) == 1) {
          t = 0x80;
        } else {
          t = static_cast<std::uint8_t>((r >> 3) & 0x7F);
        }
      }
      const auto tag = static_cast<std::uint8_t>(rng.next_u64() & 0x7F);
      EXPECT_EQ(k.match_tags16(tags, tag), scalar.match_tags16(tags, tag))
          << simd::to_string(level) << " round " << round;
      EXPECT_EQ(k.probe_group(tags, tag), scalar.probe_group(tags, tag))
          << simd::to_string(level) << " round " << round;
    }
  }
}

TEST(SimdKernels, ProbeGroupEncodesMatchEmptyFreeLanes) {
  // Fixed group with every byte class at a known lane: the fused probe's
  // three 16-bit fields must decode exactly.
  std::uint8_t tags[16] = {};
  for (unsigned i = 0; i < 16; ++i) tags[i] = 0x11;
  tags[3] = 0x42;            // match lane
  tags[7] = 0xFF;            // empty lane
  tags[11] = 0x80;           // tombstone lane
  for (simd::Level level : executable_levels()) {
    const std::uint64_t probe =
        simd::kernels_for_level(level)->probe_group(tags, 0x42);
    EXPECT_EQ(probe & 0xFFFFu, 1u << 3) << simd::to_string(level);
    EXPECT_EQ((probe >> 16) & 0xFFFFu, 1u << 7) << simd::to_string(level);
    EXPECT_EQ((probe >> 32) & 0xFFFFu, (1u << 7) | (1u << 11))
        << simd::to_string(level);
  }
}

TEST(SimdKernels, WordKernelsMatchScalarAtBoundaryWordCounts) {
  const simd::Kernels& scalar = *simd::kernels_for_level(simd::Level::Scalar);
  Prng rng(0x51d);
  // 1/2/4/8 words are the bitset tiers; 13 is the sparse rep's inline
  // width; 3/5/7/9 straddle every vector register boundary (the AVX2 loop
  // is 4 words per lane, AVX-512 is 8 plus a masked tail).
  const std::size_t word_counts[] = {1, 2, 3, 4, 5, 7, 8, 9, 13, 16};
  for (simd::Level level : executable_levels()) {
    const simd::Kernels& k = *simd::kernels_for_level(level);
    for (const std::size_t n : word_counts) {
      for (int round = 0; round < 200; ++round) {
        std::vector<std::uint64_t> a(n), b(n);
        for (auto& w : a) w = rng.next_u64();
        // Make equality non-trivially reachable: half the rounds copy a.
        if ((round & 1) == 0) {
          b = a;
          if ((round & 3) == 2) b[rng.next_below(n)] ^= 1ull << (round % 64);
        } else {
          for (auto& w : b) w = rng.next_u64();
        }
        EXPECT_EQ(k.eq_words(a.data(), b.data(), n),
                  scalar.eq_words(a.data(), b.data(), n))
            << simd::to_string(level) << " n=" << n;
        EXPECT_EQ(k.popcount_words(a.data(), n),
                  scalar.popcount_words(a.data(), n))
            << simd::to_string(level) << " n=" << n;
        std::vector<std::uint64_t> got(n), want(n);
        k.or_words(got.data(), a.data(), b.data(), n);
        scalar.or_words(want.data(), a.data(), b.data(), n);
        EXPECT_EQ(got, want) << simd::to_string(level) << " or n=" << n;
      }
    }
  }
}

TEST(SimdKernels, SetLevelClampsToDetectedAndRestores) {
  const simd::Level detected = simd::detect_level();
  const simd::Level before = simd::active_level();
  {
    LevelGuard guard(simd::Level::Scalar);
    EXPECT_EQ(simd::active_level(), simd::Level::Scalar);
    // Requesting more than the CPU has clamps; requesting what it has
    // round-trips.
    EXPECT_EQ(simd::set_level(simd::Level::Avx512),
              detected >= simd::Level::Avx512 ? simd::Level::Avx512
                                              : detected);
    EXPECT_EQ(simd::set_level(detected), detected);
  }
  EXPECT_EQ(simd::active_level(), before);
}

// ---------------------------------------------------------------------------
// MonotonicArena / ArenaVector units
// ---------------------------------------------------------------------------

TEST(Arena, AlignedBumpAllocation) {
  MonotonicArena arena(256);
  auto* a = static_cast<char*>(arena.allocate(3, 1));
  auto* b = static_cast<char*>(arena.allocate(8, 8));
  auto* c = static_cast<char*>(arena.allocate(64, 64));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 64, 0u);
  EXPECT_NE(a, b);
  // Distinct non-overlapping regions: writing one must not disturb others.
  std::memset(a, 0xAA, 3);
  std::memset(b, 0xBB, 8);
  std::memset(c, 0xCC, 64);
  EXPECT_EQ(static_cast<unsigned char>(a[0]), 0xAAu);
  EXPECT_EQ(static_cast<unsigned char>(b[7]), 0xBBu);
  EXPECT_EQ(static_cast<unsigned char>(c[63]), 0xCCu);
}

TEST(Arena, GrowsAcrossChunksAndResetReuses) {
  MonotonicArena arena(4096);
  // Force several refills.
  for (int i = 0; i < 64; ++i) arena.allocate(1024, 8);
  const std::size_t chunks = arena.chunk_count();
  const std::size_t bytes = arena.capacity_bytes();
  EXPECT_GT(chunks, 1u);
  // The same workload after reset() must fit in the chunks already owned:
  // no growth, which is the zero-steady-state-allocation property.
  arena.reset();
  for (int i = 0; i < 64; ++i) arena.allocate(1024, 8);
  EXPECT_EQ(arena.chunk_count(), chunks);
  EXPECT_EQ(arena.capacity_bytes(), bytes);
}

TEST(Arena, OversizedRequestGetsDedicatedChunk) {
  MonotonicArena arena(4096);
  auto* p = static_cast<char*>(arena.allocate(1 << 20, 8));
  std::memset(p, 0x5A, 1 << 20);  // must be fully usable
  EXPECT_GE(arena.capacity_bytes(), std::size_t{1} << 20);
}

TEST(Arena, ArenaVectorGrowsAndSurvivesReset) {
  MonotonicArena arena;
  ArenaVector<std::uint32_t> v(arena);
  for (std::uint32_t i = 0; i < 10000; ++i) v.push_back(i);
  ASSERT_EQ(v.size(), 10000u);
  for (std::uint32_t i = 0; i < 10000; ++i) {
    ASSERT_EQ(v[i], i) << "growth must preserve contents";
  }
  v.clear();
  EXPECT_TRUE(v.empty());
  arena.reset();
  v.attach(arena);  // the engine's per-cone re-attach pattern
  for (std::uint32_t i = 0; i < 10000; ++i) v.push_back(i * 3);
  EXPECT_EQ(v[9999], 9999u * 3);
}

// ---------------------------------------------------------------------------
// Engine-level reference: every representation tier at every level against
// a textbook mod-2 set model
// ---------------------------------------------------------------------------

struct Step {
  Slot var;
  TermList terms;
};

/// Reverse-topological substitution script over `num_slots` slots: var
/// walks down from the root and each gate ANF mentions only lower slots,
/// like a real cone.  Degrees stay low (XOR-dominated, like real
/// multiplier datapaths) so the Sparse tier never overflows its cap.
std::vector<Step> make_script(std::size_t num_slots, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<Step> script;
  const Slot root = static_cast<Slot>(num_slots - 1);
  for (Slot var = root; var > 0; --var) {
    if (num_slots > 80 && (rng.next_u64() & 3u) == 0) continue;  // keep it fast
    Step step;
    step.var = var;
    const unsigned terms = 1 + static_cast<unsigned>(rng.next_below(3));
    for (unsigned t = 0; t < terms; ++t) {
      step.terms.begin_term();
      const unsigned degree = (rng.next_u64() & 7u) == 0 ? 2 : 1;
      for (unsigned d = 0; d < degree; ++d) {
        step.terms.push_slot(static_cast<Slot>(rng.next_below(var)));
      }
      step.terms.end_term();
    }
    script.push_back(std::move(step));
  }
  return script;
}

struct EngineRun {
  std::vector<SlotMono> monomials;
  std::size_t size = 0;
  std::size_t cancellations = 0;
  std::size_t peak_terms = 0;
  RepKind rep = RepKind::Bits64;
};

/// Algorithm 1 on a plain ordered set: each substitution removes the
/// monomials containing `var` and toggles (monomial \ var) * term for every
/// gate term, counting a toggle that finds its product present as one mod-2
/// cancellation; the peak is sampled after each substitution, as the engine
/// does.  Products never contain `var`, so removing every hit before the
/// toggles gives the same set and counts as the engine's interleaving.
EngineRun run_model(std::size_t num_slots, const std::vector<Step>& script) {
  std::set<SlotMono> poly{SlotMono{static_cast<Slot>(num_slots - 1)}};
  EngineRun run;
  run.peak_terms = poly.size();
  for (const Step& step : script) {
    std::vector<SlotMono> rests;
    for (auto it = poly.begin(); it != poly.end();) {
      if (std::binary_search(it->begin(), it->end(), step.var)) {
        SlotMono rest;
        std::remove_copy(it->begin(), it->end(), std::back_inserter(rest),
                         step.var);
        rests.push_back(std::move(rest));
        it = poly.erase(it);
      } else {
        ++it;
      }
    }
    for (const SlotMono& rest : rests) {
      for (std::size_t t = 0; t < step.terms.term_count(); ++t) {
        SlotMono product;
        std::set_union(rest.begin(), rest.end(), step.terms.term_begin(t),
                       step.terms.term_end(t), std::back_inserter(product));
        if (poly.erase(product) != 0) {
          ++run.cancellations;
        } else {
          poly.insert(std::move(product));
        }
      }
    }
    run.peak_terms = std::max(run.peak_terms, poly.size());
  }
  run.monomials.assign(poly.begin(), poly.end());
  run.size = poly.size();
  run.rep = anf::packed::rep_for_cone(num_slots);
  return run;
}

EngineRun run_script(std::size_t num_slots, const std::vector<Step>& script,
                     simd::Level level) {
  LevelGuard guard(level);
  ConeEngine engine(num_slots, static_cast<Slot>(num_slots - 1));
  EXPECT_EQ(engine.level(), level) << "engine must snapshot the forced level";
  for (const Step& step : script) {
    engine.substitute(step.var, step.terms);
  }
  EngineRun run;
  run.monomials = engine.monomials();
  std::sort(run.monomials.begin(), run.monomials.end());
  run.size = engine.size();
  run.cancellations = engine.cancellations();
  run.peak_terms = engine.peak_terms();
  run.rep = engine.rep();
  return run;
}

class EngineWidths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EngineWidths, EveryLevelMatchesTextbookModel) {
  const std::size_t num_slots = GetParam();
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto script = make_script(num_slots, seed * 0x9e37 + num_slots);
    const EngineRun want = run_model(num_slots, script);
    for (simd::Level level : executable_levels()) {
      const EngineRun got = run_script(num_slots, script, level);
      const std::string label = std::string(simd::to_string(level)) +
                                " slots=" + std::to_string(num_slots) +
                                " seed=" + std::to_string(seed);
      EXPECT_EQ(got.rep, want.rep) << label;
      EXPECT_EQ(got.size, want.size) << label;
      EXPECT_EQ(got.cancellations, want.cancellations) << label;
      EXPECT_EQ(got.peak_terms, want.peak_terms) << label;
      EXPECT_EQ(got.monomials, want.monomials) << label;
    }
  }
}

// Widths straddling every representation boundary: 63/64/65 around the
// one-word tier, 127..129 and 255..257 around the two/four-word tiers,
// 511/512/513 around Bits512 -> Sparse, plus a deep-Sparse width.
INSTANTIATE_TEST_SUITE_P(
    BoundaryWidths, EngineWidths,
    ::testing::Values(std::size_t{2}, std::size_t{63}, std::size_t{64},
                      std::size_t{65}, std::size_t{127}, std::size_t{128},
                      std::size_t{129}, std::size_t{255}, std::size_t{256},
                      std::size_t{257}, std::size_t{511}, std::size_t{512},
                      std::size_t{513}, std::size_t{900}));

// ---------------------------------------------------------------------------
// Flow-level differential: FlowReports bit-identical across levels,
// families and thread counts
// ---------------------------------------------------------------------------

struct FamilyCase {
  const char* name;
  nl::Netlist (*generate)(const gf2m::Field&);
  unsigned m;
  // The squarer is not a two-operand multiplier, so the flow diagnoses it
  // rather than succeeding — its *failure* report must be level-identical
  // too.
  bool expect_success;
};

nl::Netlist make_mastrovito(const gf2m::Field& f) {
  return gen::generate_mastrovito(f);
}
nl::Netlist make_montgomery(const gf2m::Field& f) {
  return gen::generate_montgomery(f);
}
nl::Netlist make_karatsuba(const gf2m::Field& f) {
  return gen::generate_karatsuba(f);
}
nl::Netlist make_shift_add(const gf2m::Field& f) {
  return gen::generate_shift_add(f);
}
nl::Netlist make_squarer(const gf2m::Field& f) {
  return gen::generate_squarer(f);
}

class SimdFlowFamilies : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(SimdFlowFamilies, ReportsBitIdenticalAcrossLevelsAndThreads) {
  const FamilyCase family = GetParam();
  const gf2m::Field field(gf2::has_paper_polynomial(family.m)
                              ? gf2::paper_polynomial(family.m).p
                              : gf2::default_irreducible(family.m));
  const auto netlist = family.generate(field);
  for (unsigned threads : {1u, 4u}) {
    core::FlowOptions options;
    options.threads = threads;
    core::FlowReport want;
    {
      LevelGuard guard(simd::Level::Scalar);
      want = core::reverse_engineer(netlist, options);
    }
    EXPECT_EQ(want.success, family.expect_success) << family.name;
    for (simd::Level level : executable_levels()) {
      if (level == simd::Level::Scalar) continue;
      LevelGuard guard(level);
      const auto got = core::reverse_engineer(netlist, options);
      test::expect_reports_equal(
          got, want,
          std::string(family.name) + " m=" + std::to_string(family.m) + " " +
              simd::to_string(level) + " threads=" + std::to_string(threads));
    }
  }
}

// m=16 puts montgomery/karatsuba cones into the multi-word tiers; the
// small widths keep the whole sweep fast.
INSTANTIATE_TEST_SUITE_P(
    AllFamilies, SimdFlowFamilies,
    ::testing::Values(FamilyCase{"mastrovito", &make_mastrovito, 12, true},
                      FamilyCase{"montgomery", &make_montgomery, 16, true},
                      FamilyCase{"karatsuba", &make_karatsuba, 16, true},
                      FamilyCase{"shiftadd", &make_shift_add, 12, true},
                      FamilyCase{"squarer", &make_squarer, 12, false}),
    [](const ::testing::TestParamInfo<FamilyCase>& info) {
      return std::string(info.param.name);
    });

/// Long XOR chain: the single output cone exceeds `width` variables, so
/// extraction runs the requested representation tier end to end.
nl::Netlist xor_chain(unsigned num_inputs, unsigned num_gates) {
  nl::Netlist netlist("chain");
  std::vector<nl::Var> ins;
  for (unsigned i = 0; i < num_inputs; ++i) {
    ins.push_back(netlist.add_input("i" + std::to_string(i)));
  }
  nl::Var prev = ins[0];
  for (unsigned g = 0; g < num_gates; ++g) {
    prev = netlist.add_gate(nl::CellType::Xor,
                            {prev, ins[(g + 1) % num_inputs]});
  }
  netlist.mark_output(prev);
  return netlist;
}

TEST(SimdFlow, Bits512AndSparseConesMatchScalar) {
  // 400 gates -> Bits512 tier; 700 gates -> Sparse spill.  Both must be
  // level-independent through the real extraction path.
  for (unsigned gates : {400u, 700u}) {
    const auto netlist = xor_chain(8, gates);
    core::RewriteOptions options;
    options.strategy = core::RewriteStrategy::Packed;
    anf::Anf want;
    {
      LevelGuard guard(simd::Level::Scalar);
      want = core::extract_output_anf(netlist, netlist.outputs()[0], options);
    }
    for (simd::Level level : executable_levels()) {
      if (level == simd::Level::Scalar) continue;
      LevelGuard guard(level);
      const auto got =
          core::extract_output_anf(netlist, netlist.outputs()[0], options);
      EXPECT_EQ(got, want)
          << simd::to_string(level) << " gates=" << gates;
    }
  }
}

// ---------------------------------------------------------------------------
// Acceptance: zero steady-state heap allocations per cone
// ---------------------------------------------------------------------------

TEST(SimdEngine, ConeExtractionIsAllocationFreeAfterWarmup) {
  // A wide-enough script to force table growth and occurrence-bucket
  // churn, prebuilt so the measured loop touches no std::vector growth.
  const std::size_t num_slots = 300;
  const auto script = make_script(num_slots, 0xfeed);

  const auto run_cone = [&] {
    ConeEngine engine(num_slots, static_cast<Slot>(num_slots - 1));
    for (const Step& step : script) engine.substitute(step.var, step.terms);
    return engine.size();
  };

  for (simd::Level level : executable_levels()) {
    LevelGuard guard(level);
    // Warmup: grows the thread's arena chunks and the table to their
    // steady-state footprint.
    const std::size_t warm_size = run_cone();

    // Steady state: the identical cone must allocate nothing at all.
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    const std::size_t size1 = run_cone();
    const std::size_t size2 = run_cone();
    const std::size_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << simd::to_string(level)
        << ": cone extraction must be allocation-free after arena warmup";
    EXPECT_EQ(size1, warm_size) << simd::to_string(level);
    EXPECT_EQ(size2, warm_size) << simd::to_string(level);
  }
}

TEST(SimdEngine, AllocationCounterHookIsLive) {
  // Guards the acceptance test above against silently measuring nothing
  // (e.g. the replacement operators not being linked in).
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  auto* p = new std::vector<int>(100);
  delete p;
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_GT(after, before);
}

}  // namespace
}  // namespace gfre
