// Persistent result cache suite: the vendored SHA-256 against FIPS known
// answers, exact FlowReport serialization round trips against live
// reverse_engineer output, warm-run bit-identity across process-like
// boundaries (fresh schedulers) and thread counts, corruption/truncation
// quarantine, stale-schema rejection, two schedulers sharing one cache
// directory concurrently, and the prune policy.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.hpp"
#include "core/flow.hpp"
#include "core/report_io.hpp"
#include "core/result_cache.hpp"
#include "core/scheduler.hpp"
#include "gen/mastrovito.hpp"
#include "gen/montgomery_gate.hpp"
#include "gf2m/field.hpp"
#include "gf2poly/irreducible.hpp"
#include "helpers.hpp"
#include "netlist/io_eqn.hpp"
#include "util/error.hpp"
#include "util/sha256.hpp"

#ifndef GFRE_SOURCE_DIR
#define GFRE_SOURCE_DIR "."
#endif

namespace gfre::core {
namespace {

namespace fs = std::filesystem;
using gf2::Poly;
using test::expect_reports_equal;

std::string data_path(const std::string& file) {
  return std::string(GFRE_SOURCE_DIR) + "/data/" + file;
}

/// Fresh per-test directory under gtest's temp root.
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "result_cache_" + name;
  fs::remove_all(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// The one .rpt entry in a cache dir (most tests store exactly one).
std::string sole_entry_path(const std::string& dir) {
  std::string found;
  for (const auto& file : fs::directory_iterator(dir)) {
    if (file.path().extension() == ".rpt") {
      EXPECT_TRUE(found.empty()) << "more than one entry in " << dir;
      found = file.path().string();
    }
  }
  EXPECT_FALSE(found.empty()) << "no entry in " << dir;
  return found;
}

/// A live, successful report to round-trip: every interesting field is
/// populated (rows, verification, per-bit stats, timings, RSS).
FlowReport live_report() {
  const gf2m::Field field(Poly{8, 4, 3, 1, 0});
  FlowOptions options;
  options.threads = 2;
  FlowReport report = reverse_engineer(gen::generate_mastrovito(field),
                                       options);
  EXPECT_TRUE(report.success);
  return report;
}

// -- SHA-256 known-answer vectors (FIPS 180-4 / NIST CAVS) ------------------

TEST(Sha256, KnownAnswerVectors) {
  EXPECT_EQ(util::Sha256::hex(util::Sha256::of("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(util::Sha256::hex(util::Sha256::of("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      util::Sha256::hex(util::Sha256::of(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  // One million 'a's — exercises the multi-block and buffered paths.
  EXPECT_EQ(util::Sha256::hex(util::Sha256::of(std::string(1000000, 'a'))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  const std::string message =
      "The quick brown fox jumps over the lazy dog, 64 bytes at a time..";
  for (const std::size_t chunk : {1u, 3u, 63u, 64u, 65u}) {
    util::Sha256 h;
    for (std::size_t i = 0; i < message.size(); i += chunk) {
      h.update(message.substr(i, chunk));
    }
    EXPECT_EQ(util::Sha256::hex(h.digest()),
              util::Sha256::hex(util::Sha256::of(message)))
        << "chunk " << chunk;
  }
}

TEST(Sha256, LengthPrefixedFramingPreventsAliasing) {
  util::Sha256 ab_c;
  ab_c.update_str("ab");
  ab_c.update_str("c");
  util::Sha256 a_bc;
  a_bc.update_str("a");
  a_bc.update_str("bc");
  EXPECT_NE(util::Sha256::hex(ab_c.digest()),
            util::Sha256::hex(a_bc.digest()));
}

// -- FlowReport serialization ----------------------------------------------

/// Beyond expect_reports_equal (which skips run-dependent fields), a
/// round-tripped report must also restore timings and RSS bit for bit.
void expect_exact_round_trip(const FlowReport& report) {
  const FlowReport copy = deserialize_report(serialize_report(report));
  expect_reports_equal(copy, report, "round trip");
  EXPECT_EQ(copy.extraction.wall_seconds, report.extraction.wall_seconds);
  EXPECT_EQ(copy.extraction.total_peak_terms,
            report.extraction.total_peak_terms);
  EXPECT_EQ(copy.extraction.threads, report.extraction.threads);
  ASSERT_EQ(copy.extraction.per_bit.size(), report.extraction.per_bit.size());
  for (std::size_t i = 0; i < copy.extraction.per_bit.size(); ++i) {
    EXPECT_EQ(copy.extraction.per_bit[i].seconds,
              report.extraction.per_bit[i].seconds)
        << "bit " << i;
  }
  EXPECT_EQ(copy.total_seconds, report.total_seconds);
  EXPECT_EQ(copy.rss_peak_bytes, report.rss_peak_bytes);
  EXPECT_EQ(copy.rss_after_bytes, report.rss_after_bytes);
  // Serialization is canonical (sorted monomials, normalized polynomials),
  // so re-serializing the copy reproduces the blob byte for byte.
  EXPECT_EQ(serialize_report(copy), serialize_report(report));
}

TEST(ReportIo, RoundTripsLiveSuccessReport) {
  expect_exact_round_trip(live_report());
}

TEST(ReportIo, RoundTripsDiagnosedFailureReport) {
  // The corrupt fixture produces success=false with a diagnosis and a
  // NotAMultiplier classification — the other arm of the outcome space.
  const auto netlist = nl::read_eqn_file(data_path("corrupt_gf4.eqn"));
  FlowOptions options;
  const FlowReport report = reverse_engineer(netlist, options);
  EXPECT_FALSE(report.success);
  EXPECT_FALSE(report.recovery.diagnosis.empty());
  expect_exact_round_trip(report);
}

TEST(ReportIo, RoundTripsDefaultReport) {
  expect_exact_round_trip(FlowReport{});
}

TEST(ReportIo, RejectsBadMagicVersionTruncationAndTrailingGarbage) {
  const std::string blob = serialize_report(live_report());

  std::string bad_magic = blob;
  bad_magic[0] = 'X';
  EXPECT_THROW(deserialize_report(bad_magic), Error);

  std::string bad_version = blob;
  bad_version[4] = static_cast<char>(bad_version[4] + 1);
  EXPECT_THROW(deserialize_report(bad_version), Error);

  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, blob.size() / 2, blob.size() - 1}) {
    EXPECT_THROW(deserialize_report(std::string_view(blob).substr(0, keep)),
                 Error)
        << "kept " << keep;
  }

  EXPECT_THROW(deserialize_report(blob + "x"), Error);
}

TEST(ReportIo, CorruptLengthFieldCannotForceGiantAllocation) {
  std::string blob = serialize_report(FlowReport{});
  // The first length field after the header is the algorithm2_p support
  // count (offset 8+4+8): set it to 2^56 — a bounds-checked reader must
  // reject it instead of reserving petabytes.
  blob[20 + 7] = '\x01';
  EXPECT_THROW(deserialize_report(blob), Error);
}

// -- ResultCache unit behavior ----------------------------------------------

TEST(ResultCache, StoreLookupRoundTripsOutcomes) {
  ResultCache cache(fresh_dir("roundtrip"));
  const FlowReport report = live_report();
  const FlowOptions options;
  const std::string key = ResultCache::key_for_file("some bytes", options);

  EXPECT_FALSE(cache.lookup(key).has_value());
  ASSERT_TRUE(cache.store(key, report));
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->error.empty());
  expect_reports_equal(hit->report, report, "disk round trip");
  EXPECT_EQ(serialize_report(hit->report), serialize_report(report));

  // Error-arm outcomes replay too.
  const std::string error_key =
      ResultCache::key_for_file("other bytes", options);
  ASSERT_TRUE(cache.store(error_key, FlowReport{}, "parse error: line 3"));
  const auto error_hit = cache.lookup(error_key);
  ASSERT_TRUE(error_hit.has_value());
  EXPECT_EQ(error_hit->error, "parse error: line 3");

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.stores, 2u);
}

TEST(ResultCache, DefaultKeyIsPinned) {
  // Every disk cache in the field is keyed by this derivation.  An edit to
  // FlowOptions, walk_report_options or the RewriteStrategy numbering that
  // moves this literal orphans every existing entry: that needs a
  // deliberate schema bump (docs/CACHE_FORMAT.md), not a silent change.
  EXPECT_EQ(ResultCache::key_for_file("netlist", FlowOptions{}),
            "be4e9f58118b61590ac64fe32781b60d79944bfe1815cae77629a62e12475969");
  FlowOptions naive;
  naive.strategy = RewriteStrategy::NaiveScan;
  EXPECT_EQ(ResultCache::key_for_file("netlist", naive),
            "ff9a7ce4063c6f0503532d2b59a316ee166d9f8997d154cb994c1d077c163a5d");
}

TEST(ResultCache, KeysSeparateContentOptionsAndDomains) {
  const FlowOptions base;
  FlowOptions naive = base;
  naive.strategy = RewriteStrategy::NaiveScan;
  FlowOptions budget = base;
  budget.max_terms = 1000;
  FlowOptions threads_only = base;
  threads_only.threads = 8;

  const std::string key = ResultCache::key_for_file("netlist", base);
  EXPECT_EQ(key.size(), 64u);
  EXPECT_EQ(key, ResultCache::key_for_file("netlist", base));
  EXPECT_NE(key, ResultCache::key_for_file("netlist2", base));
  EXPECT_NE(key, ResultCache::key_for_file("netlist", naive));
  EXPECT_NE(key, ResultCache::key_for_file("netlist", budget));
  // Thread count never changes the report, so it must not change the key —
  // that is what makes 1T-cold / 8T-warm replay possible.
  EXPECT_EQ(key, ResultCache::key_for_file("netlist", threads_only));

  // Structural keys live in a different domain than byte keys, and track
  // netlist structure.
  const gf2m::Field field(Poly{4, 1, 0});
  const auto netlist = gen::generate_mastrovito(field);
  const std::string structural = ResultCache::key_for_netlist(netlist, base);
  EXPECT_EQ(structural, ResultCache::key_for_netlist(netlist, base));
  EXPECT_NE(structural,
            ResultCache::key_for_netlist(gen::generate_montgomery(field),
                                         base));
}

TEST(ResultCache, QuarantinesCorruptAndTruncatedEntries) {
  const std::string dir = fresh_dir("corrupt");
  ResultCache cache(dir);
  const FlowReport report = live_report();
  const std::string key = ResultCache::key_for_file("victim", {});
  ASSERT_TRUE(cache.store(key, report));
  const std::string path = sole_entry_path(dir);
  const std::string pristine = read_file(path);

  // Flip one payload byte: the SHA-256 digest catches it.
  std::string flipped = pristine;
  flipped[flipped.size() - 1] = static_cast<char>(~flipped.back());
  write_file(path, flipped);
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_FALSE(fs::exists(path)) << "corrupt entry must leave the hot path";
  EXPECT_FALSE(fs::is_empty(fs::path(dir) / "quarantine"));

  // Truncation (a torn write the atomic rename should normally prevent,
  // but disks lie): also a quarantined miss, at any cut point.
  for (const std::size_t keep : {std::size_t{0}, std::size_t{3},
                                 std::size_t{47}, pristine.size() / 2}) {
    write_file(path, pristine.substr(0, keep));
    EXPECT_FALSE(cache.lookup(key).has_value()) << "kept " << keep;
    EXPECT_FALSE(fs::exists(path)) << "kept " << keep;
  }

  // The cache heals: a re-store over the quarantined key serves again.
  ASSERT_TRUE(cache.store(key, report));
  EXPECT_TRUE(cache.lookup(key).has_value());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.quarantined, 5u);
  EXPECT_EQ(stats.stale, 0u);
}

TEST(ResultCache, StaleSchemaVersionIsAMissNotACrash) {
  const std::string dir = fresh_dir("stale");
  ResultCache cache(dir);
  const std::string key = ResultCache::key_for_file("stale victim", {});
  ASSERT_TRUE(cache.store(key, live_report()));
  const std::string path = sole_entry_path(dir);

  // The entry version is the u32 at bytes [4, 8) (docs/CACHE_FORMAT.md);
  // patch it to simulate an entry written by an older build.
  std::string bytes = read_file(path);
  bytes[4] = static_cast<char>(bytes[4] + 1);
  write_file(path, bytes);

  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_TRUE(fs::exists(path)) << "stale entries await overwrite, "
                                   "not quarantine";
  EXPECT_EQ(cache.stats().stale, 1u);
  EXPECT_EQ(cache.stats().quarantined, 0u);

  // store() replaces the stale entry in place.
  ASSERT_TRUE(cache.store(key, live_report()));
  EXPECT_TRUE(cache.lookup(key).has_value());
}

TEST(ResultCache, NegativeTtlExpiresOnlyAgedErrorEntries) {
  const std::string dir = fresh_dir("negative_ttl");
  ResultCache cache(dir, /*max_bytes=*/0, /*negative_ttl_seconds=*/60);
  const std::string error_key = ResultCache::key_for_file("broken input", {});
  const std::string live_key = ResultCache::key_for_file("good input", {});
  ASSERT_TRUE(cache.store(error_key, FlowReport{}, "parse error: line 3"));
  ASSERT_TRUE(cache.store(live_key, live_report()));

  // Fresh entries hit, TTL armed or not.
  ASSERT_TRUE(cache.lookup(error_key).has_value());
  ASSERT_TRUE(cache.lookup(live_key).has_value());

  // Age both entries past the TTL by backdating their mtimes — the same
  // clock lookup() consults.
  const auto aged =
      fs::file_time_type::clock::now() - std::chrono::seconds(120);
  const std::string error_path = dir + "/" + error_key + ".rpt";
  const std::string live_path = dir + "/" + live_key + ".rpt";
  fs::last_write_time(error_path, aged);
  fs::last_write_time(live_path, aged);

  // The aged diagnosis is a miss and its entry is gone; the aged success
  // report is untouched — content-addressed results never go stale.
  EXPECT_FALSE(cache.lookup(error_key).has_value());
  EXPECT_FALSE(fs::exists(error_path));
  EXPECT_TRUE(cache.lookup(live_key).has_value());
  EXPECT_TRUE(fs::exists(live_path));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.misses, 1u);

  // The miss is re-storable: a re-diagnosis (or a fixed file's report)
  // starts a fresh TTL window.
  ASSERT_TRUE(cache.store(error_key, FlowReport{}, "parse error: line 3"));
  EXPECT_TRUE(cache.lookup(error_key).has_value());
}

TEST(ResultCache, ZeroTtlKeepsErrorEntriesForever) {
  const std::string dir = fresh_dir("ttl_off");
  ResultCache cache(dir);  // default: negative entries never expire
  const std::string key = ResultCache::key_for_file("broken forever", {});
  ASSERT_TRUE(cache.store(key, FlowReport{}, "port error: q is undriven"));
  fs::last_write_time(sole_entry_path(dir),
                      fs::file_time_type::clock::now() -
                          std::chrono::hours(24 * 365));
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->error, "port error: q is undriven");
  EXPECT_EQ(cache.stats().expired, 0u);
}

TEST(ResultCache, PruneEvictsOldestDownToBudget) {
  const std::string dir = fresh_dir("prune");
  ResultCache cache(dir);
  const FlowReport report = live_report();
  std::vector<std::string> keys;
  std::uint64_t entry_size = 0;
  for (int i = 0; i < 4; ++i) {
    keys.push_back(
        ResultCache::key_for_file("entry " + std::to_string(i), {}));
    ASSERT_TRUE(cache.store(keys.back(), report));
    entry_size = fs::file_size(fs::path(dir) / (keys.back() + ".rpt"));
  }
  // Distinct, strictly increasing mtimes so "oldest" is well defined even
  // on filesystems with coarse timestamp resolution.
  const auto base =
      fs::last_write_time(fs::path(dir) / (keys.front() + ".rpt"));
  for (int i = 0; i < 4; ++i) {
    fs::last_write_time(fs::path(dir) / (keys[i] + ".rpt"),
                        base + std::chrono::seconds(i));
  }

  // Keep room for two entries: the two oldest must go.
  const auto pruned = cache.prune(2 * entry_size);
  EXPECT_EQ(pruned.entries_removed, 2u);
  EXPECT_EQ(pruned.entries_kept, 2u);
  EXPECT_FALSE(cache.lookup(keys[0]).has_value());
  EXPECT_FALSE(cache.lookup(keys[1]).has_value());
  EXPECT_TRUE(cache.lookup(keys[2]).has_value());
  EXPECT_TRUE(cache.lookup(keys[3]).has_value());

  // Budget 0 empties the cache (and sweeps the quarantine the two misses
  // above did NOT create — corrupt-free dir, so nothing extra).
  const auto emptied = cache.prune(0);
  EXPECT_EQ(emptied.entries_removed, 2u);
  EXPECT_EQ(emptied.entries_kept, 0u);
  EXPECT_FALSE(cache.lookup(keys[2]).has_value());
}

// -- Scheduler integration ---------------------------------------------------

std::vector<BatchJob> fixture_jobs(unsigned copies = 1) {
  std::vector<BatchJob> jobs;
  for (unsigned c = 0; c < copies; ++c) {
    for (const char* file :
         {"mastrovito_m8.eqn", "montgomery_m8.v", "karatsuba_m8.eqn",
          "shiftadd_m8.blif", "corrupt_gf4.eqn"}) {
      BatchJob job;
      job.name = std::string(file) + "#" + std::to_string(c);
      job.path = data_path(file);
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

TEST(ResultCacheBatch, WarmRunIsBitIdenticalAcrossThreadCounts) {
  const auto cache =
      std::make_shared<ResultCache>(fresh_dir("warm_identity"));

  // Cold: 1 worker, fresh scheduler.
  BatchOptions cold_options;
  cold_options.threads = 1;
  cold_options.result_cache = cache;
  const BatchReport cold = run_batch(fixture_jobs(), cold_options);
  EXPECT_EQ(cold.stats.disk_hits, 0u);
  EXPECT_EQ(cold.stats.disk_misses, 5u);
  EXPECT_EQ(cold.stats.disk_stores, 5u);
  EXPECT_GT(cold.stats.cones_extracted, 0u);

  // Warm: run_batch builds a NEW scheduler each call, so its in-memory
  // memo starts empty — every hit below crossed the disk, exactly like a
  // second CI process would.  1 and 8 workers must both replay the cold
  // reports bit for bit.
  for (const unsigned threads : {1u, 8u}) {
    BatchOptions warm_options;
    warm_options.threads = threads;
    warm_options.result_cache = cache;
    const BatchReport warm = run_batch(fixture_jobs(), warm_options);
    EXPECT_EQ(warm.stats.disk_hits, 5u) << threads << "T";
    EXPECT_EQ(warm.stats.cones_extracted, 0u)
        << threads << "T: a warm run must not extract";
    ASSERT_EQ(warm.results.size(), cold.results.size());
    for (std::size_t i = 0; i < warm.results.size(); ++i) {
      EXPECT_TRUE(warm.results[i].cache_hit) << threads << "T job " << i;
      EXPECT_EQ(warm.results[i].error, cold.results[i].error);
      expect_reports_equal(warm.results[i].report, cold.results[i].report,
                           "warm@" + std::to_string(threads) + "T job " +
                               std::to_string(i));
      // Stronger than semantic equality: the serialized forms — which
      // include every timing double — must match byte for byte.
      EXPECT_EQ(serialize_report(warm.results[i].report),
                serialize_report(cold.results[i].report))
          << threads << "T job " << i;
    }
  }
}

TEST(ResultCacheBatch, InMemoryJobsPersistViaStructuralKeys) {
  const auto cache = std::make_shared<ResultCache>(fresh_dir("structural"));
  const gf2m::Field field(Poly{8, 4, 3, 1, 0});

  const auto make_jobs = [&] {
    std::vector<BatchJob> jobs(2);
    jobs[0].name = "in_memory";
    jobs[0].netlist =
        std::make_shared<const nl::Netlist>(gen::generate_mastrovito(field));
    jobs[1].name = "from_file";
    jobs[1].path = data_path("mastrovito_m8.eqn");
    return jobs;
  };

  BatchOptions options;
  options.threads = 2;
  options.result_cache = cache;
  const BatchReport cold = run_batch(make_jobs(), options);
  EXPECT_EQ(cold.stats.disk_stores, 2u);

  const BatchReport warm = run_batch(make_jobs(), options);
  EXPECT_EQ(warm.stats.disk_hits, 2u);
  EXPECT_EQ(warm.stats.cones_extracted, 0u);
  for (std::size_t i = 0; i < warm.results.size(); ++i) {
    expect_reports_equal(warm.results[i].report, cold.results[i].report,
                         warm.results[i].name);
  }
}

TEST(ResultCacheBatch, DuplicatesWithinARunHitMemoryNotDisk) {
  const auto cache = std::make_shared<ResultCache>(fresh_dir("memo_first"));
  BatchOptions options;
  options.threads = 2;
  options.result_cache = cache;
  // Two copies of each fixture in one run: the duplicate must be served
  // by the in-memory layer (or in-flight dedup) — the disk sees each
  // unique netlist exactly once.
  const BatchReport report = run_batch(fixture_jobs(2), options);
  EXPECT_EQ(report.stats.cache_hits, 5u);
  EXPECT_EQ(report.stats.disk_misses, 5u);
  EXPECT_EQ(report.stats.disk_stores, 5u);
  EXPECT_EQ(cache->stats().stores, 5u);
}

TEST(ResultCacheBatch, EveryPathReturnsTheAnswerWithoutAnfs) {
  // A report is the answer: Algorithm 1's per-bit ANFs end at analysis, so
  // the standalone flow, a memo hit and a disk hit all return the same
  // answer with no ANFs, and a crypto-scale entry stays small (the ANFs
  // alone of this NIST B-163 multiplier serialize to ~1 MB).
  const gf2m::Field field(Poly{163, 7, 6, 3, 0});
  const auto netlist =
      std::make_shared<const nl::Netlist>(gen::generate_mastrovito(field));
  FlowOptions flow;
  flow.threads = 2;
  const FlowReport direct = reverse_engineer(*netlist, flow);
  ASSERT_TRUE(direct.success) << direct.summary();
  EXPECT_TRUE(direct.extraction.anfs.empty());
  EXPECT_EQ(direct.extraction.per_bit.size(), field.m());

  const auto make_jobs = [&] {
    std::vector<BatchJob> jobs(2);  // the duplicate is a memo hit
    for (BatchJob& job : jobs) {
      job.netlist = netlist;
      job.options = flow;
    }
    return jobs;
  };
  const std::string dir = fresh_dir("answer_only");
  BatchOptions options;
  options.threads = 2;
  options.result_cache = std::make_shared<ResultCache>(dir);
  const BatchReport cold = run_batch(make_jobs(), options);
  EXPECT_EQ(cold.stats.disk_stores, 1u);
  ASSERT_EQ(cold.results.size(), 2u);
  // Whichever duplicate keys first extracts; the other is the hit.
  EXPECT_NE(cold.results[0].cache_hit, cold.results[1].cache_hit);

  const BatchReport warm = run_batch(make_jobs(), options);
  EXPECT_EQ(warm.stats.disk_hits, 1u);
  EXPECT_EQ(warm.stats.cones_extracted, 0u);

  for (const BatchReport* run : {&cold, &warm}) {
    for (const BatchJobResult& result : run->results) {
      ASSERT_TRUE(result.ok) << result.error;
      EXPECT_TRUE(result.report.extraction.anfs.empty());
      expect_reports_equal(result.report, direct, "batch vs standalone");
    }
  }
  EXPECT_LE(fs::file_size(sole_entry_path(dir)), 64u * 1024u);
}

TEST(ResultCacheBatch, TwoSchedulersShareOneCacheDirConcurrently) {
  const std::string dir = fresh_dir("shared_dir");
  // Two cache objects on one directory — the filesystem is the only
  // coordination, as it would be for two CI processes.
  const auto cache_a = std::make_shared<ResultCache>(dir);
  const auto cache_b = std::make_shared<ResultCache>(dir);

  BatchOptions options_a;
  options_a.threads = 2;
  options_a.result_cache = cache_a;
  BatchOptions options_b;
  options_b.threads = 2;
  options_b.result_cache = cache_b;

  BatchScheduler scheduler_a(options_a);
  BatchScheduler scheduler_b(options_b);
  std::vector<std::future<BatchJobResult>> futures_a;
  std::vector<std::future<BatchJobResult>> futures_b;
  for (auto& job : fixture_jobs()) {
    futures_a.push_back(scheduler_a.submit(job).result);
    futures_b.push_back(scheduler_b.submit(std::move(job)).result);
  }
  scheduler_a.drain();
  scheduler_b.drain();

  // Both runs must agree job for job, whichever scheduler won each store
  // race (the loser's rename atomically replaces an identical entry).
  for (std::size_t i = 0; i < futures_a.size(); ++i) {
    const BatchJobResult a = futures_a[i].get();
    const BatchJobResult b = futures_b[i].get();
    EXPECT_EQ(a.error, b.error) << a.name;
    EXPECT_EQ(a.report.success, b.report.success) << a.name;
    EXPECT_EQ(a.report.recovery.p, b.report.recovery.p) << a.name;
  }

  // And the directory must be left fully readable: every entry intact.
  ResultCache verifier(dir);
  std::size_t entries = 0;
  for (const auto& file : fs::directory_iterator(dir)) {
    if (file.path().extension() != ".rpt") continue;
    ++entries;
    const std::string key = file.path().stem().string();
    EXPECT_TRUE(verifier.lookup(key).has_value()) << key;
  }
  EXPECT_EQ(entries, 5u);
  EXPECT_EQ(verifier.stats().quarantined, 0u);
}

TEST(ResultCacheBatch, MemoEvictionFallsBackToDisk) {
  // The bounded-memo bugfix: with memo_max_entries=1, submitting B evicts
  // A from the in-memory layer; resubmitting A must be served FROM DISK
  // (no re-extraction), proving the two layers compose — the LRU bounds
  // memory, the disk keeps the long tail.
  const auto cache = std::make_shared<ResultCache>(fresh_dir("memo_evict"));
  BatchOptions options;
  options.threads = 1;
  options.result_cache = cache;
  options.memo_max_entries = 1;
  BatchScheduler scheduler(options);

  auto jobs = fixture_jobs();
  jobs.resize(2);  // A = mastrovito_m8.eqn, B = montgomery_m8.v
  const BatchJobResult a1 = scheduler.submit(jobs[0]).result.get();
  ASSERT_TRUE(a1.ok);
  const BatchJobResult b1 = scheduler.submit(jobs[1]).result.get();
  ASSERT_TRUE(b1.ok);
  EXPECT_EQ(scheduler.stats().memo_evictions, 1u)
      << "storing B must evict A from the single-slot memo";
  const std::size_t cones_after_two = scheduler.stats().cones_extracted;

  const BatchJobResult a2 = scheduler.submit(jobs[0]).result.get();
  ASSERT_TRUE(a2.ok);
  EXPECT_TRUE(a2.cache_hit);
  EXPECT_EQ(scheduler.stats().cones_extracted, cones_after_two)
      << "the evicted entry must replay from disk, not re-extract";
  EXPECT_EQ(scheduler.stats().disk_hits, 1u);
  expect_reports_equal(a2.report, a1.report, "disk replay after eviction");

  // And the hot entry (A again, just refreshed) is a pure memory hit.
  const BatchJobResult a3 = scheduler.submit(jobs[0]).result.get();
  EXPECT_TRUE(a3.cache_hit);
  EXPECT_EQ(scheduler.stats().disk_hits, 1u)
      << "the refreshed memo entry serves the repeat without disk I/O";
}

TEST(ResultCache, StoreTimeCapAutoprunes) {
  // The cap-enforcement bugfix: a cache constructed with max_bytes must
  // prune itself when a store crosses the budget — no explicit prune()
  // call, no unbounded growth in a long-lived service.
  const std::string dir = fresh_dir("autoprune");
  const FlowReport report = live_report();
  const std::uint64_t entry_size = [&] {
    ResultCache sizer(fresh_dir("autoprune_sizer"));
    const std::string key = ResultCache::key_for_file("sizer", {});
    EXPECT_TRUE(sizer.store(key, report));
    return static_cast<std::uint64_t>(
        fs::file_size(fs::path(sizer.dir()) / (key + ".rpt")));
  }();

  ResultCache cache(dir, 2 * entry_size);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(cache.store(
        ResultCache::key_for_file("entry " + std::to_string(i), {}),
        report));
    // Distinct mtimes keep "oldest" well defined for the prune policy.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(cache.stats().autoprunes, 1u);

  std::uint64_t total = 0;
  std::size_t entries = 0;
  for (const auto& file : fs::directory_iterator(dir)) {
    if (file.path().extension() != ".rpt") continue;
    total += fs::file_size(file.path());
    ++entries;
  }
  EXPECT_LE(total, 2 * entry_size)
      << "the directory must respect the cap after the triggering store";
  EXPECT_GE(entries, 1u) << "pruning must not wipe the newest entries";

  // A reopened cache re-seeds its size tracking from the directory scan
  // and keeps enforcing the same budget.
  ResultCache reopened(dir, 2 * entry_size);
  ASSERT_TRUE(reopened.store(ResultCache::key_for_file("late", {}), report));
  EXPECT_GE(reopened.stats().autoprunes, 1u)
      << "the constructor scan must arm enforcement for the first store";
}

TEST(ResultCacheBatch, ChangedOptionsMissTheCache) {
  const auto cache = std::make_shared<ResultCache>(fresh_dir("opt_miss"));
  BatchOptions options;
  options.threads = 1;
  options.result_cache = cache;

  auto jobs = fixture_jobs();
  jobs.resize(1);  // mastrovito_m8.eqn only
  run_batch(jobs, options);

  // Same bytes, different option signature: a fresh extraction, not a hit.
  jobs[0].options.verify_with_golden = false;
  const BatchReport changed = run_batch(jobs, options);
  EXPECT_EQ(changed.stats.disk_hits, 0u);
  EXPECT_EQ(changed.stats.disk_misses, 1u);
  EXPECT_GT(changed.stats.cones_extracted, 0u);
}

TEST(ResultCache, ConstructorSweepsAbandonedTmpFiles) {
  const std::string dir = fresh_dir("ctor_tmp_sweep");
  { ResultCache create(dir); }  // lay the directory down

  // Debris a crashed writer would leave behind (write done, rename never
  // reached), plus a young tmp that could belong to a LIVE store in
  // another process, plus a real entry that must survive untouched.
  const std::string key(64, 'a');
  const fs::path stale = fs::path(dir) / (key + ".tmp.12345.1");
  const fs::path young =
      fs::path(dir) / (std::string(64, 'b') + ".tmp.12345.2");
  const fs::path entry = fs::path(dir) / (std::string(64, 'c') + ".rpt");
  write_file(stale.string(), "half-written");
  write_file(young.string(), "half-written");
  write_file(entry.string(), "not-a-report-but-not-tmp");
  fs::last_write_time(stale,
                      fs::last_write_time(stale) - std::chrono::minutes(11));

  ResultCache cache(dir);
  EXPECT_EQ(cache.stats().tmp_swept, 1u);
  EXPECT_FALSE(fs::exists(stale)) << "past the grace window: swept";
  EXPECT_TRUE(fs::exists(young)) << "inside the grace window: spared";
  EXPECT_TRUE(fs::exists(entry)) << "entries are never the sweep's business";

  // A directory with no debris sweeps nothing (the young tmp is still
  // young — this ctor runs milliseconds after the last).
  ResultCache again(dir);
  EXPECT_EQ(again.stats().tmp_swept, 0u);
}

}  // namespace
}  // namespace gfre::core
