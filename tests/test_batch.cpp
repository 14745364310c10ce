// Differential batch-invariance suite: a mixed manifest pushed through the
// batch engine — at 1, 2 and 8 shared workers, on the Packed engine and
// the NaiveScan oracle — must produce FlowReports semantically identical
// to running each job alone through core::reverse_engineer.  Plus memoization
// semantics (same netlist twice costs one extraction), per-job failure
// isolation, and manifest parsing.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/flow.hpp"
#include "gen/karatsuba.hpp"
#include "gen/mastrovito.hpp"
#include "gen/montgomery_gate.hpp"
#include "gen/shift_add.hpp"
#include "gen/squarer.hpp"
#include "gf2m/field.hpp"
#include "gf2poly/irreducible.hpp"
#include "helpers.hpp"
#include "netlist/io_eqn.hpp"
#include "util/prng.hpp"

#ifndef GFRE_SOURCE_DIR
#define GFRE_SOURCE_DIR "."
#endif

namespace gfre::core {
namespace {

using gf2::Poly;

std::string data_path(const std::string& file) {
  return std::string(GFRE_SOURCE_DIR) + "/data/" + file;
}

using test::expect_reports_equal;

/// The mixed workload: all five generator families in memory, frozen
/// fixtures from disk in every format, a scrambled-output bus, a
/// non-multiplier squarer interface, a corrupt netlist and a missing file.
std::vector<BatchJob> mixed_manifest(RewriteStrategy strategy) {
  std::vector<BatchJob> jobs;
  const auto add_memory = [&](std::string name, nl::Netlist netlist) {
    BatchJob job;
    job.name = std::move(name);
    job.netlist = std::make_shared<const nl::Netlist>(std::move(netlist));
    job.options.strategy = strategy;
    jobs.push_back(std::move(job));
  };
  const auto add_file = [&](const std::string& file) {
    BatchJob job;
    job.path = data_path(file);
    job.options.strategy = strategy;
    jobs.push_back(std::move(job));
  };

  for (unsigned m : {5u, 8u}) {
    const gf2m::Field field(gf2::default_irreducible(m));
    const std::string suffix = "_m" + std::to_string(m);
    add_memory("mastrovito" + suffix, gen::generate_mastrovito(field));
    add_memory("montgomery" + suffix, gen::generate_montgomery(field));
    add_memory("karatsuba" + suffix, gen::generate_karatsuba(field));
    add_memory("shiftadd" + suffix, gen::generate_shift_add(field));
    // The squarer has a one-operand interface: port resolution must fail
    // it identically in batch and standalone runs.
    add_memory("squarer" + suffix, gen::generate_squarer(field));
  }
  {
    const gf2m::Field field(Poly{8, 4, 3, 1, 0});
    add_memory("scrambled_mastrovito_m8",
               test::scramble_outputs(gen::generate_mastrovito(field),
                                      {3, 1, 4, 7, 6, 0, 2, 5}));
  }
  add_file("mastrovito_m8.eqn");
  add_file("montgomery_m8.blif");
  add_file("karatsuba_m8.v");
  add_file("shiftadd_m8.eqn");
  add_file("mastrovito_syn_m8.eqn");
  add_file("mastrovito_mapped_m8.blif");
  add_file("handwritten_gf4_aoi.eqn");
  add_file("corrupt_gf4.eqn");
  add_file("montgomery_m16.eqn");
  add_file("karatsuba_m16.v");
  // Duplicate submission: must come back cache-identical.
  add_file("mastrovito_m8.eqn");
  jobs.back().name = "duplicate_mastrovito_m8";
  // Unreadable path: a load error that must not poison the batch.
  {
    BatchJob job;
    job.name = "missing_file";
    job.path = data_path("does_not_exist.eqn");
    job.options.strategy = strategy;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// Standalone baseline for one job (the scheduler-free sequential flow,
/// test::sequential_flow); nullopt for jobs that cannot load.
std::optional<FlowReport> baseline_report(const BatchJob& job) {
  nl::Netlist netlist("x");
  if (job.netlist) {
    netlist = *job.netlist;
  } else {
    try {
      netlist = load_netlist_file(job.path);
    } catch (const Error&) {
      return std::nullopt;
    }
  }
  return test::sequential_flow(netlist, job.options);
}

class BatchInvariance
    : public ::testing::TestWithParam<std::tuple<RewriteStrategy, unsigned>> {
};

TEST_P(BatchInvariance, MatchesSequentialRunFlow) {
  const RewriteStrategy strategy = std::get<0>(GetParam());
  const unsigned threads = std::get<1>(GetParam());

  const auto jobs = mixed_manifest(strategy);
  ASSERT_GE(jobs.size(), 20u) << "the issue demands a >=20 job manifest";

  std::vector<std::optional<FlowReport>> baselines;
  baselines.reserve(jobs.size());
  for (const auto& job : jobs) baselines.push_back(baseline_report(job));

  BatchOptions options;
  options.threads = threads;
  const auto batch = run_batch(jobs, options);

  ASSERT_EQ(batch.results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& result = batch.results[i];
    const std::string label = result.name + " @" + std::to_string(threads) +
                              "T/" + to_string(strategy);
    if (!baselines[i].has_value()) {
      EXPECT_FALSE(result.error.empty()) << label;
      EXPECT_FALSE(result.ok) << label;
      continue;
    }
    EXPECT_TRUE(result.error.empty()) << label << ": " << result.error;
    expect_reports_equal(result.report, *baselines[i], label);
    EXPECT_EQ(result.ok, baselines[i]->success) << label;
  }

  // Failure isolation: the corrupt and missing jobs fail, everything that
  // is a real multiplier still succeeds in the same batch.
  std::size_t ok_count = 0;
  for (const auto& result : batch.results) ok_count += result.ok ? 1 : 0;
  EXPECT_GE(ok_count, 16u);
  EXPECT_EQ(batch.stats.jobs, jobs.size());
  EXPECT_EQ(batch.stats.load_errors, 1u);
  EXPECT_GE(batch.stats.cache_hits, 1u) << "duplicate file must dedup";
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, BatchInvariance,
    ::testing::Combine(::testing::Values(RewriteStrategy::Packed,
                                         RewriteStrategy::NaiveScan),
                       ::testing::Values(1u, 2u, 8u)),
    [](const ::testing::TestParamInfo<std::tuple<RewriteStrategy, unsigned>>&
           info) {
      return std::string(to_string(std::get<0>(info.param))) + "_" +
             std::to_string(std::get<1>(info.param)) + "threads";
    });

// -- Memoization semantics --------------------------------------------------

TEST(BatchCache, SameFileTwiceCostsOneExtraction) {
  std::vector<BatchJob> jobs(2);
  jobs[0].path = data_path("mastrovito_m8.eqn");
  jobs[1].path = data_path("mastrovito_m8.eqn");
  jobs[1].name = "dup";

  BatchOptions options;
  options.threads = 4;
  const auto batch = run_batch(jobs, options);
  EXPECT_EQ(batch.stats.cones_extracted, 8u)
      << "the duplicate must be served from the cache, not re-extracted";
  EXPECT_EQ(batch.stats.cache_hits, 1u);
  int hits = 0;
  for (const auto& result : batch.results) {
    EXPECT_TRUE(result.ok);
    hits += result.cache_hit ? 1 : 0;
  }
  EXPECT_EQ(hits, 1);
  expect_reports_equal(batch.results[1].report, batch.results[0].report,
                       "cached duplicate");
}

TEST(BatchCache, IdenticalInMemoryNetlistsDedup) {
  const gf2m::Field field(Poly{8, 4, 3, 1, 0});
  const auto netlist = gen::generate_montgomery(field);
  std::vector<BatchJob> jobs(2);
  jobs[0].name = "first";
  jobs[0].netlist = std::make_shared<const nl::Netlist>(netlist);
  jobs[1].name = "second";
  jobs[1].netlist = std::make_shared<const nl::Netlist>(netlist);

  BatchOptions options;
  options.threads = 2;
  const auto batch = run_batch(jobs, options);
  EXPECT_EQ(batch.stats.cones_extracted, 8u);
  EXPECT_EQ(batch.stats.cache_hits, 1u);
  EXPECT_TRUE(batch.results[0].ok);
  EXPECT_TRUE(batch.results[1].ok);
}

TEST(BatchCache, DifferentOptionsDoNotShareResults) {
  // Same netlist, different option signatures: verification on vs off
  // changes the report, so the cache must keep them apart.
  std::vector<BatchJob> jobs(2);
  jobs[0].path = data_path("mastrovito_m8.eqn");
  jobs[1].path = data_path("mastrovito_m8.eqn");
  jobs[1].options.verify_with_golden = false;

  BatchOptions options;
  options.threads = 2;
  const auto batch = run_batch(jobs, options);
  EXPECT_EQ(batch.stats.cache_hits, 0u);
  EXPECT_EQ(batch.stats.cones_extracted, 16u);
  EXPECT_EQ(batch.results[0].report.verification.detail,
            "all 8 output ANFs match the golden model");
  EXPECT_EQ(batch.results[1].report.verification.detail, "skipped");
}

TEST(BatchCache, MemoizeOffExtractsEveryJob) {
  std::vector<BatchJob> jobs(2);
  jobs[0].path = data_path("mastrovito_m8.eqn");
  jobs[1].path = data_path("mastrovito_m8.eqn");

  BatchOptions options;
  options.threads = 2;
  options.memoize = false;
  const auto batch = run_batch(jobs, options);
  EXPECT_EQ(batch.stats.cache_hits, 0u);
  EXPECT_EQ(batch.stats.cones_extracted, 16u);
}

// -- Failure isolation ------------------------------------------------------

TEST(BatchIsolation, TermBudgetBlowupFailsOnlyThatJob) {
  // A tiny per-bit budget aborts the first job's extraction; its neighbor
  // (same circuit, default budget) must still verify cleanly.
  const gf2m::Field field(Poly{8, 4, 3, 1, 0});
  std::vector<BatchJob> jobs(2);
  jobs[0].name = "strangled";
  jobs[0].netlist =
      std::make_shared<const nl::Netlist>(gen::generate_mastrovito(field));
  jobs[0].options.max_terms = 3;
  jobs[1].name = "healthy";
  jobs[1].netlist =
      std::make_shared<const nl::Netlist>(gen::generate_mastrovito(field));

  BatchOptions options;
  options.threads = 2;
  const auto batch = run_batch(jobs, options);
  EXPECT_FALSE(batch.results[0].ok);
  EXPECT_NE(batch.results[0].report.recovery.diagnosis.find("term budget"),
            std::string::npos)
      << batch.results[0].report.recovery.diagnosis;
  EXPECT_TRUE(batch.results[1].ok) << batch.results[1].report.summary();

  // And identically to a standalone run of the same strangled job.
  FlowOptions strangled;
  strangled.max_terms = 3;
  const auto alone = reverse_engineer(gen::generate_mastrovito(field),
                                      strangled);
  expect_reports_equal(batch.results[0].report, alone, "strangled");
}

TEST(BatchIsolation, EmptyBatchIsANoOp) {
  BatchOptions options;
  options.threads = 4;
  const auto batch = run_batch({}, options);
  EXPECT_TRUE(batch.results.empty());
  EXPECT_TRUE(batch.all_ok());
  EXPECT_EQ(batch.stats.jobs, 0u);
}

// -- Content hashing --------------------------------------------------------

TEST(BatchHash, StructuralHashSeesGateChanges) {
  const gf2m::Field field(Poly{4, 1, 0});
  const auto a = gen::generate_mastrovito(field);
  const auto b = gen::generate_mastrovito(field);
  EXPECT_EQ(netlist_content_hash(a), netlist_content_hash(b));
  const auto other = gen::generate_karatsuba(field);
  EXPECT_NE(netlist_content_hash(a), netlist_content_hash(other));
}

TEST(BatchHash, BothKeyWordsParticipate) {
  // The scheduler memoizes on the full 128-bit pair; the public hash must
  // expose the same domain (it used to return only the low word, so a
  // test could pass while half the real key was garbage).  Both streams
  // start from non-zero offset bases and must independently see a gate
  // change.
  const gf2m::Field field(Poly{4, 1, 0});
  const NetlistHash mast = netlist_content_hash(gen::generate_mastrovito(field));
  const NetlistHash kara = netlist_content_hash(gen::generate_karatsuba(field));
  EXPECT_NE(mast.a, 0u);
  EXPECT_NE(mast.b, 0u);
  EXPECT_NE(mast.a, kara.a) << "FNV stream blind to a different netlist";
  EXPECT_NE(mast.b, kara.b) << "alt stream blind to a different netlist";
  EXPECT_NE(mast.a, mast.b) << "streams must be independent";
}

// -- Manifest parsing -------------------------------------------------------

TEST(BatchManifest, ParsesJobsWithOverrides) {
  std::string dir = ::testing::TempDir();
  while (!dir.empty() && dir.back() == '/') dir.pop_back();
  const std::string path = dir + "/jobs.manifest";
  {
    std::ofstream out(path);
    out << "# comment line\n"
        << "\n"
        << "mastrovito_m8.eqn\n"
        << "sub/montgomery.blif priority=low verify=0 name=monty\n"
        << "/abs/karatsuba.v ports=x,y,p max_terms=1234 infer=1\n";
  }
  const auto jobs = parse_manifest(path);
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].path, dir + "/mastrovito_m8.eqn");
  EXPECT_EQ(jobs[1].path, dir + "/sub/montgomery.blif");
  EXPECT_EQ(jobs[1].name, "monty");
  EXPECT_EQ(jobs[1].priority, JobPriority::Low);
  EXPECT_FALSE(jobs[1].options.verify_with_golden);
  EXPECT_EQ(jobs[2].path, "/abs/karatsuba.v");
  EXPECT_EQ(jobs[2].options.a_base, "x");
  EXPECT_EQ(jobs[2].options.b_base, "y");
  EXPECT_EQ(jobs[2].options.z_base, "p");
  EXPECT_EQ(jobs[2].options.max_terms, 1234u);
  EXPECT_TRUE(jobs[2].options.infer_ports);
  std::remove(path.c_str());
}

TEST(BatchManifest, RejectsBadLinesWithLocation) {
  const std::string path = ::testing::TempDir() + "/bad.manifest";
  {
    std::ofstream out(path);
    out << "good.eqn\n"
        << "other.eqn priority=warp\n";
  }
  try {
    parse_manifest(path);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("warp"), std::string::npos);
  }
  {
    // The rewriting engine is not a user choice, so strategy= is an
    // unknown key like any other.
    std::ofstream out(path);
    out << "good.eqn strategy=naive\n";
  }
  try {
    parse_manifest(path);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_NE(std::string(e.what()).find("unknown manifest key 'strategy'"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
  EXPECT_THROW(parse_manifest("/no/such/manifest"), Error);
}

TEST(BatchManifest, RejectsExtraPortCommas) {
  // 'ports=a,b,z,extra' used to fold ",extra" into z_base — a job that
  // silently analyzes the wrong output word.
  const std::string path = ::testing::TempDir() + "/ports.manifest";
  for (const char* spec : {"ports=a,b,z,extra", "ports=a,b,z,"}) {
    {
      std::ofstream out(path);
      out << "good.eqn " << spec << "\n";
    }
    try {
      parse_manifest(path);
      FAIL() << "expected ParseError for '" << spec << "'";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), 1) << spec;
      EXPECT_NE(std::string(e.what()).find("ports"), std::string::npos)
          << e.what();
    }
  }
  {
    // The exact three-port form still parses.
    std::ofstream out(path);
    out << "good.eqn ports=x,y,p\n";
  }
  const auto jobs = parse_manifest(path);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].options.z_base, "p");
  std::remove(path.c_str());
}

TEST(BatchManifest, RejectsDuplicateKeys) {
  // "deadline_ms=1 deadline_ms=1000" used to let the LAST value win
  // silently — the job ran under whichever number was typed second.
  const std::string path = ::testing::TempDir() + "/dupkey.manifest";
  for (const char* line : {"good.eqn deadline_ms=1 deadline_ms=1000",
                           "good.eqn name=a name=b",
                           "good.eqn verify=1 verify=1"}) {
    {
      std::ofstream out(path);
      out << line << "\n";
    }
    try {
      parse_manifest(path);
      FAIL() << "expected ParseError for '" << line << "'";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), 1) << line;
      EXPECT_NE(std::string(e.what()).find("duplicate manifest key"),
                std::string::npos)
          << e.what();
    }
  }
  {
    // Distinct keys — including values that merely REPEAT another key's
    // text — still parse.
    std::ofstream out(path);
    out << "good.eqn name=deadline_ms deadline_ms=5\n";
  }
  const auto jobs = parse_manifest(path);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].name, "deadline_ms");
  EXPECT_EQ(jobs[0].deadline_ms, 5u);
  std::remove(path.c_str());
}

TEST(BatchManifest, ParsesCrlfTerminatedLines) {
  // A manifest written on Windows ends every line in \r\n; no token (path,
  // name, port base) may come back with a stray '\r' attached.
  std::string dir = ::testing::TempDir();
  while (!dir.empty() && dir.back() == '/') dir.pop_back();
  const std::string path = dir + "/crlf.manifest";
  {
    std::ofstream out(path, std::ios::binary);
    out << "# comment\r\n"
        << "\r\n"
        << "mastrovito_m8.eqn\r\n"
        << "monty.blif name=monty ports=x,y,p\r\n";
  }
  const auto jobs = parse_manifest(path);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].path, dir + "/mastrovito_m8.eqn");
  EXPECT_EQ(jobs[1].name, "monty");
  EXPECT_EQ(jobs[1].options.z_base, "p");
  for (const auto& job : jobs) {
    EXPECT_EQ(job.path.find('\r'), std::string::npos) << job.path;
    EXPECT_EQ(job.name.find('\r'), std::string::npos) << job.name;
  }
  std::remove(path.c_str());
}

TEST(BatchManifest, SingleLineParserStreams) {
  // The streaming building block gfre_batch feeds: blank/comment lines are
  // nullopt, real lines are jobs, relative paths resolve against base_dir.
  FlowOptions defaults;
  defaults.max_terms = 77;
  EXPECT_FALSE(parse_manifest_line("", 1, "m", "/base", defaults).has_value());
  EXPECT_FALSE(
      parse_manifest_line("  # note", 2, "m", "/base", defaults).has_value());
  const auto job =
      parse_manifest_line("x.eqn verify=0", 3, "m", "/base", defaults);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->path, "/base/x.eqn");
  EXPECT_FALSE(job->options.verify_with_golden);
  EXPECT_EQ(job->options.max_terms, 77u) << "defaults must seed each line";
  EXPECT_THROW(parse_manifest_line("verify=0", 4, "m", "/base", defaults),
               ParseError);
}

TEST(BatchManifest, ParsesDeadlineAndPriority) {
  FlowOptions defaults;
  const auto job = parse_manifest_line(
      "x.eqn deadline_ms=250 priority=high", 1, "m", "/base", defaults);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->deadline_ms, 250u);
  EXPECT_EQ(job->priority, JobPriority::High);

  const auto plain = parse_manifest_line("x.eqn", 2, "m", "/base", defaults);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->deadline_ms, 0u) << "no deadline by default";
  EXPECT_EQ(plain->priority, JobPriority::Normal);

  for (const char* prio : {"low", "normal", "high"}) {
    const auto j = parse_manifest_line(std::string("x.eqn priority=") + prio,
                                       3, "m", "/base", defaults);
    ASSERT_TRUE(j.has_value()) << prio;
    EXPECT_EQ(to_string(j->priority), std::string(prio)) << prio;
  }

  // Numbers are whole plain decimals.  stoull would wrap -1 into a
  // ~585-million-year deadline, read "1e6" as a 1-term budget and "5s"
  // as 5 ms, and drop "abc" from "12abc"; overflow must name the key too.
  for (const char* key : {"deadline_ms", "max_terms"}) {
    for (const char* value : {"-1", "", "+5", "1e6", "5s", "12abc",
                              "0x10", "18446744073709551616"}) {
      const std::string line = std::string("x.eqn ") + key + "=" + value;
      try {
        parse_manifest_line(line, 4, "m", "/base", defaults);
        FAIL() << "expected ParseError for '" << line << "'";
      } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
            << e.what();
      }
    }
  }
  const auto big = parse_manifest_line(
      "x.eqn max_terms=18446744073709551615", 5, "m", "/base", defaults);
  ASSERT_TRUE(big.has_value());
  EXPECT_EQ(big->options.max_terms, 18446744073709551615u);
  try {
    parse_manifest_line("x.eqn priority=urgent", 6, "m", "/base", defaults);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("urgent"), std::string::npos)
        << e.what();
  }
}

TEST(BatchManifest, PriorityNamesRoundTrip) {
  for (const JobPriority p :
       {JobPriority::High, JobPriority::Normal, JobPriority::Low}) {
    const auto back = priority_from_name(to_string(p));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
  }
  EXPECT_EQ(priority_from_name("HIGH"), JobPriority::High)
      << "names are case-insensitive";
  EXPECT_FALSE(priority_from_name("urgent").has_value());
  EXPECT_FALSE(priority_from_name("").has_value());
}

// -- Bounded queue through run_batch ----------------------------------------

TEST(BatchAdmission, BoundedQueueMatchesUnboundedResults) {
  // Backpressure must change pacing only: the same manifest through a
  // max_queued=2 engine produces the same reports as the unbounded run,
  // and the queue high-water mark respects the cap.
  const auto jobs = mixed_manifest(RewriteStrategy::Packed);

  BatchOptions unbounded;
  unbounded.threads = 2;
  const auto reference = run_batch(jobs, unbounded);

  BatchOptions bounded;
  bounded.threads = 2;
  bounded.max_queued = 2;
  const auto batch = run_batch(jobs, bounded);

  ASSERT_EQ(batch.results.size(), reference.results.size());
  for (std::size_t i = 0; i < batch.results.size(); ++i) {
    const auto& got = batch.results[i];
    const auto& want = reference.results[i];
    EXPECT_EQ(got.ok, want.ok) << got.name;
    EXPECT_EQ(got.error.empty(), want.error.empty()) << got.name;
    if (got.error.empty() && want.error.empty()) {
      expect_reports_equal(got.report, want.report, got.name + " bounded");
    }
  }
  EXPECT_EQ(batch.stats.jobs, jobs.size());
  EXPECT_EQ(batch.stats.rejected, 0u)
      << "run_batch submits with blocking admission, never rejecting";
  EXPECT_LE(batch.stats.queue_peak, 2u);
  EXPECT_GE(reference.stats.queue_peak, batch.stats.queue_peak);
}

TEST(BatchManifest, RejectsSilentJobDrops) {
  const std::string path = ::testing::TempDir() + "/dropped.manifest";
  {
    // Options but no path: without an error this job would silently
    // vanish from the batch.
    std::ofstream out(path);
    out << "name=ghost verify=0\n";
  }
  EXPECT_THROW(parse_manifest(path), ParseError);
  {
    // stoull would wrap -1 into an unlimited budget.
    std::ofstream out(path);
    out << "good.eqn max_terms=-1\n";
  }
  EXPECT_THROW(parse_manifest(path), ParseError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gfre::core
