// Workload registry tests (engine/workloads.h): every row records the
// exact program it replaced (frozen fingerprints), runs on every backend
// family without aborting, and is documented in docs/serve.md.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "ro/engine/workloads.h"
#include "test_helpers.h"

namespace ro {
namespace {

/// A row's recorded structure and one sim-pws replay of it, frozen.
struct Fingerprint {
  const char* name;
  uint64_t n;
  uint64_t work, span, accesses, activations;
  uint64_t cache_misses, block_misses, makespan;
};

// Taken before the registry merge from the builder each row replaced:
// the six wire rows (msum, ps, sort, sort-spms, counters-*) from the
// engine's own registry, every other row from the bench builders at
// their defaults (cc with extra = n).  Seed 0; replay on
// fingerprint_machine().
constexpr Fingerprint kFingerprints[] = {
    {"msum", 1024, 6140, 52, 1025, 2047, 61, 1, 3018},
    {"ps", 1024, 16372, 124, 6142, 4093, 284, 18, 8343},
    {"ma", 1024, 8187, 53, 3072, 2047, 141, 5, 4229},
    {"mt", 1024, 7163, 52, 2048, 2047, 102, 8, 3513},
    {"rm2bi", 1024, 7163, 52, 2048, 2047, 137, 7, 3856},
    {"bi2rm-direct", 1024, 7163, 52, 2048, 2047, 138, 297, 6186},
    {"bi2rm-gap", 1024, 14326, 104, 4096, 4093, 286, 103, 8341},
    {"bi2rm-fft", 1024, 17334, 122, 6144, 4477, 212, 32, 8275},
    {"strassen", 256, 51152, 299, 23972, 10873, 358, 86, 20083},
    {"mm", 256, 26401, 501, 15616, 4315, 267, 85, 12724},
    {"fft", 1024, 170146, 916, 53248, 25461, 1145, 389, 62365},
    {"sort", 1024, 37349, 634, 31124, 2491, 344, 48, 14225},
    {"sort-spms", 1024, 33506, 634, 26641, 2747, 448, 113, 15765},
    {"lr", 256, 456335, 30309, 288340, 67199, 15254, 13295, 565729},
    {"lr-nogap", 256, 456335, 30309, 288340, 67199, 15089, 13870, 568403},
    {"cc", 128, 312996, 26978, 196221, 46711, 10834, 7619, 398767},
    {"counters-packed", 8, 291, 47, 256, 15, 12, 121, 1422},
    {"counters-padded", 8, 291, 47, 256, 15, 18, 0, 556},
};

SimConfig fingerprint_machine() {
  SimConfig c;
  c.p = 4;
  c.M = 1 << 12;
  c.B = 32;
  return c;
}

TEST(Workloads, EveryRowMatchesItsParentFingerprint) {
  std::set<std::string> covered;
  for (const Fingerprint& f : kFingerprints) {
    SCOPED_TRACE(f.name);
    ASSERT_EQ(workload_error(f.name, f.n), "");
    const TaskGraph rec =
        testing::engine().record(make_workload(f.name, f.n, 0));
    EXPECT_EQ(rec.stats().work, f.work);
    EXPECT_EQ(rec.stats().span, f.span);
    EXPECT_EQ(rec.stats().accesses, f.accesses);
    EXPECT_EQ(rec.stats().activations, f.activations);
    const Metrics m = testing::engine()
                          .replay(rec, Backend::kSimPws, fingerprint_machine(),
                                  false)
                          .sim;
    EXPECT_EQ(m.cache_misses(), f.cache_misses);
    EXPECT_EQ(m.block_misses(), f.block_misses);
    EXPECT_EQ(m.makespan, f.makespan);
    covered.insert(f.name);
  }
  const std::vector<std::string>& names = workload_names();
  EXPECT_EQ(covered, std::set<std::string>(names.begin(), names.end()));
}

TEST(Graph, RecordedStatsMatchAnalyze) {
  // The recorder's GraphStats against analyze(), the oracle that reads
  // the finished graph back: in memory, streamed, padded and recorded
  // into a non-zero shard, on every registry row at its fingerprint n.
  Engine& eng = testing::engine();
  std::set<std::string> covered;
  for (const Fingerprint& f : kFingerprints) {
    SCOPED_TRACE(f.name);
    const AnyProg prog = make_workload(f.name, f.n, 0);
    const TaskGraph mem = eng.record(prog);
    const TaskGraph str = eng.record_stream(prog, testing::tiny_stream(2));
    const TaskGraph pad = eng.record(prog, /*padded=*/true);
    const TaskGraph sh = eng.record(prog, false, 4096, /*shard=*/5);
    ASSERT_TRUE(str.streaming());
    for (const TaskGraph* g : {&mem, &str, &pad, &sh}) {
      ASSERT_TRUE(g->recorded_stats.has_value());
      EXPECT_EQ(*g->recorded_stats, g->analyze());
    }
    EXPECT_EQ(*str.recorded_stats, *mem.recorded_stats);
    EXPECT_EQ(*sh.recorded_stats, *mem.recorded_stats);
    covered.insert(f.name);
  }
  EXPECT_EQ(covered.size(), workload_rows().size());
}

TEST(Workloads, EveryRowRunsOnEveryBackendFamily) {
  for (const WorkloadRow& row : workload_rows()) {
    // 64 is legal on every row: side 8 on the matrix rows.
    for (const uint64_t n : {row.min_n, uint64_t{64}}) {
      SCOPED_TRACE(std::string(row.name) + " n=" + std::to_string(n));
      JobSpec spec;
      spec.workload = row.name;
      spec.n = n;
      spec.opt.threads = 2;
      for (const Backend b :
           {Backend::kSeq, Backend::kSimPws, Backend::kParPriority}) {
        spec.opt.backend = b;
        const JobResult jr = testing::engine().submit(spec);
        EXPECT_TRUE(jr.ok()) << backend_name(b) << ": " << jr.error;
      }
      spec.opt.backend = Backend::kSimPws;
      const JobResult a = testing::engine().submit(spec);
      const JobResult b = testing::engine().submit(spec);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(a.report.sim, b.report.sim);
    }
  }
}

TEST(Workloads, DocsTableListsExactlyTheRegistry) {
  const auto doc = std::filesystem::path(__FILE__).parent_path().parent_path() /
                   "docs" / "serve.md";
  std::ifstream in(doc);
  ASSERT_TRUE(in) << doc;
  // The rows of the "## Workloads" table start with "| `name` |".
  std::set<std::string> documented;
  bool in_section = false;
  for (std::string line; std::getline(in, line);) {
    if (line.starts_with("## ")) in_section = line == "## Workloads";
    if (in_section && line.starts_with("| `"))
      documented.insert(line.substr(3, line.find('`', 3) - 3));
  }
  const std::vector<std::string>& names = workload_names();
  EXPECT_EQ(documented, std::set<std::string>(names.begin(), names.end()));
}

}  // namespace
}  // namespace ro
