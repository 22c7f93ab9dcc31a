// Where a trace job's host time goes: the two perfbench jobs (hbp-sort:
// sort-spms n=2^16 in memory; bp-scan-stream: ps n=2^18 streamed in
// segments of 2^15 records through a window of 4), both on p=8, M=2^12,
// B=32, split into the phases a run job executes — record, the PWS walk
// and the p=1 baseline walk — each with its wall time, user and system
// CPU time and minor page faults (getrusage, whole process; every phase
// runs on the calling thread).  Medians over --jobs jobs; hbp-sort cycles
// through seeds 0..3 as perfbench does.
//
// --analyze=1 adds a TaskGraph::analyze() pass between record and the
// walks, as trace jobs ran before the recorder computed GraphStats; it
// uses only record_graph, analyze and simulate, so the same file builds
// against an older tree for a before/after table (docs/perf.md).
//
//   $ ./bench_phases [--jobs=5] [--analyze=0]
#include <sys/resource.h>

#include "common.h"

using namespace ro;
using namespace ro::bench;

namespace {

struct Usage {
  double wall_ms = 0, user_ms = 0, sys_ms = 0, minflt = 0;
};

double ms_of(const timeval& t) { return t.tv_sec * 1e3 + t.tv_usec / 1e3; }

/// Runs `f` and returns what it cost the process.
template <class F>
Usage measure_phase(F&& f) {
  rusage r0{}, r1{};
  getrusage(RUSAGE_SELF, &r0);
  const auto t0 = std::chrono::steady_clock::now();
  f();
  const auto t1 = std::chrono::steady_clock::now();
  getrusage(RUSAGE_SELF, &r1);
  return Usage{std::chrono::duration<double, std::milli>(t1 - t0).count(),
               ms_of(r1.ru_utime) - ms_of(r0.ru_utime),
               ms_of(r1.ru_stime) - ms_of(r0.ru_stime),
               static_cast<double>(r1.ru_minflt - r0.ru_minflt)};
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int jobs = static_cast<int>(cli.get_int("jobs", 5));
  const bool analyze = cli.get_int("analyze", 0) != 0;
  RO_CHECK_MSG(jobs >= 1, "--jobs must be >= 1");
  const SimConfig sim = cfg(8, 1 << 12, 32);
  StreamOptions stream;
  stream.segment_tasks = 1 << 15;
  stream.max_resident_segments = 4;

  const char* phases[] = {"record", "analyze", "PWS walk", "p=1 walk"};
  for (const bool bp : {false, true}) {
    std::vector<Usage> use[4];
    uint64_t loads = 0;
    for (int j = 0; j < jobs; ++j) {
      const AnyProg prog = bp ? make_workload("ps", 1 << 18, 0)
                              : make_workload("sort-spms", 1 << 16, j % 4);
      TaskGraph g;
      use[0].push_back(measure_phase([&] {
        g = detail::record_graph(prog, bp ? &stream : nullptr, false, 4096,
                                 0);
      }));
      use[1].push_back(measure_phase([&] {
        if (analyze) (void)g.analyze();
      }));
      use[2].push_back(
          measure_phase([&] { (void)simulate(g, SchedKind::kPws, sim); }));
      use[3].push_back(
          measure_phase([&] { (void)simulate(g, SchedKind::kSeq, sim); }));
      if (bp) loads = g.streams[0].store->stats().segment_loads;
    }
    Table t(bp ? "bp-scan-stream: ps n=2^18, streamed, p=8 M=2^12 B=32"
               : "hbp-sort: sort-spms n=2^16, p=8 M=2^12 B=32");
    t.header({"phase", "wall ms", "user ms", "sys ms", "minor faults"});
    for (int k = 0; k < 4; ++k) {
      std::vector<double> w, u, s, f;
      for (const Usage& x : use[k]) {
        w.push_back(x.wall_ms);
        u.push_back(x.user_ms);
        s.push_back(x.sys_ms);
        f.push_back(x.minflt);
      }
      if (k == 1 && !analyze) {
        t.row({phases[k], "-", "-", "-", "-"});
        continue;
      }
      t.row({phases[k], Table::num(median(w)), Table::num(median(u)),
             Table::num(median(s)), Table::num(median(f))});
    }
    t.print();
    if (bp) std::printf("spilled-segment reloads per job: %llu\n\n",
                        static_cast<unsigned long long>(loads));
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::printf("process peak RSS: %.1f MiB\n", ru.ru_maxrss / 1024.0);
  return 0;
}
