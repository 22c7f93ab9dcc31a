// E18 — NUMA-aware pool bench: the two locality-preferring backends
// (par-numa-random / par-numa-priority) against the flat pools, swept over
// forced group counts.  Two properties are RO_CHECK'd, not just printed:
//
//   * parity:   every backend produces bit-identical outputs to the seq
//               golden run on every workload (the pool only reorders
//               race-free work, it must never change results);
//   * locality: on a forced 2-group topology both NUMA backends steal
//               locally more often than remotely (the victim preference
//               actually holds, aggregated over all workloads and reps).
//
//   $ ./bench_numa [--n=32768] [--threads=8] [--groups=1,2,4] [--reps=3]
//                  [--serial-below=64] [--numa-escape=0.0625] [--numa-pin]
//                  [--out=BENCH_numa.json]
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <vector>

#include "common.h"
#include "ro/alg/graphgen.h"
#include "ro/alg/listrank.h"
#include "ro/alg/scan.h"

using namespace ro;
using namespace ro::bench;
using alg::i64;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const size_t n = static_cast<size_t>(cli.get_int("n", 1 << 15));
  const unsigned threads = static_cast<unsigned>(cli.get_int("threads", 8));
  const int reps = static_cast<int>(cli.get_int("reps", 3));
  RunOptions opt;
  opt.threads = threads;
  opt.serial_below = static_cast<uint64_t>(cli.get_int("serial-below", 64));
  numa_from_cli(cli, opt);

  const std::vector<uint32_t> group_counts =
      u32_list_from_cli(cli, "groups", "1,2,4");
  for (uint32_t g : group_counts)
    RO_CHECK_MSG(g >= 1, "--groups entries must be >= 1");

  // Workload factories: make(out) returns a generic program (any context)
  // writing its result into `out`, so the same closure runs the seq golden
  // pass and every parallel backend.
  auto make_msum = [n](std::vector<i64>& out) {
    return [n, &out](auto& cx) {
      auto a = cx.template alloc<i64>(n, "a");
      for (size_t i = 0; i < n; ++i)
        a.raw()[i] = static_cast<i64>(i % 13) - 6;
      auto o = cx.template alloc<i64>(1, "o");
      cx.run(n, [&] { alg::msum(cx, a.slice(), o.slice()); });
      out.assign(o.raw(), o.raw() + 1);
    };
  };
  auto make_spms = [n](std::vector<i64>& out) {
    const size_t m = n / 4;
    return [m, &out](auto& cx) {
      auto a = cx.template alloc<i64>(m, "a");
      Rng rng(42);
      for (size_t i = 0; i < m; ++i)
        a.raw()[i] = static_cast<i64>(rng.next() >> 1);
      auto o = cx.template alloc<i64>(m, "o");
      cx.run(2 * m, [&] { alg::spms(cx, a.slice(), o.slice()); });
      out.assign(o.raw(), o.raw() + m);
    };
  };
  auto make_lr = [n](std::vector<i64>& out) {
    const size_t m = n / 8;
    const auto succ = alg::random_list(m, m * 7 + 3);
    return [m, succ, &out](auto& cx) {
      auto s = cx.template alloc<i64>(m, "succ");
      std::copy(succ.begin(), succ.end(), s.raw());
      auto r = cx.template alloc<i64>(m, "rank");
      cx.run(2 * m, [&] { alg::list_rank(cx, s.slice(), r.slice()); });
      out.assign(r.raw(), r.raw() + m);
    };
  };

  const Backend kPar[] = {Backend::kParRandom, Backend::kParPriority,
                          Backend::kParNumaRandom, Backend::kParNumaPriority};

  std::vector<RunReport> reports;
  Table t("NUMA pool: steal locality and wall-clock vs the flat backends");
  t.header({"workload", "backend", "groups", "wall-ms", "steals", "local",
            "remote", "failed"});

  uint64_t local_at2[2] = {0, 0};   // [par-numa-random, par-numa-priority]
  uint64_t remote_at2[2] = {0, 0};

  auto run_family = [&](const char* label, auto make) {
    std::vector<i64> golden;
    RunOptions seq;
    seq.backend = Backend::kSeq;
    const JobResult gj = engine().submit({.opt = seq}, make(golden));
    RO_CHECK_MSG(gj.ok(), gj.error.c_str());
    RO_CHECK_MSG(!golden.empty(), "golden run produced no output");
    for (Backend b : kPar) {
      const bool numa = backend_is_numa(b);
      for (uint32_t g : group_counts) {
        if (!numa && g != group_counts.front()) continue;  // flat: one row
        RunOptions o = opt;
        o.backend = b;
        o.numa_groups = g;
        o.label = std::string(label) +
                  (numa ? "/g" + std::to_string(g) : std::string());
        RunReport last;
        for (int rep = 0; rep < reps; ++rep) {
          std::vector<i64> out;
          const JobResult jr = engine().submit({.opt = o}, make(out));
          RO_CHECK_MSG(jr.ok(), jr.error.c_str());
          last = jr.report;
          RO_CHECK_MSG(out == golden,
                       "parallel backend diverged from the seq golden run");
          if (numa && g == 2) {
            const int slot = b == Backend::kParNumaRandom ? 0 : 1;
            local_at2[slot] += last.pool_local_steals;
            remote_at2[slot] += last.pool_remote_steals;
          }
        }
        reports.push_back(last);
        t.row({label, backend_name(b), std::to_string(last.pool_groups),
               Table::num(last.wall_ms), Table::num(last.pool_steals),
               Table::num(last.pool_local_steals),
               Table::num(last.pool_remote_steals),
               Table::num(last.pool_failed_steals)});
      }
    }
  };

  run_family("msum", make_msum);
  run_family("spms", make_spms);
  run_family("listrank", make_lr);
  t.print();

  // Acceptance: with a forced 2-group topology the locality preference must
  // be visible in the counters for both NUMA flavors.
  if (std::find(group_counts.begin(), group_counts.end(), 2u) !=
          group_counts.end() &&
      threads >= 4) {
    for (int slot = 0; slot < 2; ++slot) {
      const Backend b =
          slot == 0 ? Backend::kParNumaRandom : Backend::kParNumaPriority;
      // OS scheduling decides how many steals a single run sees; on a
      // loaded host a short sweep can end with too few to split.  Top up
      // with extra runs on a wall-clock budget before judging.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (local_at2[slot] <= remote_at2[slot] &&
             std::chrono::steady_clock::now() < deadline) {
        RunOptions o = opt;
        o.backend = b;
        o.numa_groups = 2;
        std::vector<i64> out;
        const JobResult r_jr = engine().submit({.opt = o}, make_msum(out));
        RO_CHECK_MSG(r_jr.ok(), r_jr.error.c_str());
        const RunReport& r = r_jr.report;
        local_at2[slot] += r.pool_local_steals;
        remote_at2[slot] += r.pool_remote_steals;
      }
      const char* name = slot == 0 ? "par-numa-random" : "par-numa-priority";
      std::printf("steal locality @2 groups, %s: local=%llu remote=%llu\n",
                  name, static_cast<unsigned long long>(local_at2[slot]),
                  static_cast<unsigned long long>(remote_at2[slot]));
      RO_CHECK_MSG(local_at2[slot] > remote_at2[slot],
                   "NUMA backend stole remotely more often than locally");
    }
  }

  const std::string out = cli.get_str("out", "BENCH_numa.json");
  std::ofstream f(out);
  f << reports_to_json(reports);
  if (!f) {
    std::fprintf(stderr, "error: could not write %s\n", out.c_str());
    return 1;
  }
  std::printf("\nwrote %zu RunReports to %s\n", reports.size(), out.c_str());
  return 0;
}
