// Quickstart: one resource-oblivious algorithm, five execution backends,
// one RunOptions change — the core workflow of this library.
//
//   $ ./quickstart [--n=65536] [--p=8] [--M=4096] [--B=64]
//
// Steps shown:
//   1. write the computation once as a program over a generic context,
//   2. run it through ro::Engine on every backend: direct sequential,
//      simulated PWS / RWS replay (the paper's machine), and real threads
//      under both steal policies,
//   3. read the unified RunReport: outputs are real and checked on every
//      backend, the sim rows carry the paper's observables, and everything
//      serializes to JSON.
#include <cstdio>
#include <vector>

#include "ro/alg/scan.h"
#include "ro/engine/engine.h"
#include "ro/util/cli.h"
#include "ro/util/table.h"

using namespace ro;
using alg::i64;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const size_t n = static_cast<size_t>(cli.get_int("n", 1 << 16));

  // 1. The program: allocation, input build, one cx.run(...).  The
  // algorithm never sees p, M or B (resource oblivious) — and never sees
  // which backend it is on either.
  std::vector<i64> result;
  auto prog = [&](auto& cx) {
    auto a = cx.template alloc<i64>(n, "input");
    for (size_t i = 0; i < n; ++i) a.raw()[i] = static_cast<i64>(i % 10);
    auto out = cx.template alloc<i64>(n, "output");
    cx.run(2 * n, [&] { alg::prefix_sums(cx, a.slice(), out.slice()); });
    result.assign(out.raw(), out.raw() + n);
  };

  // 2. One Engine, five backends.
  Engine eng;
  RunOptions opt;
  opt.sim.p = static_cast<uint32_t>(cli.get_int("p", 8));
  opt.sim.M = static_cast<uint64_t>(cli.get_int("M", 1 << 12));
  opt.sim.B = static_cast<uint32_t>(cli.get_int("B", 64));

  Table t("prefix sums, n=" + Table::num(static_cast<uint64_t>(n)) +
          " — every backend (sim machine: p=" + Table::num(opt.sim.p) +
          ", M=" + Table::num(opt.sim.M) + ", B=" + Table::num(opt.sim.B) +
          ")");
  t.header({"backend", "wall-ms", "makespan", "speedup", "cache-miss",
            "block-miss", "steals", "usurpations"});
  for (Backend b : kAllBackends) {
    opt.backend = b;  // the single change
    const JobResult jr = eng.submit({.opt = opt}, prog);
    if (!jr.ok()) {
      std::fprintf(stderr, "%s: %s\n", backend_name(b), jr.error.c_str());
      return 1;
    }
    const RunReport& r = jr.report;

    // 3. Outputs are real on every backend — verify.
    i64 run = 0;
    for (size_t i = 0; i < n; ++i) {
      run += static_cast<i64>(i % 10);
      RO_CHECK(result[i] == run);
    }
    t.row({backend_name(b), Table::num(r.wall_ms),
           r.has_sim ? Table::num(r.sim.makespan) : "-",
           r.has_baseline ? Table::num(r.sim_speedup()) + "x" : "-",
           r.has_sim ? Table::num(r.sim.cache_misses()) : "-",
           r.has_sim ? Table::num(r.sim.block_misses()) : "-",
           r.has_sim    ? Table::num(r.sim.steals())
           : r.has_pool ? Table::num(r.pool_steals)
                        : "-",
           r.has_sim ? Table::num(r.sim.usurpations()) : "-"});
    if (b == Backend::kSimPws) {
      std::printf("RunReport JSON (sim-pws):\n%s\n\n", r.to_json().c_str());
    }
  }
  t.print();
  std::printf(
      "\nThe sim rows replay one recorded trace on the paper's machine; the\n"
      "sim-pws cache misses stay near the sequential cache complexity\n"
      "Q(n, M, B) — the paper's headline property.  The par rows run the\n"
      "same program on hardware threads through the work-stealing pool.\n");
  return 0;
}
