// E13 — the headline comparison: PWS vs RWS across the algorithm suite.
//
// The paper's claim: PWS achieves lower caching overhead due to steals than
// the RWS bounds of [18, 6, 13], with deterministic schedules.  Observables:
// steals, steal attempts (RWS pays random failed probes), cache+block
// misses, makespan.  RWS rows are averaged over 3 seeds.
#include "common.h"

using namespace ro;
using namespace ro::bench;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  Table t("E13: PWS vs RWS (p=8, M=4096, B=32)");
  t.header({"algorithm", "sched", "steals", "attempts", "cache-miss",
            "blk-miss", "makespan", "speedup-vs-seq"});

  auto emit = [&](const char* name, const TaskGraph& g) {
    const SimConfig c = cfg(8, 1 << 12, 32);
    const RunReport pws = measure(g, Backend::kSimPws, c);
    t.row({name, "PWS", Table::num(pws.sim.steals()),
           Table::num(pws.sim.steal_attempts()),
           Table::num(pws.sim.cache_misses()),
           Table::num(pws.sim.block_misses()), Table::num(pws.sim.makespan),
           fmt_speedup(pws.seq_makespan, pws.sim.makespan)});
    uint64_t steals = 0, attempts = 0, cache = 0, block = 0, mk = 0;
    const int kSeeds = 3;
    for (int s = 0; s < kSeeds; ++s) {
      SimConfig cr = c;
      cr.seed = 1000 + s;
      const Metrics rws = measure(g, Backend::kSimRws, cr, false).sim;
      steals += rws.steals();
      attempts += rws.steal_attempts();
      cache += rws.cache_misses();
      block += rws.block_misses();
      mk += rws.makespan;
    }
    t.row({name, "RWS*", Table::num(steals / kSeeds),
           Table::num(attempts / kSeeds), Table::num(cache / kSeeds),
           Table::num(block / kSeeds), Table::num(mk / kSeeds),
           fmt_speedup(pws.seq_makespan, mk / kSeeds)});
  };

  emit("M-Sum 64K", record(wl::msum(size_t{1} << 16)));
  emit("PS 32K", record(wl::ps(size_t{1} << 15)));
  emit("MT-BI 128", record(wl::mt(128)));
  emit("RM->BI 128", record(wl::rm2bi(128)));
  emit("BI->RM gap 128", record(wl::bi2rm_gap(128)));
  emit("Strassen 32", record(wl::strassen(32)));
  emit("Depth-n-MM 32", record(wl::mm(32)));
  emit("FFT 16K", record(wl::fft(size_t{1} << 14)));
  emit("Sort 8K", record(wl::sort(size_t{1} << 13, sort_from_cli(cli))));
  emit("LR 4K", record(wl::lr(size_t{1} << 12, true, sort_from_cli(cli))));
  t.print();
  if (cli.has("csv")) t.write_csv("pws_vs_rws.csv");
  std::printf("\n(RWS* = mean of 3 seeds.)\n");
  return 0;
}
