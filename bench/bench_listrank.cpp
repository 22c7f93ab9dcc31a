// E7 — §4.6, Cor 4.4 / Lemma 4.14–4.15 / Thm 4.1: list-ranking costs.
//
// Reports Q, PWS cache misses, block misses and speedup for LR across sizes
// and core counts, with gapping on and off.  Expected shapes: cache cost ~
// sort-dominated; gapping cuts block misses in the contracted levels; near-
// linear simulated speedup for n >> Mp (Theorem 4.1).
#include "common.h"

using namespace ro;
using namespace ro::bench;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const size_t nmax = static_cast<size_t>(cli.get_int("n", 1 << 12));

  Table t("E7: List ranking under PWS (M=4096, B=32)");
  t.header({"n", "gapping", "p", "Q", "pws-cache", "blk-miss", "steals",
            "speedup"});
  for (size_t n = nmax / 4; n <= nmax; n *= 2) {
    for (const bool gap : {true, false}) {
      TaskGraph g = record(wl::lr(n, gap, sort_from_cli(cli)));
      for (uint32_t p : {4u, 16u}) {
        const SimConfig c = cfg(p, 1 << 12, 32);
        const RunReport r = measure(g, Backend::kSimPws, c);
        t.row({Table::num(static_cast<uint64_t>(n)), gap ? "on" : "off",
               Table::num(p), Table::num(r.q_seq),
               Table::num(r.sim.cache_misses()),
               Table::num(r.sim.block_misses()), Table::num(r.sim.steals()),
               fmt_speedup(r.seq_makespan, r.sim.makespan)});
      }
    }
  }
  t.print();
  if (cli.has("csv")) t.write_csv("listrank.csv");
  return 0;
}
