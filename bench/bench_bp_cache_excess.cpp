// E2 — Lemma 4.4 / Corollaries 4.2–4.3: cache-miss excess of a BP
// computation under PWS is O(Q + p·M/B) — zero excess regime when n >= Mp.
//
// Sweeps p and M for M-Sum (f(r)=O(1)) and reports the measured excess next
// to the p·M/B budget.  Shape to verify: excess / (p·M/B) stays O(1) and
// the excess vanishes relative to Q as n/Mp grows.
#include "common.h"

using namespace ro;
using namespace ro::bench;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const size_t n = static_cast<size_t>(cli.get_int("n", 1 << 16));
  TaskGraph g = record(wl::msum(n));

  Table t("E2: BP cache-miss excess under PWS (M-Sum, n=" +
          Table::num(static_cast<uint64_t>(n)) + ", B=32)");
  t.header({"p", "M", "n/(Mp)", "Q", "PWS-cache", "excess", "pM/B",
            "excess/(pM/B)"});
  for (uint32_t p : {2u, 4u, 8u, 16u, 32u}) {
    for (uint64_t M : {uint64_t{1} << 10, uint64_t{1} << 12,
                       uint64_t{1} << 14}) {
      const SimConfig c = cfg(p, M, 32);
      const RunReport r = measure(g, Backend::kSimPws, c);
      const double budget = static_cast<double>(p) * M / 32;
      t.row({Table::num(p), Table::num(M),
             Table::num(static_cast<double>(n) / (M * p)),
             Table::num(r.q_seq), Table::num(r.sim.cache_misses()),
             Table::num(r.cache_excess), Table::num(budget),
             Table::num(static_cast<double>(r.cache_excess) / budget)});
    }
  }
  t.print();
  if (cli.has("csv")) t.write_csv("bp_cache_excess.csv");
  return 0;
}
