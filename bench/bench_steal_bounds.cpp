// E9 — Observation 4.3 + Corollary 4.1: under PWS, at most p−1 tasks of any
// priority are stolen, and total steal attempts are O(p·D′).
//
// Sweeps p over a single BP computation and a Type-2 HBP computation and
// prints max steals per priority, total steals and attempts vs the bounds.
#include "common.h"

using namespace ro;
using namespace ro::bench;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  Table t("E9: PWS steal discipline (M=4096, B=32)");
  t.header({"algorithm", "p", "D'", "max-steals@prio", "p-1", "steals",
            "attempts", "2pD'"});

  auto emit = [&](const char* name, const TaskGraph& g) {
    const GraphStats st = g.stats();
    const uint64_t dprime = st.max_depth + 1;
    for (uint32_t p : {2u, 4u, 8u, 16u, 32u, 64u}) {
      const SimConfig c = cfg(p, 1 << 12, 32);
      const Metrics m = measure(g, Backend::kSimPws, c, false).sim;
      t.row({name, Table::num(p), Table::num(dprime),
             Table::num(static_cast<uint64_t>(m.max_steals_at_one_priority())),
             Table::num(static_cast<uint64_t>(p - 1)),
             Table::num(m.steals()), Table::num(m.steal_attempts()),
             Table::num(2 * uint64_t{p} * dprime)});
    }
  };

  emit("M-Sum (single BP)", record(wl::msum(size_t{1} << 15)));
  emit("MT-BI (single BP)", record(wl::mt(128)));
  emit("Depth-n-MM (HBP)", record(wl::mm(32)));
  t.print();
  if (cli.has("csv")) t.write_csv("steal_bounds.csv");
  std::printf(
      "\nPass criterion: max-steals@prio <= p-1 for the single-BP rows\n"
      "(Obs 4.3); HBP rows may exceed it by the number of same-depth\n"
      "collections.  attempts should track the 2pD' column (Cor 4.1).\n");
  return 0;
}
