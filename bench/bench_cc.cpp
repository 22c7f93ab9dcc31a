// E8 — §3.2/§4.6 CC: connected components ≈ log n stages of list-ranking-
// style work.  Reports cost growth vs input and the ratio CC/LR at matched
// sizes (paper: work, span and misses all pick up ~a log n factor).
#include <cmath>

#include "common.h"

using namespace ro;
using namespace ro::bench;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const size_t nmax = static_cast<size_t>(cli.get_int("n", 512));

  Table t("E8: Connected components under PWS (M=4096, B=32, m=2n edges)");
  t.header({"n", "p", "W", "T_inf", "Q", "pws-cache", "blk-miss",
            "speedup", "W_cc/W_lr"});
  for (size_t n = nmax / 4; n <= nmax; n *= 2) {
    TaskGraph g = record(wl::cc(n, 2 * n, sort_from_cli(cli)));
    TaskGraph lr = record(wl::lr(n, true, sort_from_cli(cli)));
    const GraphStats st = g.stats();
    const GraphStats lrst = lr.stats();
    const SimConfig c1 = cfg(1, 1 << 12, 32);
    const Metrics seq = measure(g, Backend::kSeq, c1, false).sim;
    for (uint32_t p : {4u, 16u}) {
      const SimConfig c = cfg(p, 1 << 12, 32);
      const Metrics m = measure(g, Backend::kSimPws, c, false).sim;
      t.row({Table::num(static_cast<uint64_t>(n)), Table::num(p),
             Table::num(st.work), Table::num(st.span),
             Table::num(seq.cache_misses()), Table::num(m.cache_misses()),
             Table::num(m.block_misses()),
             fmt_speedup(seq.makespan, m.makespan),
             Table::num(static_cast<double>(st.work) / lrst.work)});
    }
  }
  t.print();
  if (cli.has("csv")) t.write_csv("cc.csv");
  std::printf(
      "\nShape check: W_cc/W_lr grows ~log n (the paper's CC = log n LR\n"
      "stages relationship).\n");
  return 0;
}
