// E6 — Lemma 4.12 (i)–(vii): end-to-end simulated running times under PWS
// for the paper's Type-1/2 HBP algorithm suite, with both cache and block
// misses accounted.  The lemma's claim, observable here: makespan ≈
// (W + b·Q)/p + s_P·T∞ — near-linear speedup with bounded overhead once
// the input exceeds Mp.
#include "common.h"

using namespace ro;
using namespace ro::bench;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  Table t("E6: Lemma 4.12 — simulated runtimes under PWS (M=4096, B=32, b=32)");
  t.header({"algorithm", "case", "p", "seq-time", "pws-time", "speedup",
            "cache-miss", "blk-miss", "steals"});

  auto emit = [&](const char* name, const char* lcase, const TaskGraph& g) {
    for (uint32_t p : {4u, 16u}) {
      const SimConfig c = cfg(p, 1 << 12, 32);
      const RunReport r = measure(g, Backend::kSimPws, c);
      t.row({name, lcase, Table::num(p), Table::num(r.seq_makespan),
             Table::num(r.sim.makespan),
             fmt_speedup(r.seq_makespan, r.sim.makespan),
             Table::num(r.sim.cache_misses()),
             Table::num(r.sim.block_misses()), Table::num(r.sim.steals())});
    }
  };

  emit("Scans (M-Sum)", "(i)", record(wl::msum(size_t{1} << 16)));
  emit("Scans (PS)", "(i)", record(wl::ps(size_t{1} << 15)));
  emit("MT (BI)", "(ii)", record(wl::mt(128)));
  emit("RM to BI", "(ii)", record(wl::rm2bi(128)));
  emit("Strassen (BI)", "(iii)", record(wl::strassen(32)));
  emit("Depth-n-MM (BI)", "(iv)", record(wl::mm(32)));
  emit("BI-RM (gap RM)", "(v)", record(wl::bi2rm_gap(128)));
  emit("BI-RM for FFT", "(vi)", record(wl::bi2rm_fft(128)));
  emit("FFT", "(vii)", record(wl::fft(size_t{1} << 14)));
  t.print();
  if (cli.has("csv")) t.write_csv("lemma412.csv");
  return 0;
}
