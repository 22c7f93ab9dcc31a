// E10 — Lemma 4.6: at most p−1 usurpers/semi-usurpers per pair of
// successive collections.  We count actual kernel takeovers (Def 4.1) per
// computation and compare with (p−1)·(#priority levels), a generous reading
// of the per-collection bound summed over the computation.
#include "common.h"

using namespace ro;
using namespace ro::bench;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  Table t("E10: usurpations under PWS (M=4096, B=32)");
  t.header({"algorithm", "p", "usurpations", "(p-1)*levels", "ratio"});

  auto emit = [&](const char* name, const TaskGraph& g) {
    const GraphStats st = g.stats();
    for (uint32_t p : {2u, 4u, 8u, 16u, 32u}) {
      const SimConfig c = cfg(p, 1 << 12, 32);
      const Metrics m = measure(g, Backend::kSimPws, c, false).sim;
      const uint64_t bound =
          uint64_t{p - 1} * (st.max_depth + 1);
      t.row({name, Table::num(p), Table::num(m.usurpations()),
             Table::num(bound),
             Table::num(static_cast<double>(m.usurpations()) / bound)});
    }
  };

  emit("M-Sum", record(wl::msum(size_t{1} << 15)));
  emit("PS", record(wl::ps(size_t{1} << 14)));
  emit("FFT", record(wl::fft(size_t{1} << 12)));
  emit("Strassen", record(wl::strassen(32)));
  t.print();
  if (cli.has("csv")) t.write_csv("usurpation.csv");
  return 0;
}
