// E3 — Lemma 4.1: cache-miss excess of Type-2 HBP computations under PWS
// for the three recursion shapes the paper analyzes:
//   (i)   c=1, f=O(√r)           -> BI-RM-for-FFT   : O(p M/B s*(n,M))
//   (ii)  c=2, s(n)=√n           -> FFT             : O(p M/B log n / log M)
//   (iii) c=2, s(n)=n/4          -> Depth-n-MM      : O(p[√n M/B + ...])
#include "common.h"

using namespace ro;
using namespace ro::bench;

namespace {

void sweep(Table& t, const char* name, const TaskGraph& g,
           uint64_t input_words) {
  for (uint32_t p : {2u, 4u, 8u, 16u}) {
    const SimConfig c = cfg(p, 1 << 12, 32);
    const RunReport r = measure(g, Backend::kSimPws, c);
    t.row({name, Table::num(input_words), Table::num(p), Table::num(r.q_seq),
           Table::num(r.sim.cache_misses()), Table::num(r.cache_excess),
           Table::num(static_cast<double>(r.cache_excess) /
                      (static_cast<double>(p) * c.M / c.B)),
           fmt_speedup(r.seq_makespan, r.sim.makespan)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  Table t("E3: Type-2 HBP cache-miss excess under PWS (M=4096, B=32)");
  t.header({"algorithm(case)", "n", "p", "Q", "PWS-cache", "excess",
            "excess/(pM/B)", "speedup"});

  const uint32_t side = static_cast<uint32_t>(cli.get_int("side", 128));
  {
    TaskGraph g = record(wl::bi2rm_fft(side));
    sweep(t, "BI-RM-for-FFT (c=1)", g, 2ull * side * side);
  }
  {
    const size_t n = size_t{1} << 14;
    TaskGraph g = record(wl::fft(n));
    sweep(t, "FFT (c=2, s=sqrt n)", g, 4 * n);
  }
  {
    const uint32_t n = 32;
    TaskGraph g = record(wl::mm(n));
    sweep(t, "Depth-n-MM (c=2, s=n/4)", g, 3ull * n * n);
  }
  t.print();
  if (cli.has("csv")) t.write_csv("hbp_cache_excess.csv");
  std::printf(
      "\nShape check: excess/(pM/B) stays bounded as p grows within each\n"
      "algorithm; the constant differs per case per Lemma 4.1.\n");
  return 0;
}
