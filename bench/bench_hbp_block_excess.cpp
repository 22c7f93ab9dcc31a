// E5 — Lemma 4.2: block-miss excess of Type-2 HBP computations under PWS
// for the three recursion shapes:
//   (i)   c=1          (BI-RM-for-FFT) : O(p·B·log B·s*(n))
//   (ii)  c=2, s=√n    (FFT)           : O(p·B·log n·log log B)
//   (iii) c=2, s=n/4   (Depth-n-MM)    : O(p·B·√n)
//
// Reported: total coherence misses (data + stack) against each budget.
#include <cmath>

#include "common.h"

using namespace ro;
using namespace ro::bench;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  Table t("E5: HBP block-miss excess under PWS (M=8192, B=32)");
  t.header({"algorithm(case)", "n", "p", "blk-miss", "budget", "ratio"});

  const uint32_t B = 32;
  auto emit = [&](const char* name, const TaskGraph& g, double budget_base,
                  uint64_t n) {
    for (uint32_t p : {2u, 4u, 8u, 16u}) {
      const SimConfig c = cfg(p, 1 << 13, B);
      const Metrics m = measure(g, Backend::kSimPws, c, false).sim;
      const double budget = budget_base * p;
      t.row({name, Table::num(n), Table::num(p),
             Table::num(m.block_misses()), Table::num(budget),
             Table::num(m.block_misses() / budget)});
    }
  };

  {
    const uint32_t side = 128;
    const uint64_t n = 2ull * side * side;
    TaskGraph g = record(wl::bi2rm_fft(side));
    // s*(n) for s(n)=sqrt n is log log n.
    const double sstar = std::log2(std::log2(static_cast<double>(n)));
    emit("BI-RM-for-FFT (c=1)", g, B * log2_ceil(B) * sstar, n);
  }
  {
    const size_t n = size_t{1} << 14;
    TaskGraph g = record(wl::fft(n));
    emit("FFT (c=2, s=sqrt n)", g,
         B * std::log2(static_cast<double>(n)) *
             std::log2(static_cast<double>(log2_ceil(B))),
         n);
  }
  {
    const uint32_t side = 32;
    const uint64_t n = 3ull * side * side;
    TaskGraph g = record(wl::mm(side));
    emit("Depth-n-MM (c=2, s=n/4)", g,
         B * std::sqrt(static_cast<double>(n)), n);
  }
  t.print();
  if (cli.has("csv")) t.write_csv("hbp_block_excess.csv");
  std::printf(
      "\nShape check: ratio stays O(1) within each algorithm as p grows.\n");
  return 0;
}
