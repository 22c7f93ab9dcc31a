// E4 — Lemmas 4.8 / 4.9: block-miss excess of BP computations under PWS.
//
//   * L(r) = O(1) (M-Sum, MT in BI): excess O(p·B·log B) — independent of n.
//   * L(r) = √r (Direct BI→RM): excess O(B·√(p·r)) — grows with input.
//
// The table reports data-side coherence misses against both budgets; the
// O(1)-sharing algorithms should track the first column, the √r one the
// second.
#include <cmath>

#include "common.h"

using namespace ro;
using namespace ro::bench;

namespace {

uint64_t data_block_misses(const Metrics& m) {
  uint64_t t = 0;
  for (const auto& c : m.core) t += c.miss[0][2];
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  Table t("E4: BP block-miss excess under PWS (M=8192)");
  t.header({"algorithm", "n(words)", "p", "B", "data-blk-miss", "pBlogB",
            "B*sqrt(pr)"});

  auto rowfor = [&](const char* name, const TaskGraph& g, uint64_t words) {
    for (uint32_t p : {4u, 8u, 16u}) {
      for (uint32_t B : {16u, 64u}) {
        const SimConfig c = cfg(p, 1 << 13, B);
        const Metrics m = measure(g, Backend::kSimPws, c, false).sim;
        const double b1 = static_cast<double>(p) * B * log2_ceil(B);
        const double b2 =
            B * std::sqrt(static_cast<double>(p) * words);
        t.row({name, Table::num(words), Table::num(p), Table::num(B),
               Table::num(data_block_misses(m)), Table::num(b1),
               Table::num(b2)});
      }
    }
  };

  const uint32_t side = static_cast<uint32_t>(cli.get_int("side", 128));
  {
    TaskGraph g = record(wl::msum(size_t{1} << 15));
    rowfor("M-Sum (L=1)", g, size_t{1} << 15);
  }
  {
    TaskGraph g = record(wl::mt(side));
    rowfor("MT-BI (L=1)", g, 2ull * side * side);
  }
  {
    TaskGraph g = record(wl::bi2rm_direct(side));
    rowfor("BI->RM direct (L=sqrt r)", g, 2ull * side * side);
  }
  t.print();
  if (cli.has("csv")) t.write_csv("bp_block_excess.csv");
  return 0;
}
