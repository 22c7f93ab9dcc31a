// E12 — §3.2 gapping ablation.
//
//   (a) BI→RM: direct vs gapped destination.  The gapped writer tasks above
//       the B·log²B threshold share no destination blocks; measured as
//       data-side coherence misses under PWS on misaligned block sizes.
//   (b) LR: gapping on/off — contracted levels stop producing block misses
//       once the level fits n/B² (Lemma 4.14/4.15 shape).
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
  {
    Table t("E12a: BI->RM conversions — block misses under PWS (M=8192)");
    t.header({"variant", "side", "p", "B", "data-blk-miss", "cache-miss",
              "makespan"});
    const uint32_t side = static_cast<uint32_t>(cli.get_int("side", 128));
    TaskGraph direct = record(wl::bi2rm_direct(side));
    TaskGraph gapped = record(wl::bi2rm_gap(side));
    TaskGraph forfft = record(wl::bi2rm_fft(side));
    for (uint32_t p : {8u, 16u}) {
      // B = 24: misaligned with the power-of-two tiling (the regime block
      // sharing arises in; aligned power-of-two B makes direct sharing
      // vanish by accident of alignment).
      for (uint32_t B : {24u, 48u}) {
        const SimConfig c = cfg(p, 1 << 13, B);
        for (auto& [name, g] :
             {std::pair<const char*, TaskGraph&>{"direct", direct},
              {"gap-RM", gapped},
              {"for-FFT", forfft}}) {
          const Metrics m = measure(g, Backend::kSimPws, c, false).sim;
          t.row({name, Table::num(side), Table::num(p), Table::num(B),
                 Table::num(data_block_misses(m)),
                 Table::num(m.cache_misses()), Table::num(m.makespan)});
        }
      }
    }
    t.print();
    if (cli.has("csv")) t.write_csv("gapping_conv.csv");
  }
  {
    Table t("E12b: list ranking — gapping ablation (M=4096, B=32)");
    t.header({"n", "gapping", "p", "data-blk-miss", "total-blk-miss",
              "makespan"});
    const size_t n = static_cast<size_t>(cli.get_int("n", 1 << 12));
    for (const bool gap : {true, false}) {
      TaskGraph g = record(wl::lr(n, gap, sort_from_cli(cli)));
      for (uint32_t p : {8u, 16u}) {
        const SimConfig c = cfg(p, 1 << 12, 32);
        const Metrics m = measure(g, Backend::kSimPws, c, false).sim;
        t.row({Table::num(static_cast<uint64_t>(n)), gap ? "on" : "off",
               Table::num(p), Table::num(data_block_misses(m)),
               Table::num(m.block_misses()), Table::num(m.makespan)});
      }
    }
    t.print();
    if (cli.has("csv")) t.write_csv("gapping_lr.csv");
  }
  return 0;
}
