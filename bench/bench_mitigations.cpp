// E16 — §5 mechanisms: the partitioned cache hierarchy (§5.2) and the
// delayed-release block-sharing mitigation (§5.1).
//
//   (a) hierarchy: run the suite with/without a shared L2 (partitioned
//       M2/p per core) and report L2 hit counts and makespan change.
//   (b) delayed release: sweep the write-hold window on workloads with
//       real false sharing and report block-miss / transfer reduction.
#include "common.h"

using namespace ro;
using namespace ro::bench;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  {
    Table t("E16a: partitioned L2 (§5.2) — p=8, L1=1024 words, B=32");
    t.header({"algorithm", "M2", "L2-hits", "cache-miss", "makespan",
              "vs-flat"});
    auto emit = [&](const char* name, const TaskGraph& g) {
      SimConfig c = cfg(8, 1 << 10, 32);
      const Metrics flat = measure(g, Backend::kSimPws, c, false).sim;
      t.row({name, "0", Table::num(flat.l2_hits()),
             Table::num(flat.cache_misses()), Table::num(flat.makespan),
             "1.00x"});
      for (uint64_t M2 : {uint64_t{1} << 14, uint64_t{1} << 17}) {
        c.M2 = M2;
        const Metrics m = measure(g, Backend::kSimPws, c, false).sim;
        t.row({name, Table::num(M2), Table::num(m.l2_hits()),
               Table::num(m.cache_misses()), Table::num(m.makespan),
               fmt_speedup(flat.makespan, m.makespan)});
      }
    };
    emit("FFT 16K", record(wl::fft(size_t{1} << 14)));
    emit("Sort 8K", record(wl::sort(size_t{1} << 13, sort_from_cli(cli))));
    emit("Strassen 32", record(wl::strassen(32)));
    t.print();
    if (cli.has("csv")) t.write_csv("hierarchy.csv");
  }
  {
    Table t("E16b: delayed release (§5.1) — p=8, M=8192, B=48");
    t.header({"algorithm", "write-hold", "blk-miss", "max-transfers",
              "hold-wait", "makespan"});
    auto emit = [&](const char* name, const TaskGraph& g) {
      for (uint32_t hold : {0u, 64u, 256u}) {
        SimConfig c = cfg(8, 1 << 13, 48);
        c.write_hold = hold;
        const Metrics m = measure(g, Backend::kSimPws, c, false).sim;
        t.row({name, Table::num(hold), Table::num(m.block_misses()),
               Table::num(m.max_block_transfers), Table::num(m.hold_waits()),
               Table::num(m.makespan)});
      }
    };
    emit("BI->RM direct 128", record(wl::bi2rm_direct(128)));
    emit("LR 2K (no gap)", record(wl::lr(size_t{1} << 11, /*gapping=*/false,
                                         sort_from_cli(cli))));
    t.print();
    if (cli.has("csv")) t.write_csv("mitigations.csv");
  }
  return 0;
}
