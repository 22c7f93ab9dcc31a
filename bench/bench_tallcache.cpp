// E14 — tall-cache requirements Γ(B) (Lemma 4.12): sweep M at fixed B and
// find where the PWS excess (cache + block) becomes dominated by the
// sequential cache complexity Q.  The paper's Γ(B) varies from B²log B to
// B⁴ per algorithm; the observable is the M/B² threshold where
// (excess / Q) drops below 1.
#include "common.h"

using namespace ro;
using namespace ro::bench;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  Table t("E14: tall-cache sweep under PWS (p=8, B=16)");
  t.header({"algorithm", "M", "M/B^2", "Q", "cache-excess", "blk-miss",
            "(excess+blk)/Q"});

  const uint32_t B = 16;
  auto emit = [&](const char* name, const TaskGraph& g) {
    for (uint64_t M :
         {uint64_t{B * B} / 2, uint64_t{B * B}, uint64_t{4 * B * B},
          uint64_t{16 * B * B}}) {
      const SimConfig c = cfg(8, M, B);
      const RunReport r = measure(g, Backend::kSimPws, c);
      const uint64_t block = r.sim.block_misses();
      const double rel =
          r.q_seq ? static_cast<double>(r.cache_excess + block) / r.q_seq
                  : 0.0;
      t.row({name, Table::num(M),
             Table::num(static_cast<double>(M) / (B * B)),
             Table::num(r.q_seq), Table::num(r.cache_excess),
             Table::num(block), Table::num(rel)});
    }
  };

  emit("M-Sum 64K", record(wl::msum(size_t{1} << 16)));
  emit("MT-BI 128", record(wl::mt(128)));
  emit("Strassen 32", record(wl::strassen(32)));
  emit("FFT 16K", record(wl::fft(size_t{1} << 14)));
  t.print();
  if (cli.has("csv")) t.write_csv("tallcache.csv");
  std::printf(
      "\nShape check: the relative overhead column falls with M and is small\n"
      "once M clears the algorithm's Γ(B) (between B²logB and B⁴).\n");
  return 0;
}
