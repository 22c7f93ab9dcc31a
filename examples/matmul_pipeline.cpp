// A full matrix pipeline in the paper's intended composition: the input
// arrives row-major, is converted to bit-interleaved, multiplied with
// Strassen (all-BI, O(1) block sharing), and converted back with the gapped
// BI→RM conversion — then validated against the naive product.  Recorded
// once through the Engine, replayed under both schedulers.
//
//   $ ./matmul_pipeline [--side=64] [--p=8]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "ro/alg/layout.h"
#include "ro/alg/rm_bi.h"
#include "ro/alg/strassen.h"
#include "ro/engine/engine.h"
#include "ro/util/cli.h"
#include "ro/util/rng.h"
#include "ro/util/table.h"

using namespace ro;
using alg::i64;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const uint32_t n = static_cast<uint32_t>(cli.get_int("side", 64));
  const uint32_t p = static_cast<uint32_t>(cli.get_int("p", 8));
  RO_CHECK(is_pow2(n));
  const size_t m = static_cast<size_t>(n) * n;

  // Row-major inputs.
  std::vector<i64> a_rm(m), b_rm(m);
  Rng rng(99);
  for (size_t i = 0; i < m; ++i) {
    a_rm[i] = static_cast<i64>(rng.next_below(19)) - 9;
    b_rm[i] = static_cast<i64>(rng.next_below(19)) - 9;
  }

  Engine eng;
  std::vector<i64> c_out;
  const TaskGraph rec = eng.record([&](auto& cx) {
    auto a = cx.template alloc<i64>(m, "A.rm");
    auto b = cx.template alloc<i64>(m, "B.rm");
    std::copy(a_rm.begin(), a_rm.end(), a.raw());
    std::copy(b_rm.begin(), b_rm.end(), b.raw());
    auto abi = cx.template alloc<i64>(m, "A.bi");
    auto bbi = cx.template alloc<i64>(m, "B.bi");
    auto cbi = cx.template alloc<i64>(m, "C.bi");
    auto c_rm = cx.template alloc<i64>(m, "C.rm");
    cx.run(8 * m, [&] {
      alg::rm_to_bi(cx, a.slice(), abi.slice(), n);
      alg::rm_to_bi(cx, b.slice(), bbi.slice(), n);
      alg::strassen_bi(cx, abi.slice(), bbi.slice(), cbi.slice(), n, 4);
      alg::bi_to_rm_gap(cx, cbi.slice(), c_rm.slice(), n);
    });
    c_out.assign(c_rm.raw(), c_rm.raw() + m);
  });

  // Validate against the naive product.
  size_t bad = 0;
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      i64 want = 0;
      for (uint32_t k = 0; k < n; ++k) {
        want += a_rm[alg::rm_index(n, i, k)] * b_rm[alg::rm_index(n, k, j)];
      }
      if (c_out[alg::rm_index(n, i, j)] != want) ++bad;
    }
  }
  RO_CHECK(bad == 0);
  const GraphStats st = rec.stats();
  std::printf("pipeline RM->BI -> Strassen -> gapped BI->RM on %ux%u: "
              "validated.\n  work=%llu  span=%llu  parallelism=%.1f\n",
              n, n, static_cast<unsigned long long>(st.work),
              static_cast<unsigned long long>(st.span),
              static_cast<double>(st.work) / st.span);

  Table t("pipeline under the schedulers (M=4096 words, B=32)");
  t.header({"sched", "p", "makespan", "speedup", "cache-miss", "block-miss"});
  SimConfig cfg;
  cfg.M = 1 << 12;
  cfg.B = 32;
  for (uint32_t pp : {2u, p}) {
    cfg.p = pp;
    for (Backend b : {Backend::kSimPws, Backend::kSimRws}) {
      const RunReport r = eng.replay(rec, b, cfg);
      char sp[16];
      std::snprintf(sp, sizeof sp, "%.2fx", r.sim_speedup());
      t.row({backend_name(b), Table::num(pp), Table::num(r.sim.makespan), sp,
             Table::num(r.sim.cache_misses()),
             Table::num(r.sim.block_misses())});
    }
  }
  t.print();
  return 0;
}
