// Scheduler explorer: pick an algorithm and a machine, get the full metric
// breakdown — the tool a downstream user reaches for to understand how
// their workload behaves under PWS vs RWS on hypothetical multicores.
//
//   $ ./scheduler_explorer --alg=fft --n=4096 --p=16 --M=8192 --B=64
//   algorithms: msum ps mt rm2bi bi2rm bi2rm_gap strassen mm fft sort lr cc
//
// The workload is a single program over a generic context; the Engine
// records it once and replays the trace on each scheduler.
#include <cstdio>
#include <string>

#include "ro/alg/cc.h"
#include "ro/alg/fft.h"
#include "ro/alg/graphgen.h"
#include "ro/alg/listrank.h"
#include "ro/alg/mm.h"
#include "ro/alg/mt.h"
#include "ro/alg/rm_bi.h"
#include "ro/alg/scan.h"
#include "ro/alg/sort.h"
#include "ro/alg/strassen.h"
#include "ro/core/validate.h"
#include "ro/engine/engine.h"
#include "ro/util/cli.h"
#include "ro/util/table.h"

using namespace ro;
using alg::i64;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::string name = cli.get_str("alg", "fft");
  const size_t n = static_cast<size_t>(cli.get_int("n", 1 << 12));
  SimConfig cfg;
  cfg.p = static_cast<uint32_t>(cli.get_int("p", 8));
  cfg.M = static_cast<uint64_t>(cli.get_int("M", 1 << 12));
  cfg.B = static_cast<uint32_t>(cli.get_int("B", 32));
  cfg.miss_latency = static_cast<uint32_t>(cli.get_int("b", 32));

  // One program, dispatching on the algorithm name; recorded through the
  // Engine below.
  bool known = true;
  auto prog = [&](auto& cx) {
    const uint32_t side = static_cast<uint32_t>(next_pow2(isqrt(n)));
    if (name == "msum") {
      auto a = cx.template alloc<i64>(n, "a");
      auto o = cx.template alloc<i64>(1, "o");
      cx.run(n, [&] { alg::msum(cx, a.slice(), o.slice()); });
      return;
    }
    if (name == "ps") {
      auto a = cx.template alloc<i64>(n, "a");
      auto o = cx.template alloc<i64>(n, "o");
      cx.run(2 * n, [&] { alg::prefix_sums(cx, a.slice(), o.slice()); });
      return;
    }
    const size_t m = static_cast<size_t>(side) * side;
    if (name == "mt" || name == "rm2bi" || name == "bi2rm" ||
        name == "bi2rm_gap") {
      auto a = cx.template alloc<i64>(m, "a");
      auto o = cx.template alloc<i64>(m, "o");
      cx.run(2 * m, [&] {
        if (name == "mt") alg::mt_bi(cx, a.slice(), o.slice(), side);
        if (name == "rm2bi") alg::rm_to_bi(cx, a.slice(), o.slice(), side);
        if (name == "bi2rm")
          alg::bi_to_rm_direct(cx, a.slice(), o.slice(), side);
        if (name == "bi2rm_gap")
          alg::bi_to_rm_gap(cx, a.slice(), o.slice(), side);
      });
      return;
    }
    if (name == "strassen" || name == "mm") {
      const uint32_t s = std::min<uint32_t>(side, 64);
      const size_t sm = static_cast<size_t>(s) * s;
      auto a = cx.template alloc<i64>(sm, "a");
      auto b = cx.template alloc<i64>(sm, "b");
      auto c = cx.template alloc<i64>(sm, "c");
      cx.run(3 * sm, [&] {
        if (name == "strassen")
          alg::strassen_bi(cx, a.slice(), b.slice(), c.slice(), s);
        else
          alg::depth_n_mm(cx, a.slice(), b.slice(), c.slice(), s);
      });
      return;
    }
    if (name == "fft") {
      auto x = cx.template alloc<alg::cplx>(n, "x");
      auto y = cx.template alloc<alg::cplx>(n, "y");
      cx.run(4 * n, [&] { alg::fft(cx, x.slice(), y.slice()); });
      return;
    }
    if (name == "sort") {
      auto a = cx.template alloc<i64>(n, "a");
      Rng rng(1);
      for (size_t i = 0; i < n; ++i)
        a.raw()[i] = static_cast<i64>(rng.next());
      auto o = cx.template alloc<i64>(n, "o");
      cx.run(2 * n, [&] { alg::msort(cx, a.slice(), o.slice()); });
      return;
    }
    if (name == "lr") {
      const auto succ = alg::random_list(n, 5);
      auto s = cx.template alloc<i64>(n, "s");
      std::copy(succ.begin(), succ.end(), s.raw());
      auto r = cx.template alloc<i64>(n, "r");
      cx.run(2 * n, [&] { alg::list_rank(cx, s.slice(), r.slice()); });
      return;
    }
    if (name == "cc") {
      const auto e = alg::random_graph(n, n, 4, 11);
      auto eu = cx.template alloc<i64>(e.u.size(), "eu");
      auto ev = cx.template alloc<i64>(e.u.size(), "ev");
      std::copy(e.u.begin(), e.u.end(), eu.raw());
      std::copy(e.v.begin(), e.v.end(), ev.raw());
      auto l = cx.template alloc<i64>(n, "l");
      cx.run(4 * n, [&] {
        alg::connected_components(cx, n, eu.slice(), ev.slice(), l.slice());
      });
      return;
    }
    known = false;
  };

  Engine eng;
  const TaskGraph rec = eng.record(prog);
  if (!known) {
    std::fprintf(stderr, "unknown --alg=%s\n", name.c_str());
    return 2;
  }
  const GraphStats st = rec.stats();
  const auto la = check_limited_access(rec);
  std::printf("%s: n=%zu  activations=%llu  work=%llu  span=%llu  "
              "parallelism=%.1f  max-writes/loc=%u\n\n",
              name.c_str(), n,
              static_cast<unsigned long long>(st.activations),
              static_cast<unsigned long long>(st.work),
              static_cast<unsigned long long>(st.span),
              static_cast<double>(st.work) / st.span,
              la.max_writes_per_location);

  Table t("machine: p=" + Table::num(cfg.p) + " M=" + Table::num(cfg.M) +
          " B=" + Table::num(cfg.B) + " b=" + Table::num(cfg.miss_latency));
  t.header({"sched", "makespan", "speedup", "cache(cold/cap)", "block-miss",
            "stack-miss", "steals", "attempts", "usurp", "idle"});
  for (Backend b : {Backend::kSeq, Backend::kSimPws, Backend::kSimRws}) {
    const RunReport r = eng.replay(rec, b, cfg);
    const Metrics& m = r.sim;
    char sp[16];
    std::snprintf(sp, sizeof sp, "%.2fx",
                  static_cast<double>(r.seq_makespan) / m.makespan);
    uint64_t cold = 0, cap = 0;
    for (const auto& c : m.core) {
      cold += c.misses(MissClass::kCold);
      cap += c.misses(MissClass::kCapacity);
    }
    t.row({backend_name(b), Table::num(m.makespan), sp,
           Table::num(cold) + "/" + Table::num(cap),
           Table::num(m.block_misses()), Table::num(m.stack_misses()),
           Table::num(m.steals()), Table::num(m.steal_attempts()),
           Table::num(m.usurpations()), Table::num(m.idle())});
  }
  t.print();
  return 0;
}
