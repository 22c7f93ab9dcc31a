// E15a — real-thread wall-clock benchmarks (google-benchmark).
//
// Runs the same workload programs the simulator benches record through the
// Engine's real-thread backends (rt::Pool + ParCtx) and the sequential
// backend, under both steal policies.  On this 2-core build host the
// interesting signal is that the runtime is correct and not pathologically
// slower than sequential; the scheduler *theory* is measured by the
// simulator benches.  Each iteration is a full Engine::submit (allocation +
// input build + computation) on every backend, so the rows are comparable.
#include <benchmark/benchmark.h>

#include "common.h"

namespace {

using namespace ro;
using namespace ro::bench;

template <Backend kB>
void BM_Msum(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  RunOptions opt;
  opt.backend = kB;
  opt.threads = static_cast<unsigned>(state.range(1));
  opt.serial_below = 1 << 12;
  uint64_t steals = 0;
  for (auto _ : state) {
    const JobResult r_jr = engine().submit({.opt = opt}, wl::msum(n, 0, 512));
    RO_CHECK_MSG(r_jr.ok(), r_jr.error.c_str());
    const RunReport& r = r_jr.report;
    steals += r.pool_steals;
    benchmark::DoNotOptimize(r.wall_ms);
  }
  state.SetItemsProcessed(state.iterations() * n);
  if (backend_is_parallel(kB)) {
    state.counters["steals"] = static_cast<double>(steals);
  }
}
BENCHMARK(BM_Msum<Backend::kSeq>)->Args({1 << 18, 1})->Args({1 << 20, 1})
    ->Name("BM_MsumSeq");
BENCHMARK(BM_Msum<Backend::kParRandom>)->Args({1 << 20, 2})
    ->Name("BM_MsumPar_RWS");
BENCHMARK(BM_Msum<Backend::kParPriority>)->Args({1 << 20, 2})
    ->Name("BM_MsumPar_PWS");

template <Backend kB>
void BM_Sort(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  RunOptions opt;
  opt.backend = kB;
  opt.threads = 2;
  opt.serial_below = 1 << 12;
  for (auto _ : state) {
    const JobResult r_jr =
        engine().submit({.opt = opt}, wl::sort(n, SortKind::kMsort, 0, 64));
    RO_CHECK_MSG(r_jr.ok(), r_jr.error.c_str());
    const RunReport& r = r_jr.report;
    benchmark::DoNotOptimize(r.wall_ms);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Sort<Backend::kSeq>)->Arg(1 << 16)->Name("BM_SortSeq");
BENCHMARK(BM_Sort<Backend::kParRandom>)->Arg(1 << 16)->Name("BM_SortPar_RWS");
BENCHMARK(BM_Sort<Backend::kParPriority>)->Arg(1 << 16)
    ->Name("BM_SortPar_PWS");

void BM_StrassenPar(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  RunOptions opt;
  opt.backend = Backend::kParPriority;
  opt.threads = 2;
  opt.serial_below = 1 << 12;
  for (auto _ : state) {
    const JobResult r_jr =
        engine().submit({.opt = opt}, wl::strassen(n, 16));
    RO_CHECK_MSG(r_jr.ok(), r_jr.error.c_str());
    const RunReport& r = r_jr.report;
    benchmark::DoNotOptimize(r.wall_ms);
  }
}
BENCHMARK(BM_StrassenPar)->Arg(128);

}  // namespace
