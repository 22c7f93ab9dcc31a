// Shared infrastructure for the experiment binaries (E1–E15, DESIGN.md §4).
//
// Workloads are *programs* from the registry (engine/workloads.h): the
// `wl::` builders make deterministic inputs (per size) and run one
// Table-1 algorithm on any ro::Engine backend (seq, sim-PWS, sim-RWS,
// par-random, par-priority).  `record` records a program once through the
// shared Engine for the trace-replay benches; `measure` replays a
// recorded graph on one simulated machine and returns the unified
// RunReport.  Every binary prints paper-style tables via ro::Table and
// also drops a CSV next to the binary when --csv is passed.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "ro/alg/kernels.h"
#include "ro/alg/sort.h"
#include "ro/alg/spms.h"
#include "ro/engine/engine.h"
#include "ro/engine/fields.h"
#include "ro/engine/workloads.h"
#include "ro/util/cli.h"
#include "ro/util/rng.h"
#include "ro/util/table.h"

namespace ro::bench {

using alg::i64;
using alg::SortKind;

/// The bench-wide `--sort=` flag: "msort" (default) or "spms".  RO_CHECK
/// fails on unknown names so a typo cannot silently bench the wrong sort.
inline SortKind sort_from_cli(const Cli& cli) {
  const std::string name = cli.get_str("sort", "msort");
  SortKind kind = SortKind::kMsort;
  RO_CHECK_MSG(alg::parse_sort_kind(name, kind),
               "--sort must be 'msort' or 'spms'");
  return kind;
}

/// Splits a comma-separated flag value into its entries.  Empty entries
/// ("1,,2", trailing comma) are RO_CHECK failures — a typo must fail
/// loudly, never silently shrink a sweep.
inline std::vector<std::string> split_csv(const std::string& spec) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= spec.size()) {
    const size_t comma = spec.find(',', start);
    const std::string tok =
        spec.substr(start, comma == std::string::npos ? comma : comma - start);
    RO_CHECK_MSG(!tok.empty(), "comma-list flag holds an empty entry");
    out.push_back(tok);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// A comma list of non-negative integers ("1,2,4").  Follows the Cli
/// numeric policy: trailing garbage ("2x8") is an RO_CHECK failure, not a
/// silently truncated number.
inline std::vector<uint32_t> u32_list_from_cli(const Cli& cli,
                                               const std::string& flag,
                                               const std::string& def) {
  std::vector<uint32_t> out;
  for (const std::string& tok : split_csv(cli.get_str(flag, def))) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(tok.c_str(), &end, 10);
    RO_CHECK_MSG(end != tok.c_str() && *end == '\0' && v <= UINT32_MAX,
                 "comma-list flag holds a non-numeric entry");
    out.push_back(static_cast<uint32_t>(v));
  }
  return out;
}

/// The bench-wide `--backends=` flag: a comma list of backend names (see
/// parse_backend; short aliases allowed) or one of the sets "all", "sim"
/// (seq + the two trace replays) and "par" (the four real-thread
/// backends).  RO_CHECK fails on unknown names so a typo cannot silently
/// bench the wrong backend.
inline std::vector<Backend> backends_from_cli(const Cli& cli,
                                              const std::string& def = "all") {
  const std::string spec = cli.get_str("backends", def);
  if (spec == "all")
    return {std::begin(kAllBackends), std::end(kAllBackends)};
  if (spec == "sim")
    return {Backend::kSeq, Backend::kSimPws, Backend::kSimRws};
  if (spec == "par")
    return {Backend::kParRandom, Backend::kParPriority,
            Backend::kParNumaRandom, Backend::kParNumaPriority};
  std::vector<Backend> out;
  for (const std::string& name : split_csv(spec)) {
    Backend b;
    RO_CHECK_MSG(parse_backend(name, b),
                 "--backends holds an unknown backend name");
    out.push_back(b);
  }
  return out;
}

/// The shared NUMA flags of the bench binaries: `--numa-groups` (0 = one
/// group per detected node — force a count for deterministic behavior on
/// any machine), `--numa-escape` (random flavor cross-group steal
/// probability) and `--numa-pin` (pin workers to their node's cpus).
inline void numa_from_cli(const Cli& cli, RunOptions& opt) {
  opt.numa_groups = static_cast<uint32_t>(cli.get_int("numa-groups", 0));
  opt.numa_escape = cli.get_double("numa-escape", opt.numa_escape);
  opt.numa_pin = cli.get_int("numa-pin", 0) != 0;
}

/// The shared SPMS tuning flags (`--spms-*`): every knob of
/// alg::SpmsTuning is overridable from the command line so bench sweeps
/// never need a recompile; each flag is its row's in spms_fields()
/// (engine/fields.h).  Only materializes RunOptions::spms when at least
/// one flag is present, so the defaults stay in charge otherwise.
/// A value that is not of its knob's type aborts naming the knob.
inline void spms_from_cli(const Cli& cli, RunOptions& opt) {
  alg::SpmsTuning t;
  bool any = false;
  for (const Field<alg::SpmsTuning>& f : spms_fields()) {
    if (!cli.has(f.flag)) continue;
    std::string err;
    RO_CHECK_MSG(read_field(f, cli.get_str(f.flag, ""), f.at(t), &err),
                 err.c_str());
    any = true;
  }
  if (any) opt.spms = t;
}

/// One scalar-vs-kernel head-to-head on the pairwise merge base case: the
/// branchy scalar loop (what the recording backends execute) against
/// kern::merge (the cmov kernel the par-* backends select), same inputs,
/// min wall time over `reps` passes.  The checksum keeps the optimizer
/// honest and doubles as a correctness cross-check between the two.
struct KernelMergeBench {
  double scalar_ms = 0;
  double kernel_ms = 0;
  double speedup() const { return kernel_ms > 0 ? scalar_ms / kernel_ms : 0; }
};

inline KernelMergeBench kernel_merge_bench(size_t n = size_t{1} << 21,
                                           int reps = 5) {
  std::vector<i64> a(n), b(n), out(2 * n);
  Rng rng(n + 9);
  for (size_t i = 0; i < n; ++i) a[i] = static_cast<i64>(rng.next() >> 1);
  for (size_t i = 0; i < n; ++i) b[i] = static_cast<i64>(rng.next() >> 1);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());

  uint64_t sum_scalar = 0, sum_kernel = 0;
  const auto timed = [&](auto&& body, uint64_t& sum, int r) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    sum += static_cast<uint64_t>(out[(r * 977) % out.size()]);
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
  };
  const auto scalar = [&] {
    size_t i = 0, j = 0, k = 0;
    while (i < n && j < n) {
      if (a[i] <= b[j])
        out[k++] = a[i++];
      else
        out[k++] = b[j++];
    }
    while (i < n) out[k++] = a[i++];
    while (j < n) out[k++] = b[j++];
  };
  const auto kernel = [&] {
    alg::kern::merge(a.data(), n, b.data(), n, out.data());
  };

  // A/B passes interleaved (with one untimed warmup each) so a load spike
  // from a noisy neighbor hits both sides alike instead of skewing the
  // ratio; min-of-reps then discards the spikes entirely.
  scalar();
  kernel();
  KernelMergeBench kb;
  for (int r = 0; r < reps; ++r) {
    const double sm = timed(scalar, sum_scalar, r);
    const double km = timed(kernel, sum_kernel, r);
    kb.scalar_ms = (r == 0 || sm < kb.scalar_ms) ? sm : kb.scalar_ms;
    kb.kernel_ms = (r == 0 || km < kb.kernel_ms) ? km : kb.kernel_ms;
  }
  RO_CHECK_MSG(sum_scalar == sum_kernel,
               "kernel merge disagrees with the scalar merge");
  return kb;
}

/// Process-wide Engine shared by everything in a bench binary: jobs run
/// through submit(), traces through record/replay, and parallel jobs lease
/// pools from its PoolCache (threads = 0 sizes them at hardware
/// concurrency).
inline Engine& engine() {
  static Engine e;
  return e;
}

/// Records `prog` (a workload-registry builder, engine/workloads.h) once
/// through the shared Engine, for the benches that replay one trace many
/// times.
inline TaskGraph record(const AnyProg& prog, bool padded = false) {
  return engine().record(prog, padded);
}

// ---- run helpers ----

inline SimConfig cfg(uint32_t p, uint64_t M, uint32_t B) {
  SimConfig c;
  c.p = p;
  c.M = M;
  c.B = B;
  return c;
}

/// Replays `g` under `backend` on machine `c`; with `seq_baseline` the
/// report also carries Q(n,M,B), the cache excess and the sim speedup.
inline RunReport measure(const TaskGraph& g, Backend backend,
                         const SimConfig& c, bool seq_baseline = true) {
  return engine().replay(g, backend, c, seq_baseline);
}

inline std::string fmt_speedup(uint64_t seq, uint64_t par) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2fx",
                par ? static_cast<double>(seq) / par : 0.0);
  return buf;
}

}  // namespace ro::bench
