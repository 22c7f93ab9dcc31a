// The job catalogue: which jobs each workload submits, benchmark-owned
// copies of the registry programs that expose their outputs, and the
// fingerprint of a job's simulated statistics.
#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "ro/alg/counters.h"
#include "ro/alg/scan.h"
#include "ro/alg/sort.h"
#include "ro/alg/spms.h"
#include "ro/util/rng.h"

namespace perfbench {

using ro::alg::i64;
using ro::AnyProg;
using ro::JobKind;
using ro::JobResult;
using ro::JobSpec;

namespace {

// Counters job of serve-mix: 64 counters packed one word apart, the
// false-sharing adversary the doctor must find and repair.
constexpr uint64_t kCounters = 64;
constexpr uint64_t kCounterIters = 16;  // fixed by the registry workload

JobSpec sim_spec(const char* tenant, const char* label, const char* workload,
                 uint64_t n, uint64_t seed) {
  JobSpec s;
  s.tenant = tenant;
  s.workload = workload;
  s.n = n;
  s.seed = seed;
  s.opt.backend = ro::Backend::kSimPws;
  s.opt.label = label;
  return s;
}

/// The machine of hbp-sort and bp-scan-stream: 8 cores with caches of
/// 2^12 words in blocks of 32, far smaller than either working set.
void small_cache_machine(JobSpec& s) {
  s.opt.sim.p = 8;
  s.opt.sim.M = 1 << 12;
  s.opt.sim.B = 32;
}

// Output captured from a benchmark-owned program (raw, unaccounted reads
// after the run, so the recorded trace is the registry's).
struct Capture {
  std::vector<i64> in;
  std::vector<i64> out;
};

/// Mirrors ro::make_workload (src/ro/engine/workloads.cpp): same allocation
/// order, same RNG streams, same kernel calls — so the recorded trace and
/// every simulated statistic match the registry program — plus captures of
/// the input and output arrays.
AnyProg owned_program(const std::string& w, uint64_t n, uint64_t seed,
                      const std::shared_ptr<Capture>& cap) {
  if (w == "msum") {
    return [n, seed, cap](auto& cx) {
      auto a = cx.template alloc<i64>(n, "a");
      ro::Rng rng(n + seed);
      for (uint64_t i = 0; i < n; ++i)
        a.raw()[i] = static_cast<i64>(rng.next_below(100));
      auto out = cx.template alloc<i64>(1, "out");
      cap->in.assign(a.raw(), a.raw() + n);
      cx.run(n, [&] { ro::alg::msum(cx, a.slice(), out.slice()); });
      cap->out.assign(out.raw(), out.raw() + 1);
    };
  }
  if (w == "ps") {
    return [n, seed, cap](auto& cx) {
      auto a = cx.template alloc<i64>(n, "a");
      ro::Rng rng(n + 1 + seed);
      for (uint64_t i = 0; i < n; ++i)
        a.raw()[i] = static_cast<i64>(rng.next_below(100));
      auto out = cx.template alloc<i64>(n, "out");
      cap->in.assign(a.raw(), a.raw() + n);
      cx.run(2 * n,
             [&] { ro::alg::prefix_sums(cx, a.slice(), out.slice()); });
      cap->out.assign(out.raw(), out.raw() + n);
    };
  }
  if (w == "sort" || w == "sort-spms") {
    const ro::alg::SortKind kind =
        w == "sort" ? ro::alg::SortKind::kMsort : ro::alg::SortKind::kSpms;
    return [n, seed, kind, cap](auto& cx) {
      auto a = cx.template alloc<i64>(n, "a");
      ro::Rng rng(n + 4 + seed);
      for (uint64_t i = 0; i < n; ++i)
        a.raw()[i] = static_cast<i64>(rng.next() >> 1);
      auto out = cx.template alloc<i64>(n, "out");
      cap->in.assign(a.raw(), a.raw() + n);
      cx.run(2 * n, [&] {
        ro::alg::sort_by(cx, kind, a.slice(), out.slice(), 8);
      });
      cap->out.assign(out.raw(), out.raw() + n);
    };
  }
  if (w == "counters-packed") {
    const uint32_t k = static_cast<uint32_t>(std::max<uint64_t>(1, n));
    return [k, cap](auto& cx) {
      auto slots = cx.template alloc<i64>(ro::alg::counter_words(k, 1),
                                          "counters");
      for (uint32_t c = 0; c < k; ++c) slots.raw()[c] = 0;
      cx.run(uint64_t{k} * 2 * kCounterIters, [&] {
        ro::alg::counter_stripes(cx, slots.slice(), k, kCounterIters, 1);
      });
      cap->out.assign(slots.raw(), slots.raw() + k);
    };
  }
  return AnyProg{};
}

/// "" when the captured output is what the algorithm must produce.
std::string check_output(const std::string& w, const Capture& c) {
  if (w == "msum") {
    i64 sum = 0;
    for (i64 v : c.in) sum += v;
    return c.out.size() == 1 && c.out[0] == sum ? "" : "msum: wrong sum";
  }
  if (w == "ps") {
    i64 run = 0;
    if (c.out.size() != c.in.size()) return "ps: wrong output length";
    for (size_t i = 0; i < c.in.size(); ++i) {
      run += c.in[i];
      if (c.out[i] != run) return "ps: wrong prefix sum";
    }
    return "";
  }
  if (w == "sort" || w == "sort-spms") {
    std::vector<i64> want = c.in;
    std::sort(want.begin(), want.end());
    return c.out == want ? "" : w + ": output is not the sorted input";
  }
  if (w == "counters-packed") {
    if (c.out.empty()) return "counters: no output";
    for (i64 v : c.out)
      if (v != static_cast<i64>(kCounterIters)) return "counters: wrong count";
    return "";
  }
  return "no output check for workload " + w;
}

// ---- fingerprint -----------------------------------------------------------

struct Fnv {
  uint64_t h = 1469598103934665603ull;
  void add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

void add_report(Fnv& f, const ro::RunReport& r) {
  f.add(r.has_graph);
  if (r.has_graph) {
    for (uint64_t v : {r.graph.work, r.graph.span, uint64_t{r.graph.max_depth},
                       r.graph.activations, r.graph.accesses, r.graph.leaves})
      f.add(v);
  }
  f.add(r.has_sim);
  if (r.has_sim) {
    const ro::Metrics& m = r.sim;
    for (uint64_t v :
         {uint64_t{r.p}, r.M, uint64_t{r.B}, m.makespan, m.compute(),
          m.cache_misses(), m.block_misses(), m.stack_misses(), m.steals(),
          m.steal_attempts(), m.steal_cycles(), m.usurpations(), m.idle(),
          m.l2_hits(), m.hold_waits(), m.total_block_transfers,
          m.max_block_transfers, m.stack_words})
      f.add(v);
  }
  f.add(r.has_baseline);
  if (r.has_baseline) {
    f.add(r.q_seq);
    f.add(r.seq_makespan);
  }
  f.add(r.has_contention);
  if (r.has_contention) {
    f.add(r.fs_false_events);
    f.add(r.fs_true_events);
    f.add(r.fs_hot_lines);
  }
  f.add(r.has_tenant);
  if (r.has_tenant) {
    for (uint64_t v : {r.tenant_compute, r.tenant_cache_misses,
                       r.tenant_block_misses, r.tenant_transfers})
      f.add(v);
  }
}

}  // namespace

bool make_workload_def(const std::string& name, uint64_t seed,
                       WorkloadDef& out) {
  out = WorkloadDef{};
  out.name = name;
  if (name == "hbp-sort") {
    out.inputs = 4;
    JobSpec s = sim_spec("hbp", "hbp-sort", "sort-spms", 1 << 16,
                         seed * out.inputs);
    small_cache_machine(s);
    out.kinds.push_back({"sort-spms", s});
    out.rate_per_s = 0.9;
    out.limit_ms = 2500;
    return true;
  }
  if (name == "bp-scan-stream") {
    // One input per run: the values do not change a prefix-sum trace.
    JobSpec s = sim_spec("bp", "bp-scan-stream", "ps", 1 << 18, seed);
    small_cache_machine(s);
    // 48 trace segments of 2^15 records against a window of 4: most of the
    // trace spills (compressed) and every replay reloads it.  The spill
    // file lives in the working directory.
    s.opt.trace.segment_tasks = 1 << 15;
    s.opt.trace.max_resident_segments = 4;
    s.opt.trace.spill_dir = std::string(".");
    out.kinds.push_back({"ps-stream", s});
    out.rate_per_s = 0.9;
    out.limit_ms = 2500;
    return true;
  }
  if (name == "serve-mix") {
    // 16 inputs: a quarter of the jobs are sorts, so with few inputs the
    // slowest sort input alone would set the tail.
    out.inputs = 16;
    const uint64_t s0 = seed * out.inputs;
    // The ro-serve default machine (p=4, M=2^14, B=64): these working sets
    // fit its caches.
    out.kinds.push_back(
        {"msum", sim_spec("alice", "mix-msum", "msum", 1 << 14, s0)});
    out.kinds.push_back({"sort-spms", sim_spec("bob", "mix-sort-spms",
                                               "sort-spms", 1 << 12, s0)});
    JobSpec d = sim_spec("carol", "mix-counters", "counters-packed",
                         kCounters, s0);
    d.kind = JobKind::kDiagnose;
    out.kinds.push_back({"diagnose-counters", d});
    JobSpec b = sim_spec("dave", "mix-shared-sort", "sort", 1 << 10, s0);
    b.kind = JobKind::kBatch;
    b.shards = 3;
    b.opt.capacity_shared = true;
    out.kinds.push_back({"shared-sort-batch", b});
    out.open_loop = true;
    out.rate_per_s = 50;
    out.limit_ms = 50;
    return true;
  }
  return false;
}

Job nth_job(const WorkloadDef& def, size_t n) {
  const size_t kinds = def.kinds.size();
  const JobType& k = def.kinds[n % kinds];
  const uint32_t input = static_cast<uint32_t>(n / kinds % def.inputs);
  Job j{k.key + "#" + std::to_string(input), k.spec};
  j.spec.seed += input;
  return j;
}

JobResult submit_verified(ro::Engine& engine, const JobSpec& spec,
                          std::string& error, double* submit_ms) {
  error.clear();
  const uint32_t progs_n = spec.kind == JobKind::kBatch ? spec.shards : 1;
  std::vector<std::shared_ptr<Capture>> caps;
  std::vector<AnyProg> progs;
  for (uint32_t i = 0; i < progs_n; ++i) {
    caps.push_back(std::make_shared<Capture>());
    progs.push_back(
        owned_program(spec.workload, spec.n, spec.seed + i, caps.back()));
  }
  const auto t0 = Clock::now();
  JobResult jr = spec.kind == JobKind::kBatch ? engine.submit(spec, progs)
                                              : engine.submit(spec, progs[0]);
  if (submit_ms != nullptr) *submit_ms = ms_between(t0, Clock::now());
  if (!jr.ok()) {
    error = "job failed: " + jr.error;
    return jr;
  }
  for (const auto& c : caps) {
    error = check_output(spec.workload, *c);
    if (!error.empty()) break;
  }
  return jr;
}

std::string fingerprint(const JobResult& jr) {
  Fnv f;
  f.add(static_cast<uint64_t>(jr.kind));
  f.add(static_cast<uint64_t>(jr.status));
  if (jr.has_batch) {
    add_report(f, jr.batch.aggregate);
    f.add(jr.batch.runs.size());
    for (const ro::RunReport& r : jr.batch.runs) add_report(f, r);
  } else if (jr.has_doctor) {
    const ro::doctor::DoctorReport& d = jr.doctor;
    add_report(f, d.before);
    f.add(d.has_after);
    if (d.has_after) add_report(f, d.after);
    f.add(d.findings.size());
    for (const ro::doctor::LineFinding& x : d.findings) {
      for (uint64_t v : {x.line, x.false_events, x.true_events, x.transfers,
                         x.coherence_misses, uint64_t{x.tasks}})
        f.add(v);
    }
    f.add(d.plan.lines_padded);
    f.add(d.plan.predicted_avoided_events);
  } else {
    add_report(f, jr.report);
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(f.h));
  return buf;
}

uint64_t job_work(const JobResult& jr) {
  if (jr.has_batch) return jr.batch.aggregate.graph.work;
  if (jr.has_doctor) return jr.doctor.before.graph.work;
  return jr.report.graph.work;
}

}  // namespace perfbench
