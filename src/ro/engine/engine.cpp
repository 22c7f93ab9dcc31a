#include "ro/engine/engine.h"

#include <algorithm>
#include <functional>
#include <thread>

#include "ro/engine/fields.h"
#include "ro/engine/workloads.h"
#include "ro/rt/numa.h"
#include "ro/sched/run.h"
#include "ro/sim/contention.h"

namespace ro {

doctor::DoctorReport Engine::diagnose(const TaskGraph& g, Backend backend,
                                      const SimConfig& sim,
                                      const doctor::DoctorOptions& opt,
                                      const std::string& label) {
  RO_CHECK_MSG(backend_is_sim(backend),
               "diagnose replays a recorded trace; use sim-pws / sim-rws");
  doctor::DoctorReport d;
  d.label = label;
  d.backend = backend;
  d.p = sim.p;
  d.M = sim.M;
  d.B = sim.B;

  // 1. Diagnose: the "before" replay with the ContentionProfile attached.
  ContentionProfile profile;
  SimConfig pcfg = sim;
  pcfg.profile = &profile;
  pcfg.remap = nullptr;
  d.before = replay(g, backend, pcfg, /*seq_baseline=*/true, label);
  d.before.has_contention = true;
  d.before.fs_false_events = profile.false_events();
  d.before.fs_true_events = profile.true_events();
  d.before.fs_hot_lines = profile.hot_lines();

  // 2. Repair: ranked findings -> padding remap.
  d.findings = doctor::classify(profile, opt);
  d.plan = doctor::plan_repair(d.findings, g, sim.B, opt);

  // 3. Verify: replay the same stored trace under the remap.  Nothing to
  //    prove when the plan is empty (a healthy layout).
  if (!d.plan.remap.empty()) {
    SimConfig rcfg = sim;
    rcfg.profile = nullptr;
    rcfg.remap = &d.plan.remap;
    d.after = replay(g, backend, rcfg, /*seq_baseline=*/true,
                     label.empty() ? "repaired" : label + ":repaired");
    d.has_after = true;
  }
  return d;
}

namespace {

/// Hardware concurrency, clamped to the pool's worker limit.
unsigned hw_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 2 : std::min(hw, rt::kMaxPoolThreads);
}

/// Runs fn(0) .. fn(n - 1), each an independent walk or trace job, on
/// replay_host_threads(threads, n) workers, or inline when that is one.
/// fn must only write per-index state.  The pool is created per call: a
/// cached shared pool would break under concurrent callers, the spawn cost
/// is noise next to any walk worth overlapping, and Pool::run is not
/// reentrant, so a fn that itself fans out must do so with threads = 1.
void replay_parallel_for(uint32_t threads, size_t n,
                         const std::function<void(size_t)>& fn) {
  const uint32_t t = replay_host_threads(threads, n);
  if (t <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  rt::Pool pool(t, rt::PoolOptions{});
  rt::parallel_index(pool, n, fn);
}

/// Copies the graph's TraceStore statistics (segments, spilled bytes,
/// resident high-water, reloads) into the report; no-op for resident
/// graphs.
void fill_stream_stats(RunReport& r, const TaskGraph& g) {
  if (!g.streaming()) return;
  r.has_stream = true;
  for (const StreamPart& part : g.streams) {
    const TraceStore::Stats st = part.store->stats();
    r.trace_segments += st.segments;
    r.trace_spilled_bytes += st.spilled_bytes;
    r.trace_compressed_bytes += st.compressed_bytes;
    // Parts (and a batch's shards) replay concurrently, so their peaks
    // sum: the resident bound is (window + open + pins) x live stores, and
    // the report says so instead of hiding it behind a max.
    r.trace_peak_resident_bytes += st.peak_resident_bytes;
    r.trace_segment_loads += st.segment_loads;
  }
}

void fill_replay(RunReport& r, const TaskGraph& g, Backend backend,
                 const SimConfig& sim, bool seq_baseline) {
  RO_CHECK_MSG(!backend_is_parallel(backend),
               "parallel backends cannot replay a recorded trace");
  const SchedKind kind = sched_kind_of(backend);
  r.has_sim = true;
  r.p = kind == SchedKind::kSeq ? 1 : sim.p;
  r.M = sim.M;
  r.B = sim.B;
  if (seq_baseline && kind != SchedKind::kSeq) {
    // The main replay and its p=1 baseline are independent walks of the
    // same trace: with replay_threads > 1 they overlap on two host
    // threads, metrics unchanged.  The baseline must not record into the
    // caller's profile: it is a different machine (p=1 has no coherence
    // traffic to attribute), and the two walks run concurrently.  The
    // remap, if any, stays — the baseline then measures the repaired
    // layout's Q(n,M,B).
    SimConfig base = sim;
    base.profile = nullptr;
    Metrics seq;
    replay_parallel_for(sim.replay_threads, 2, [&](size_t i) {
      if (i == 0)
        r.sim = simulate(g, kind, sim);
      else
        seq = simulate(g, SchedKind::kSeq, base);
    });
    r.has_baseline = true;
    r.q_seq = seq.cache_misses();
    r.seq_makespan = seq.makespan;
    r.cache_excess = excess(r.sim.cache_misses(), r.q_seq);
    return;
  }
  r.sim = simulate(g, kind, sim);
  if (seq_baseline) {  // kind == kSeq: the replay is its own baseline
    r.has_baseline = true;
    r.q_seq = r.sim.cache_misses();
    r.seq_makespan = r.sim.makespan;
    r.cache_excess = 0;
  }
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// A program recorded into its address shard, with the stats the
/// recorder computed: the first step of every trace job.
struct Recorded {
  TaskGraph g;    // carries recorded_stats
  double ms = 0;  // host time recording
};

Recorded record_job(const AnyProg& prog, const RunOptions& opt,
                    uint32_t shard) {
  const auto t0 = std::chrono::steady_clock::now();
  Recorded rec;
  rec.g = detail::record_graph(
      prog, opt.trace.segment_tasks > 0 ? &opt.trace : nullptr, opt.padded,
      opt.align_words, shard, opt.spms.value_or(alg::SpmsTuning{}));
  rec.ms = ms_since(t0);
  return rec;
}

/// One trace job's report plus the host time of its two phases.
struct TraceRun {
  RunReport r;
  double record_ms = 0;  // recording, stats included
  double replay_ms = 0;  // main walk + p=1 baseline
};

/// The trace job: records `prog` into address shard `shard` and replays
/// it on opt.sim — the main walk plus, with seq_baseline, the
/// p=1 baseline.  A run job is one call; a batch without capacity sharing
/// is one call per shard, so each shard row equals the standalone run of
/// its program at that shard.
TraceRun run_trace(const AnyProg& prog, const RunOptions& opt,
                   uint32_t shard) {
  const auto t0 = std::chrono::steady_clock::now();
  TraceRun t;
  const Recorded rec = record_job(prog, opt, shard);
  t.record_ms = rec.ms;
  RunReport& r = t.r;
  r.label = opt.label;
  r.backend = opt.backend;
  r.has_graph = true;
  r.graph = rec.g.stats();
  const auto t1 = std::chrono::steady_clock::now();
  fill_replay(r, rec.g, opt.backend, opt.sim, opt.seq_baseline);
  t.replay_ms = ms_since(t1);
  fill_stream_stats(r, rec.g);  // post-replay: loads included
  r.wall_ms = ms_since(t0);
  return t;
}

/// The aggregate every batch kind ends with: the rows' summed recording
/// and store stats, `sim` as the machine's Metrics, and the p=1 baseline
/// from the rows — their q_seq partition the baseline's misses and the
/// baseline's makespan is their longest.
void aggregate_batch(BatchReport& br, const RunOptions& opt, Metrics sim,
                     std::chrono::steady_clock::time_point t0) {
  RunReport& agg = br.aggregate;
  agg.label = opt.label;
  agg.backend = opt.backend;
  agg.has_graph = true;
  for (const RunReport& r : br.runs) {
    agg.graph.work += r.graph.work;
    agg.graph.span = std::max(agg.graph.span, r.graph.span);
    agg.graph.max_depth = std::max(agg.graph.max_depth, r.graph.max_depth);
    agg.graph.activations += r.graph.activations;
    agg.graph.accesses += r.graph.accesses;
    agg.graph.leaves += r.graph.leaves;
    agg.has_stream |= r.has_stream;
    agg.trace_segments += r.trace_segments;
    agg.trace_spilled_bytes += r.trace_spilled_bytes;
    agg.trace_compressed_bytes += r.trace_compressed_bytes;
    agg.trace_peak_resident_bytes += r.trace_peak_resident_bytes;
    agg.trace_segment_loads += r.trace_segment_loads;
    agg.q_seq += r.q_seq;
    agg.seq_makespan = std::max(agg.seq_makespan, r.seq_makespan);
  }
  const SchedKind kind = sched_kind_of(opt.backend);
  agg.has_sim = true;
  agg.p = kind == SchedKind::kSeq ? 1 : opt.sim.p;
  agg.M = opt.sim.M;
  agg.B = opt.sim.B;
  agg.sim = std::move(sim);
  agg.has_baseline = opt.seq_baseline;
  if (opt.seq_baseline)
    agg.cache_excess = excess(agg.sim.cache_misses(), agg.q_seq);
  br.wall_ms = ms_since(t0);
  agg.wall_ms = br.wall_ms;
}

/// Capacity-shared batch (docs/serve.md): every shard replays on ONE
/// simulated machine — shared cores, caches, coherence directory — via
/// simulate_shared, with each miss/transfer charged to the span (tenant)
/// whose task performed it.  Per-shard rows carry the attribution instead
/// of per-machine Metrics; the aggregate carries the machine.  The p=1
/// baseline replays the same co-scheduled trace sequentially, so a
/// tenant's q_seq share is its contention-free miss count and
/// cache_excess is the capacity/coherence cost of sharing.  Fills the
/// rows and the aggregate's store stats; returns the machine's Metrics.
Metrics replay_shared(BatchReport& br, std::vector<Recorded> recs,
                      const RunOptions& opt) {
  std::vector<TaskGraph> graphs;
  for (size_t i = 0; i < recs.size(); ++i) {
    br.record_ms += recs[i].ms;
    RunReport& r = br.runs[i];
    r.label = opt.label + "#" + std::to_string(i);
    r.backend = opt.backend;
    r.has_graph = true;
    r.graph = recs[i].g.stats();
    graphs.push_back(std::move(recs[i].g));
  }
  const TaskGraph merged = merge_shards(std::move(graphs));

  const SchedKind kind = sched_kind_of(opt.backend);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<TenantShare> shares, base_shares;
  Metrics main = simulate_shared(merged, kind, opt.sim, &shares);
  uint64_t base_makespan = main.makespan;
  if (opt.seq_baseline) {
    base_shares = shares;  // kSeq: the replay is its own baseline
    if (kind != SchedKind::kSeq) {
      base_makespan =
          simulate_shared(merged, SchedKind::kSeq, opt.sim, &base_shares)
              .makespan;
    }
  }
  br.replay_ms = ms_since(t0);

  for (size_t i = 0; i < shares.size(); ++i) {
    RunReport& r = br.runs[i];
    r.has_tenant = true;
    r.tenant = r.label;
    r.tenant_compute = shares[i].compute;
    r.tenant_cache_misses = shares[i].cache_misses;
    r.tenant_block_misses = shares[i].block_misses;
    r.tenant_transfers = shares[i].transfers;
    if (opt.seq_baseline) {
      r.has_baseline = true;
      r.q_seq = base_shares[i].cache_misses;  // p=1: no coherence share
      r.seq_makespan = base_makespan;         // machine-wide (co-scheduled)
      r.cache_excess = excess(r.tenant_cache_misses, r.q_seq);
    }
  }
  fill_stream_stats(br.aggregate, merged);
  return main;
}

JobResult start_result(uint64_t id, const JobSpec& spec) {
  JobResult jr;
  jr.job_id = id;
  jr.tenant = spec.tenant;
  jr.tag = spec.tag;
  jr.kind = spec.kind;
  return jr;
}

JobResult& fail(JobResult& jr, const std::string& why) {
  jr.status = JobStatus::kError;
  jr.error = why;
  return jr;
}

/// Spec-level validation that must not abort: submit is the wire-facing
/// entry point, so everything a remote caller can get wrong becomes a
/// kError result.  Single-field ranges come from the field table
/// (engine/fields.h); the rules here relate fields to each other.
/// Returns the reason, or "" for a valid spec.
std::string spec_error(const JobSpec& spec) {
  std::string why;
  if (!check_fields(jobspec_fields(), spec, &why)) return why;
  if (spec.opt.sim.M / spec.opt.sim.B < 1)
    return "sim cache must hold >= 1 block";
  if (spec.kind == JobKind::kDiagnose && !backend_is_sim(spec.opt.backend))
    return "diagnose jobs replay a trace; use sim-pws / sim-rws";
  if (spec.kind == JobKind::kBatch && backend_is_parallel(spec.opt.backend))
    return "batch jobs replay traces; use a seq/sim backend";
  if (spec.opt.capacity_shared && spec.kind != JobKind::kBatch)
    return "capacity_shared is a batch-job mode";
  return "";
}

}  // namespace

uint32_t replay_host_threads(uint32_t requested, size_t units) {
  const uint32_t t = requested != 0 ? requested : hw_threads();
  return static_cast<uint32_t>(std::min<size_t>(t, units));
}

namespace detail {

TaskGraph record_graph(const AnyProg& prog, const StreamOptions* stream,
                       bool padded, uint64_t align_words, uint32_t shard,
                       const alg::SpmsTuning& spms) {
  TraceCtx::Options topt;
  topt.padded = padded;
  topt.align_words = align_words;
  topt.shard = shard;
  if (stream != nullptr) {
    topt.store = std::make_shared<TraceStore>(stream->store_options());
  }
  TraceCtx cx(topt);
  detail::EngineCtx<TraceCtx> ec(cx, spms);
  prog(ec);
  return std::move(ec.graph());
}

}  // namespace detail

RunReport Engine::run_one(const AnyProg& prog, const RunOptions& opt) {
  RunReport r;
  r.label = opt.label;
  r.backend = opt.backend;
  const auto t0 = std::chrono::steady_clock::now();
  const alg::SpmsTuning spms = opt.spms.value_or(alg::SpmsTuning{});
  switch (opt.backend) {
    case Backend::kSeq: {
      SeqCtx cx;
      detail::EngineCtx<SeqCtx> ec(cx, spms);
      prog(ec);
      break;
    }
    case Backend::kSimPws:
    case Backend::kSimRws:
      return run_trace(prog, opt, opt.shard).r;
    case Backend::kParRandom:
    case Backend::kParPriority:
    case Backend::kParNumaRandom:
    case Backend::kParNumaPriority: {
      // Exclusive lease: concurrent submits wanting the same configuration
      // get sibling pools instead of racing on one (Pool::run is not
      // reentrant).
      PoolCache::Lease lease = pool_cache_.acquire(pool_key_of(opt));
      rt::Pool& pool = lease.pool();
      const rt::PoolStats before = pool.stats();
      rt::ParCtx cx(pool, opt.serial_below);
      detail::EngineCtx<rt::ParCtx> ec(cx, spms);
      prog(ec);
      const rt::PoolStats after = pool.stats();
      r.has_pool = true;
      r.threads = pool.threads();
      r.pool_steals = after.steals - before.steals;
      r.pool_failed_steals = after.failed_steals - before.failed_steals;
      r.pool_groups = pool.groups();
      r.pool_local_steals = after.local_steals - before.local_steals;
      r.pool_remote_steals = after.remote_steals - before.remote_steals;
      r.pool_group_local_steals.resize(after.group_local.size());
      r.pool_group_remote_steals.resize(after.group_remote.size());
      for (size_t g = 0; g < after.group_local.size(); ++g) {
        r.pool_group_local_steals[g] =
            after.group_local[g] - before.group_local[g];
        r.pool_group_remote_steals[g] =
            after.group_remote[g] - before.group_remote[g];
      }
      break;
    }
  }
  r.wall_ms = ms_since(t0);
  return r;
}

BatchReport Engine::run_batch_any(const std::vector<AnyProg>& progs,
                                  const RunOptions& opt) {
  const auto t0 = std::chrono::steady_clock::now();
  const size_t n = progs.size();
  BatchReport br;
  br.label = opt.label;
  br.backend = opt.backend;
  br.shards = static_cast<uint32_t>(n);
  br.replay_threads = opt.sim.replay_threads;
  br.capacity_shared = opt.capacity_shared;
  br.runs.resize(n);

  if (opt.capacity_shared) {
    // The shared machine walks the merged trace, so only the record step
    // runs per shard on the pool.
    std::vector<Recorded> recs(n);
    replay_parallel_for(opt.sim.replay_threads, n, [&](size_t i) {
      recs[i] = record_job(progs[i], opt, static_cast<uint32_t>(i));
    });
    Metrics sim = replay_shared(br, std::move(recs), opt);
    aggregate_batch(br, opt, std::move(sim), t0);
    return br;
  }

  // Every shard is its own simulated machine, so each is one independent
  // trace job on the host pool: shard i replays while shard j records.  A
  // lone chain keeps replay_threads for its two walks; parallel chains
  // walk sequentially (pools do not nest).
  RunOptions sopt = opt;
  if (replay_host_threads(opt.sim.replay_threads, n) > 1)
    sopt.sim.replay_threads = 1;
  std::vector<TraceRun> runs(n);
  replay_parallel_for(opt.sim.replay_threads, n, [&](size_t i) {
    runs[i] = run_trace(progs[i], sopt, static_cast<uint32_t>(i));
  });
  std::vector<Metrics> per;
  for (size_t i = 0; i < n; ++i) {
    br.record_ms += runs[i].record_ms;
    br.replay_ms += runs[i].replay_ms;
    per.push_back(runs[i].r.sim);
    br.runs[i] = std::move(runs[i].r);
    br.runs[i].label = opt.label + "#" + std::to_string(i);
  }
  aggregate_batch(br, opt, merge_shard_metrics(per), t0);
  return br;
}

JobResult Engine::submit(const JobSpec& spec) {
  // Validate before building programs: a wire-sized n or shard count, or
  // an n the workload does not accept, must be refused here, not inside
  // the workloads' allocations or kernels.
  std::string why = workload_error(spec.workload, spec.n);
  if (why.empty()) why = spec_error(spec);
  if (!why.empty()) {
    JobResult jr = start_result(next_job_id_.fetch_add(1), spec);
    return fail(jr, why);
  }
  if (spec.kind != JobKind::kBatch)
    return submit(spec, make_workload(spec.workload, spec.n, spec.seed));
  // Per-shard seed salt: tenants of a batch run distinct-but-deterministic
  // inputs of the same workload.
  std::vector<AnyProg> progs;
  for (uint32_t i = 0; i < std::max(spec.shards, 1u); ++i)
    progs.push_back(make_workload(spec.workload, spec.n, spec.seed + i));
  return submit(spec, progs);
}

JobResult Engine::submit(const JobSpec& spec, const AnyProg& prog) {
  JobResult jr = start_result(next_job_id_.fetch_add(1), spec);
  if (const std::string why = spec_error(spec); !why.empty())
    return fail(jr, why);
  if (spec.kind == JobKind::kBatch)
    return fail(jr, "batch jobs take one program per shard");
  if (!prog) return fail(jr, "empty program");
  if (!prog.supports(spec.opt.backend)) {
    return fail(jr, std::string("program does not support backend ") +
                        backend_name(spec.opt.backend));
  }
  const auto t0 = std::chrono::steady_clock::now();
  if (spec.kind == JobKind::kRun) {
    jr.report = run_one(prog, spec.opt);
  } else {  // kDiagnose: record here, then run the doctor loop
    const TaskGraph g = record_job(prog, spec.opt, spec.opt.shard).g;
    jr.doctor = diagnose(g, spec.opt.backend, spec.opt.sim, spec.doc,
                         spec.opt.label);
    jr.has_doctor = true;
  }
  jr.exec_ms = ms_since(t0);
  return jr;
}

JobResult Engine::submit(const JobSpec& spec,
                         const std::vector<AnyProg>& progs) {
  JobResult jr = start_result(next_job_id_.fetch_add(1), spec);
  if (const std::string why = spec_error(spec); !why.empty())
    return fail(jr, why);
  if (spec.kind != JobKind::kBatch) {
    return fail(jr,
                "a program vector makes a batch job; set kind to \"batch\"");
  }
  if (progs.empty()) return fail(jr, "batch jobs need at least one program");
  for (const AnyProg& p : progs) {
    if (!p.supports(Backend::kSimPws))  // batches record through TraceCtx
      return fail(jr, "batch program cannot record (empty or non-trace)");
  }
  const auto t0 = std::chrono::steady_clock::now();
  jr.batch = run_batch_any(progs, spec.opt);
  jr.has_batch = true;
  jr.exec_ms = ms_since(t0);
  return jr;
}

RunReport Engine::replay(const TaskGraph& g, Backend backend,
                         const SimConfig& sim, bool seq_baseline,
                         const std::string& label) {
  RunReport r;
  r.label = label;
  r.backend = backend;
  r.has_graph = true;
  r.graph = g.stats();
  const auto t0 = std::chrono::steady_clock::now();
  fill_replay(r, g, backend, sim, seq_baseline);
  r.wall_ms = ms_since(t0);
  return r;
}

PoolKey Engine::pool_key_of(const RunOptions& opt) {
  PoolKey key;
  key.policy = steal_policy_of(opt.backend);
  key.threads = opt.threads != 0 ? opt.threads : hw_threads();
  if (backend_is_numa(opt.backend)) {
    key.numa = true;
    // Canonical group count: 0 resolves to one group per detected node, so
    // "auto" and the explicit detected count share one cache entry (the
    // layouts are identical — rt::numa_group_layout).
    key.groups = rt::numa_group_layout(key.threads, opt.numa_groups).groups();
    key.escape = opt.numa_escape;
    key.pin = opt.numa_pin;
  }
  return key;
}

}  // namespace ro
