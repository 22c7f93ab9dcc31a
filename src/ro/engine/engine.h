// ro::Engine — the one execution layer over every backend.
//
// Algorithms in alg/ are templates over an execution context; the Engine
// owns everything around them: the simulated address space and cache
// simulator (via TraceCtx + sched/replay), scheduler selection, and the
// real-thread pools.  One generic callable runs unchanged on five backends:
//
//   Engine eng;
//   auto prog = [&](auto& cx) {
//     auto a = cx.template alloc<int64_t>(n, "a");
//     ... fill a.raw() ...
//     auto out = cx.template alloc<int64_t>(1, "out");
//     cx.run(n, [&] { alg::msum(cx, a.slice(), out.slice()); });
//   };
//   JobSpec spec;
//   spec.opt.backend = Backend::kSimPws;   // the only thing that changes
//   JobResult jr = eng.submit(spec, prog);
//   if (!jr.ok()) ... jr.error ...
//   const RunReport& r = jr.report;
//
// `prog` must call cx.run(root_size, body) exactly once; allocation and
// input initialization happen before it, accounted accesses inside it.
//
// Engine::submit(JobSpec [, program]) is the one way to run a job: one
// versioned spec describes it (docs/engine.md), the result comes back as a
// JobResult with a status instead of an abort, and submit is safe to call
// from many threads at once.  Pools come from a thread-safe PoolCache under
// exclusive leases, and a job's SPMS tuning travels in its context
// (EngineCtx), so differently tuned jobs run side by side.  record /
// replay / diagnose expose the two phases separately for benches that
// replay one trace on many machines.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ro/alg/spms.h"
#include "ro/core/seq_ctx.h"
#include "ro/core/shard_ctx.h"
#include "ro/core/trace_ctx.h"
#include "ro/doctor/doctor.h"
#include "ro/engine/any_prog.h"
#include "ro/engine/job.h"
#include "ro/engine/options.h"
#include "ro/engine/pool_cache.h"
#include "ro/engine/report.h"
#include "ro/rt/par_ctx.h"
#include "ro/rt/pool.h"
#include "ro/sched/replay.h"
#include "ro/util/check.h"

namespace ro {

namespace detail {

/// The recording core of every trace path: executes `prog` through a
/// fresh TraceCtx into address shard `shard`, SPMS tuned by `spms`, and
/// returns the graph with its recorded_stats.  `stream` non-null selects
/// the chunked TraceStore.
TaskGraph record_graph(const AnyProg& prog, const StreamOptions* stream,
                       bool padded, uint64_t align_words, uint32_t shard,
                       const alg::SpmsTuning& spms = {});

}  // namespace detail

/// Host workers for `units` independent walks (SimConfig::replay_threads
/// semantics): 0 = hardware concurrency, then clamped to `units`.
uint32_t replay_host_threads(uint32_t requested, size_t units);

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // ---- the concurrent-caller entry point -------------------------------

  /// Executes the named workload the spec selects (spec.workload, resolved
  /// through engine/workloads.h) as a kRun / kBatch / kDiagnose job.
  /// Thread-safe: concurrent submits share the pool cache and run side by
  /// side whatever their SPMS tunings.  Invalid specs come back as
  /// status kError with a reason — never an abort — so wire callers
  /// (ro-serve) stay up across bad input.
  JobResult submit(const JobSpec& spec);

  /// Programmatic flavour: runs `prog` instead of a named workload
  /// (kRun and kDiagnose jobs; spec.workload is ignored).
  JobResult submit(const JobSpec& spec, const AnyProg& prog);

  /// Batch flavour: one program per shard (kBatch jobs).
  JobResult submit(const JobSpec& spec, const std::vector<AnyProg>& progs);

  // ---- the two phases, for benches that replay one trace many times ----

  /// Records `prog` through a fresh TraceCtx (the Engine-owned virtual
  /// address space) and returns the graph for repeated replay.  Its
  /// recorded_stats are the ones the recorder computed while recording;
  /// the trace is not read back.
  /// `shard` selects the address shard recorded into (0 = the classic
  /// single-shard layout); replay rebases per shard, so the shard choice
  /// never changes the replayed Metrics.  SPMS runs with the default
  /// tuning; a job that sets RunOptions::spms goes through submit().
  template <class Prog>
  TaskGraph record(Prog&& prog, bool padded = false,
                   uint64_t align_words = 4096, uint32_t shard = 0) {
    return detail::record_graph(AnyProg(std::forward<Prog>(prog)), nullptr,
                                padded, align_words, shard);
  }

  /// Streaming flavour of record(): access records go through a chunked
  /// ro::TraceStore with a bounded resident window (`stream`), sealed
  /// segments spilling to disk, so the trace never has to fit in memory.
  /// The returned graph replays through the exact same entry points
  /// (replay / simulate) with bit-identical Metrics and keeps the store
  /// alive via its StreamPart.
  template <class Prog>
  TaskGraph record_stream(Prog&& prog, const StreamOptions& stream,
                          bool padded = false, uint64_t align_words = 4096,
                          uint32_t shard = 0) {
    RO_CHECK_MSG(stream.segment_tasks > 0,
                 "record_stream needs a trace segment capacity");
    return detail::record_graph(AnyProg(std::forward<Prog>(prog)), &stream,
                                padded, align_words, shard);
  }

  /// Replays a recorded graph on one simulated machine.  `backend` may be
  /// kSeq (p = 1 depth-first replay), kSimPws or kSimRws; parallel backends
  /// cannot replay a trace.  With `seq_baseline`, a p=1 replay is added so
  /// the report carries Q(n,M,B), the cache-miss excess and the simulated
  /// speedup.  The report's graph stats are g.stats(): the recorded ones,
  /// and analyze() only for a graph that was not recorded (built by hand
  /// or fused by merge_shards).
  RunReport replay(const TaskGraph& g, Backend backend, const SimConfig& sim,
                   bool seq_baseline = true, const std::string& label = "");

  /// The ro-doctor closed loop over one recorded trace (docs/doctor.md):
  /// a profiled replay on `sim`'s machine (ContentionProfile attached),
  /// classification into ranked per-line findings, a repair plan as an
  /// AddressRemap, and — when the plan is non-empty — a verifying replay
  /// of the *same* trace under the remap.  The report carries bit-exact
  /// before/after metrics; `backend` must be a sim backend.  This is the
  /// seam kDiagnose submit() jobs land on after recording their workload.
  doctor::DoctorReport diagnose(const TaskGraph& g, Backend backend,
                                const SimConfig& sim,
                                const doctor::DoctorOptions& opt = {},
                                const std::string& label = "");

  /// Pools ever constructed by this engine's cache (tests/observability).
  uint64_t pools_created() const { return pool_cache_.created(); }

  /// The steal policy a parallel backend selects.
  static rt::StealPolicy steal_policy_of(Backend b) {
    return (b == Backend::kParRandom || b == Backend::kParNumaRandom)
               ? rt::StealPolicy::kRandom
               : rt::StealPolicy::kPriority;
  }

 private:
  /// kRun execution core: dispatches on the backend, drives record/replay
  /// or a leased pool, fills the report.
  RunReport run_one(const AnyProg& prog, const RunOptions& opt);

  /// kBatch execution core: one record -> replay chain per shard, or,
  /// capacity-shared, per-shard records and one shared replay of the
  /// merged trace.
  BatchReport run_batch_any(const std::vector<AnyProg>& progs,
                            const RunOptions& opt);

  /// The pool key a parallel run asks for (threads = 0 resolves to
  /// hardware concurrency).
  static PoolKey pool_key_of(const RunOptions& opt);

  PoolCache pool_cache_;
  std::atomic<uint64_t> next_job_id_{1};
};

}  // namespace ro
