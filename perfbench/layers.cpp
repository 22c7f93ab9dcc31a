// The traced layer pass.  Each job runs decomposed into the calls
// Engine::submit makes — registry lookup, TraceCtx recording, analysis,
// PWS and p=1 replays or the doctor loop — each under its own span, then
// probes the trace codec and the flat LRU on the job's recorded stream,
// then goes once more over the wire to the in-process server, untraced.
// The decomposed result must carry exactly the served job's statistics.
//
// Engine::record / record_stream analyze the graph before they return, so
// the pass records through the same TraceCtx + EngineCtx seam they use
// and times TaskGraph::analyze on its own.
#include <cstdio>
#include <cstring>

#include "bench.h"
#include "ro/core/shard_ctx.h"
#include "ro/core/trace_codec.h"
#include "ro/engine/workloads.h"
#include "ro/sched/replay.h"
#include "ro/sched/run.h"
#include "ro/serve/client.h"
#include "ro/sim/cache.h"

namespace perfbench {

using ro::JobKind;
using ro::JobResult;
using ro::JobSpec;
using ro::TaskGraph;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/// Exact per-layer counts of one job kind.  Deterministic for a given
/// spec: later changes can rest a count claim on them.
struct Counts {
  uint64_t activations = 0, accesses = 0, work = 0;
  uint64_t segment_loads = 0, spilled_bytes = 0, compressed_bytes = 0,
           peak_resident_bytes = 0;
  uint64_t codec_records = 0, codec_bytes = 0;
  uint64_t steals = 0, steal_attempts = 0, usurpations = 0, stack_words = 0;
  uint64_t makespan = 0, cache_misses = 0, block_misses = 0,
           stack_misses = 0, block_transfers = 0, q_seq = 0;
  uint64_t lru_accesses = 0, lru_hits = 0;
  uint64_t findings = 0, transfers_before = 0, transfers_after = 0;

  void add(const Counts& o) {
    activations += o.activations;
    accesses += o.accesses;
    work += o.work;
    segment_loads += o.segment_loads;
    spilled_bytes += o.spilled_bytes;
    compressed_bytes += o.compressed_bytes;
    peak_resident_bytes += o.peak_resident_bytes;
    codec_records += o.codec_records;
    codec_bytes += o.codec_bytes;
    steals += o.steals;
    steal_attempts += o.steal_attempts;
    usurpations += o.usurpations;
    stack_words += o.stack_words;
    makespan += o.makespan;
    cache_misses += o.cache_misses;
    block_misses += o.block_misses;
    stack_misses += o.stack_misses;
    block_transfers += o.block_transfers;
    q_seq += o.q_seq;
    lru_accesses += o.lru_accesses;
    lru_hits += o.lru_hits;
    findings += o.findings;
    transfers_before += o.transfers_before;
    transfers_after += o.transfers_after;
  }
};

/// Host time of the probes, summed over the pass.
struct ProbeTimes {
  double encode_ms = 0, decode_ms = 0, lru_ms = 0;
  uint64_t raw_bytes = 0, lru_accesses = 0;
};

void count_graph(Counts& c, const ro::GraphStats& g) {
  c.activations = g.activations;
  c.accesses = g.accesses;
  c.work = g.work;
}

void count_sim(Counts& c, const ro::Metrics& m, uint64_t q_seq) {
  c.steals = m.steals();
  c.steal_attempts = m.steal_attempts();
  c.usurpations = m.usurpations();
  c.stack_words = m.stack_words;
  c.makespan = m.makespan;
  c.cache_misses = m.cache_misses();
  c.block_misses = m.block_misses();
  c.stack_misses = m.stack_misses();
  c.block_transfers = m.total_block_transfers;
  c.q_seq = q_seq;
}

void count_doctor(Counts& c, const ro::doctor::DoctorReport& d) {
  c.findings = d.findings.size();
  c.transfers_before = d.before_block_transfers();
  c.transfers_after = d.has_after ? d.after_block_transfers() : 0;
}

void count_store(Counts& c, const TaskGraph& g) {
  for (const ro::StreamPart& part : g.streams) {
    const ro::TraceStore::Stats s = part.store->stats();
    c.segment_loads += s.segment_loads;
    c.spilled_bytes += s.spilled_bytes;
    c.compressed_bytes += s.compressed_bytes;
    c.peak_resident_bytes += s.peak_resident_bytes;
  }
}

/// Context of one job's spans.
struct JobSpans {
  Tracer& tr;
  uint64_t job;
  int64_t parent;
  SpanScope span(const char* name) const {
    return SpanScope(tr, name, job, parent);
  }
};

ro::AnyProg lookup(const JobSpans& js, const JobSpec& spec, uint64_t seed) {
  SpanScope s = js.span("engine.make_workload");
  return ro::make_workload(spec.workload, spec.n, seed);
}

TaskGraph record(const JobSpans& js, const ro::AnyProg& prog,
                 const ro::RunOptions& opt) {
  ro::TraceCtx::Options topt;
  topt.padded = opt.padded;
  topt.align_words = opt.align_words;
  topt.shard = opt.shard;
  if (opt.trace.segment_tasks > 0)
    topt.store = std::make_shared<ro::TraceStore>(opt.trace.store_options());
  SpanScope s = js.span("core.record");
  ro::TraceCtx cx(topt);
  ro::detail::EngineCtx<ro::TraceCtx> ec(cx);
  prog(ec);
  return std::move(ec.graph());
}

/// kRun: record, analyze, PWS replay, p=1 baseline replay.
JobResult run_job(const JobSpans& js, const JobSpec& spec, TaskGraph& g,
                  Counts& c) {
  const ro::RunOptions& opt = spec.opt;
  g = record(js, lookup(js, spec, spec.seed), opt);
  ro::GraphStats gs;
  {
    SpanScope s = js.span("core.analyze");
    gs = g.analyze();
  }
  ro::Metrics main, seq;
  {
    SpanScope s = js.span("sched.replay_pws");
    main = ro::simulate(g, ro::sched_kind_of(opt.backend), opt.sim);
  }
  {
    SpanScope s = js.span("sched.replay_seq");
    seq = ro::simulate(g, ro::SchedKind::kSeq, opt.sim);
  }
  JobResult jr;
  jr.kind = JobKind::kRun;
  ro::RunReport& r = jr.report;
  r.has_graph = true;
  r.graph = gs;
  r.has_sim = true;
  r.p = opt.sim.p;
  r.M = opt.sim.M;
  r.B = opt.sim.B;
  r.sim = main;
  r.has_baseline = true;
  r.q_seq = seq.cache_misses();
  r.seq_makespan = seq.makespan;
  r.cache_excess = ro::excess(main.cache_misses(), r.q_seq);
  count_graph(c, gs);
  count_sim(c, main, r.q_seq);
  return jr;
}

/// kDiagnose: record, then the doctor loop over the stored trace.
JobResult diagnose_job(const JobSpans& js, ro::Engine& eng,
                       const JobSpec& spec, TaskGraph& g, Counts& c) {
  g = record(js, lookup(js, spec, spec.seed), spec.opt);
  JobResult jr;
  jr.kind = JobKind::kDiagnose;
  jr.has_doctor = true;
  {
    SpanScope s = js.span("doctor.diagnose");
    jr.doctor =
        eng.diagnose(g, spec.opt.backend, spec.opt.sim, spec.doc,
                     spec.opt.label);
  }
  const ro::RunReport& b = jr.doctor.before;
  count_graph(c, b.graph);
  count_sim(c, b.sim, b.q_seq);
  count_doctor(c, jr.doctor);
  return jr;
}

/// Capacity-shared kBatch: every shard recorded into one sharded space,
/// fused, and replayed on one shared machine with tenant attribution.
JobResult batch_job(const JobSpans& js, const JobSpec& spec, Counts& c,
                    std::string& error) {
  const ro::RunOptions& opt = spec.opt;
  if (!opt.capacity_shared || opt.trace.segment_tasks > 0) {
    error = "the layer pass decomposes capacity-shared in-memory batches only";
    return JobResult{};
  }
  const uint32_t n = spec.shards == 0 ? 1 : spec.shards;
  ro::ShardedVSpace ssp(n, opt.align_words);
  std::vector<TaskGraph> graphs(n);
  std::vector<ro::GraphStats> stats(n);
  for (uint32_t i = 0; i < n; ++i) {
    const ro::AnyProg prog = lookup(js, spec, spec.seed + i);
    SpanScope s = js.span("core.record");
    ro::TraceCtx::Options topt;
    topt.padded = opt.padded;
    ro::ShardCtx cx(ssp, i, topt);
    ro::detail::EngineCtx<ro::TraceCtx> ec(cx);
    prog(ec);
    graphs[i] = std::move(ec.graph());
  }
  for (uint32_t i = 0; i < n; ++i) {
    SpanScope s = js.span("core.analyze");
    stats[i] = graphs[i].analyze();
  }
  TaskGraph merged;
  {
    SpanScope s = js.span("core.merge_shards");
    merged = ro::merge_shards(std::move(graphs));
  }
  std::vector<ro::TenantShare> shares, base_shares;
  ro::Metrics main, base;
  {
    SpanScope s = js.span("sched.replay_pws");
    main = ro::simulate_shared(merged, ro::sched_kind_of(opt.backend),
                               opt.sim, &shares);
  }
  {
    SpanScope s = js.span("sched.replay_seq");
    base = ro::simulate_shared(merged, ro::SchedKind::kSeq, opt.sim,
                               &base_shares);
  }
  JobResult jr;
  jr.kind = JobKind::kBatch;
  jr.has_batch = true;
  ro::BatchReport& br = jr.batch;
  ro::RunReport& agg = br.aggregate;
  agg.has_graph = true;
  for (uint32_t i = 0; i < n; ++i) {
    ro::RunReport r;
    r.has_graph = true;
    r.graph = stats[i];
    r.has_tenant = true;
    r.tenant_compute = shares[i].compute;
    r.tenant_cache_misses = shares[i].cache_misses;
    r.tenant_block_misses = shares[i].block_misses;
    r.tenant_transfers = shares[i].transfers;
    r.has_baseline = true;
    r.q_seq = base_shares[i].cache_misses;
    r.seq_makespan = base.makespan;
    br.runs.push_back(r);
    agg.graph.work += stats[i].work;
    agg.graph.span = std::max(agg.graph.span, stats[i].span);
    agg.graph.max_depth = std::max(agg.graph.max_depth, stats[i].max_depth);
    agg.graph.activations += stats[i].activations;
    agg.graph.accesses += stats[i].accesses;
    agg.graph.leaves += stats[i].leaves;
  }
  agg.has_sim = true;
  agg.p = opt.sim.p;
  agg.M = opt.sim.M;
  agg.B = opt.sim.B;
  agg.sim = main;
  agg.has_baseline = true;
  agg.q_seq = base.cache_misses();
  agg.seq_makespan = base.makespan;
  count_graph(c, agg.graph);
  count_sim(c, main, agg.q_seq);
  return jr;
}

/// Codec round trip and flat-LRU drive over the job's recorded stream.
/// Reads a streamed trace back through AccessReader first, so it runs
/// after the store counters were taken.
void probe_trace(const JobSpans& js, const TaskGraph& g,
                 const ro::SimConfig& sim, Counts& c, ProbeTimes& pt,
                 Result& res) {
  std::vector<ro::Access> copy;
  const ro::Access* recs = g.accesses.data();
  const size_t n = g.acc_count();
  if (g.streaming()) {
    copy.resize(n);
    ro::AccessReader rd(g);
    for (size_t i = 0; i < n; ++i) copy[i] = rd.at(i);
    recs = copy.data();
  }
  std::vector<uint8_t> enc;
  enc.reserve(n * 4);
  std::vector<ro::Access> dec(n);
  {
    SpanScope s = js.span("core.codec_encode");
    c.codec_bytes = ro::encode_accesses(recs, n, enc);
    pt.encode_ms += s.close();
  }
  {
    SpanScope s = js.span("core.codec_decode");
    ro::decode_accesses(enc.data(), enc.size(), dec.data(), n);
    pt.decode_ms += s.close();
  }
  c.codec_records = n;
  pt.raw_bytes += n * sizeof(ro::Access);
  if (n > 0 && std::memcmp(dec.data(), recs, n * sizeof(ro::Access)) != 0)
    res.fail("codec round trip changed the trace");

  // The data blocks the recorded accesses touch, in order (frame traffic
  // depends on where replay places frames, so only global data counts).
  std::vector<uint64_t> blocks;
  for (size_t i = 0; i < n; ++i) {
    if (recs[i].act != ro::kNoAct || recs[i].len == 0) continue;
    for (uint64_t b = recs[i].addr / sim.B;
         b <= (recs[i].addr + recs[i].len - 1) / sim.B; ++b)
      blocks.push_back(b);
  }
  ro::FlatLru lru(static_cast<uint32_t>(sim.M / sim.B));
  uint64_t hits = 0;
  {
    SpanScope s = js.span("sim.lru");
    for (uint64_t b : blocks) hits += lru.access(b).hit ? 1 : 0;
    pt.lru_ms += s.close();
  }
  c.lru_accesses = blocks.size();
  c.lru_hits = hits;
  pt.lru_accesses += blocks.size();
}

double ratio(uint64_t a, uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

std::vector<double> values(const std::map<uint64_t, double>& m) {
  std::vector<double> v;
  for (const auto& [job, x] : m) v.push_back(x);
  return v;
}

}  // namespace

void run_layers(const WorkloadDef& def, Setup& st, double seconds,
                Tracer& tr, Result& res) {
  ro::serve::Client client;
  std::string err;
  if (!st.server || !client.connect(st.server->socket_path(), &err)) {
    res.fail("layer pass: no server connection " + err);
    return;
  }
  bool has_doctor_kind = false;
  for (const JobType& k : def.kinds)
    has_doctor_kind |= k.spec.kind == ro::JobKind::kDiagnose;

  Counts total;
  ProbeTimes pt;
  std::map<uint64_t, uint64_t> work_of;  // job -> work words
  std::vector<double> exec_ms, coverage, overhead;
  const auto stop = Clock::now() + std::chrono::duration<double>(seconds);
  // Every kind runs at least once, so the exact counts cover the mix.
  for (size_t i = 0; i < def.kinds.size() || Clock::now() < stop; ++i) {
    const Job j = nth_job(def, i);
    const uint64_t job = tr.next_job();
    SpanScope root(tr, "job", job);
    const JobSpans top{tr, job, root.id()};
    ++res.attempted;

    const std::string text = j.spec.to_json();
    JobSpec spec;
    bool parsed;
    {
      SpanScope s = top.span("engine.spec_parse");
      parsed = ro::jobspec_from_json(text, spec, &err);
    }
    if (!parsed) {
      res.fail(j.key + ": spec does not parse: " + err);
      continue;
    }

    Counts c;
    JobResult mine;
    double layers_ms = 0, layers_self = 0;
    {
      TaskGraph g;
      SpanScope layers = top.span("layers");
      const JobSpans in{tr, job, layers.id()};
      if (spec.kind == JobKind::kRun) {
        mine = run_job(in, spec, g, c);
      } else if (spec.kind == JobKind::kDiagnose) {
        mine = diagnose_job(in, *st.engine, spec, g, c);
      } else {
        std::string why;
        mine = batch_job(in, spec, c, why);
        if (!why.empty()) {
          res.fail(j.key + ": " + why);
          continue;
        }
      }
      layers_ms = layers.close();
      layers_self = tr.self_ms_by_job("layers")[job];
      count_store(c, g);

      SpanScope probes = top.span("probes");
      const JobSpans pin{tr, job, probes.id()};
      if (spec.kind != JobKind::kBatch)
        probe_trace(pin, g, spec.opt.sim, c, pt, res);
      if (i == 0 && !has_doctor_kind) {
        // This workload has no diagnose job: run the doctor loop once over
        // its recorded trace, so the layer is measured on every workload.
        SpanScope s = pin.span("doctor.diagnose");
        count_doctor(c, st.engine->diagnose(g, spec.opt.backend,
                                            spec.opt.sim, spec.doc,
                                            spec.opt.label));
      }
    }
    work_of[job] = c.work;

    // The untraced reference: the same spec through ro-serve.
    JobResult ref;
    bool sent;
    {
      SpanScope s = top.span("serve.client_submit");
      sent = client.submit(spec, ref);
    }
    if (!sent) {
      res.fail(j.key + ": connection dropped");
      continue;
    }
    JobResult back;
    bool round_trip;
    {
      SpanScope s = top.span("engine.result_json");
      round_trip = ro::jobresult_from_json(ref.to_json(), back);
    }

    const std::string want = st.expected[j.key];
    if (!ref.ok()) {
      res.fail(j.key + ": served job failed: " + ref.error);
    } else if (!round_trip || fingerprint(back) != fingerprint(ref)) {
      res.fail(j.key + ": JobResult JSON round trip lost statistics");
    } else if (fingerprint(mine) != fingerprint(ref)) {
      res.fail(j.key + ": traced Metrics differ from the untraced job's");
    } else if (fingerprint(ref) != want) {
      res.fail(j.key + ": simulated statistics drifted");
    } else {
      exec_ms.push_back(ref.exec_ms);
      coverage.push_back((layers_ms - layers_self) / ref.exec_ms);
      overhead.push_back((layers_ms - ref.exec_ms) / ref.exec_ms);
    }
    if (i < def.kinds.size()) total.add(c);
  }

  // Timings: medians over jobs of each layer's self time.
  auto med = [&](const char* name) { return median(values(tr.self_ms_by_job(name))); };
  auto per_word = [&](const char* name) {
    double ms = 0;
    uint64_t words = 0;
    for (const auto& [job, x] : tr.self_ms_by_job(name)) {
      ms += x;
      words += work_of[job];
    }
    return words == 0 ? 0.0 : ms * 1e6 / static_cast<double>(words);
  };
  res.set("core.record_ms", med("core.record"), "ms");
  res.set("core.record_ns_per_word", per_word("core.record"), "ns");
  res.set("core.analyze_ms", med("core.analyze"), "ms");
  res.set("core.codec_encode_mb_per_s",
          static_cast<double>(pt.raw_bytes) / kMiB / (pt.encode_ms / 1e3),
          "MiB/s");
  res.set("core.codec_decode_mb_per_s",
          static_cast<double>(pt.raw_bytes) / kMiB / (pt.decode_ms / 1e3),
          "MiB/s");
  res.set("sched.replay_pws_ms", med("sched.replay_pws"), "ms");
  res.set("sched.replay_seq_ms", med("sched.replay_seq"), "ms");
  res.set("sched.replay_ns_per_word", per_word("sched.replay_pws"), "ns");
  res.set("sim.lru_ns_per_access",
          pt.lru_accesses == 0
              ? 0.0
              : pt.lru_ms * 1e6 / static_cast<double>(pt.lru_accesses),
          "ns");
  res.set("doctor.diagnose_ms", med("doctor.diagnose"), "ms");
  res.set("engine.spec_parse_us", med("engine.spec_parse") * 1e3, "us");
  res.set("engine.result_json_us", med("engine.result_json") * 1e3, "us");
  res.set("engine.submit_ms", median(exec_ms), "ms");
  res.set("trace.span_coverage", median(coverage), "frac");
  res.set("trace.overhead_frac", median(overhead), "frac");

  // Exact counts, summed over one job of each kind.
  const Counts& t = total;
  res.set("core.activations", t.activations, "count");
  res.set("core.accesses", t.accesses, "count");
  res.set("core.work_words", t.work, "count");
  res.set("core.store_segment_loads", t.segment_loads, "count");
  res.set("core.store_spilled_mb", t.spilled_bytes / kMiB, "MiB");
  res.set("core.store_compressed_mb", t.compressed_bytes / kMiB, "MiB");
  res.set("core.store_peak_resident_mb", t.peak_resident_bytes / kMiB, "MiB");
  res.set("core.codec_bytes_per_record", ratio(t.codec_bytes, t.codec_records),
          "byte");
  res.set("sched.steals", t.steals, "count");
  res.set("sched.steal_attempts", t.steal_attempts, "count");
  res.set("sched.steal_success_ratio", ratio(t.steals, t.steal_attempts),
          "frac");
  res.set("sched.usurpations", t.usurpations, "count");
  res.set("sched.stack_words", t.stack_words, "count");
  res.set("sim.makespan_cycles", t.makespan, "count");
  res.set("sim.cache_misses", t.cache_misses, "count");
  res.set("sim.block_misses", t.block_misses, "count");
  res.set("sim.stack_misses", t.stack_misses, "count");
  res.set("sim.block_transfers", t.block_transfers, "count");
  res.set("sim.q_seq", t.q_seq, "count");
  res.set("sim.lru_hit_ratio", ratio(t.lru_hits, t.lru_accesses), "frac");
  res.set("doctor.findings", t.findings, "count");
  res.set("doctor.transfers_before", t.transfers_before, "count");
  res.set("doctor.transfers_after", t.transfers_after, "count");

  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "exact counts: activations=%llu accesses=%llu work=%llu "
      "segment_loads=%llu spilled_bytes=%llu compressed_bytes=%llu "
      "peak_resident_bytes=%llu codec_bytes=%llu steals=%llu "
      "steal_attempts=%llu usurpations=%llu stack_words=%llu makespan=%llu "
      "cache_misses=%llu block_misses=%llu stack_misses=%llu "
      "block_transfers=%llu q_seq=%llu lru_hits=%llu/%llu findings=%llu "
      "transfers=%llu->%llu",
      static_cast<unsigned long long>(t.activations),
      static_cast<unsigned long long>(t.accesses),
      static_cast<unsigned long long>(t.work),
      static_cast<unsigned long long>(t.segment_loads),
      static_cast<unsigned long long>(t.spilled_bytes),
      static_cast<unsigned long long>(t.compressed_bytes),
      static_cast<unsigned long long>(t.peak_resident_bytes),
      static_cast<unsigned long long>(t.codec_bytes),
      static_cast<unsigned long long>(t.steals),
      static_cast<unsigned long long>(t.steal_attempts),
      static_cast<unsigned long long>(t.usurpations),
      static_cast<unsigned long long>(t.stack_words),
      static_cast<unsigned long long>(t.makespan),
      static_cast<unsigned long long>(t.cache_misses),
      static_cast<unsigned long long>(t.block_misses),
      static_cast<unsigned long long>(t.stack_misses),
      static_cast<unsigned long long>(t.block_transfers),
      static_cast<unsigned long long>(t.q_seq),
      static_cast<unsigned long long>(t.lru_hits),
      static_cast<unsigned long long>(t.lru_accesses),
      static_cast<unsigned long long>(t.findings),
      static_cast<unsigned long long>(t.transfers_before),
      static_cast<unsigned long long>(t.transfers_after));
  res.notes.push_back(buf);
  std::snprintf(buf, sizeof buf,
                "layer pass: %zu jobs; spans cover %.3f of the untraced "
                "Engine::submit time; traced path overhead %.3f",
                exec_ms.size(), median(coverage), median(overhead));
  res.notes.push_back(buf);
}

}  // namespace perfbench
