// Shared declarations of the repository benchmark (see README.md).
//
// The benchmark drives the ro library only through its public functions
// and times those calls from outside; nothing in src/ is instrumented.
#pragma once

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ro/engine/engine.h"
#include "ro/engine/job.h"
#include "ro/serve/server.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- the job catalogue (jobs.cpp) ----------------------------------------

/// One kind of job a workload submits.
struct JobType {
  std::string key;  // stable name, also the committed-fingerprint key
  ro::JobSpec spec; // at the run's first input
};

struct WorkloadDef {
  std::string name;
  std::vector<JobType> kinds;
  /// Inputs per run: input j of a kind runs at its JobSpec::seed + j.  One
  /// input's quirks (an SPMS sort's host time moves ~10% with its keys at
  /// equal work) would otherwise set the run's medians.
  uint32_t inputs = 1;
  bool open_loop = false;  // untraced run: Poisson arrivals over the wire
  double rate_per_s = 0;   // offered rate of every open loop it runs
  double limit_ms = 0;     // goodput latency limit
};

/// The named workload at run seed `seed`; false for an unknown name.
bool make_workload_def(const std::string& name, uint64_t seed,
                       WorkloadDef& out);

/// A job to submit, with the key of the fingerprint it must reproduce.
struct Job {
  std::string key;  // "<kind>#<input>"
  ro::JobSpec spec;
};

/// The n-th job of every loop: the kinds take turns, then the inputs.
Job nth_job(const WorkloadDef& def, size_t n);

/// Runs `spec` through Engine::submit with benchmark-owned programs that
/// mirror the registry workload (same inputs, same trace) and checks the
/// algorithm's outputs: a sorted permutation, prefix sums, sums, counters.
/// An unverifiable or wrong output is reported in `error`.
/// `submit_ms`, when non-null, receives the time of the Engine::submit
/// call alone.
ro::JobResult submit_verified(ro::Engine& engine, const ro::JobSpec& spec,
                              std::string& error, double* submit_ms = nullptr);

/// Hash of every deterministic simulated statistic a JobResult carries
/// over the wire (graph stats, aggregate Metrics, baseline, tenant shares,
/// doctor findings).  Timings are excluded.
std::string fingerprint(const ro::JobResult& jr);

/// GraphStats::work of a finished job (summed over shards).
uint64_t job_work(const ro::JobResult& jr);

// ---- spans (trace.cpp) ---------------------------------------------------

/// In-memory span recorder for the traced run: name, start, end, parent
/// span and job id, written out when the run ends.  Thread-safe.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_ms = 0;
    double end_ms = -1;  // -1 while open
    int64_t parent = -1;
    uint64_t job = 0;
  };

  /// A fresh job id (1, 2, ...), so spans of different phases never share
  /// one.
  uint64_t next_job() { return ++jobs_; }

  int64_t begin(const std::string& name, uint64_t job, int64_t parent);
  /// Closes span `id` and returns its duration in ms.
  double end(int64_t id);

  /// Per job, the summed self time (ms) of spans called `name` — a span's
  /// duration minus the part its child spans cover.  Jobs without such a
  /// span are absent.
  std::map<uint64_t, double> self_ms_by_job(const std::string& name) const;

  bool write_jsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<uint64_t> jobs_{0};
  const Clock::time_point t0_ = Clock::now();
};

/// RAII span.
class SpanScope {
 public:
  SpanScope(Tracer& t, const std::string& name, uint64_t job,
            int64_t parent = -1)
      : t_(t), id_(t.begin(name, job, parent)) {}
  ~SpanScope() { close(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int64_t id() const { return id_; }
  double close() {
    if (!open_) return ms_;
    open_ = false;
    ms_ = t_.end(id_);
    return ms_;
  }

 private:
  Tracer& t_;
  const int64_t id_;
  bool open_ = true;
  double ms_ = 0;
};

// ---- results -------------------------------------------------------------

/// Everything the run reports: the correctness tally and named metrics.
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;  // value,unit
  std::vector<std::string> notes;  // human-readable lines before the JSON

  void fail(const std::string& why);
  /// A value that is not finite (a rate over no time) fails the run.
  void set(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      fail(name + " is not finite");
      value = 0;
    }
    metrics[name] = {value, unit};
  }
};

double median(std::vector<double> v);

/// The highest percentile with at least ten samples beyond it: the value
/// at rank n-11 of the sorted samples (the maximum below 11 samples).
struct Tail {
  double value = 0;
  double percentile = 0;
  size_t samples = 0;
};
Tail tail_of(std::vector<double> v);

// ---- the run phases (run.cpp, layers.cpp) --------------------------------

/// State built by one set-up: the benchmark's Engine, an in-process
/// ro-serve Server when the run needs one, and the fingerprint each job
/// of the run must reproduce.
struct Setup {
  std::unique_ptr<ro::Engine> engine;
  std::unique_ptr<ro::serve::Server> server;  // null when not needed
  std::map<std::string, std::string> expected;  // Job::key -> fingerprint
};

/// Client-observed numbers of one job sent over the wire.
struct WireSample {
  double latency_ms = 0;  // client send -> reply parsed
  double exec_ms = 0;     // server-reported Engine::submit time
  double queue_ms = 0;    // server-reported admission wait
  double gen_late_ms = 0; // how late the generator sent it
};

std::unique_ptr<Setup> run_setup(const WorkloadDef& def, bool with_server,
                                 Result& res);

/// Each kind through the registry program at the default seed must
/// reproduce its committed fingerprint, so any change to a simulated
/// statistic fails the run.
void check_canaries(const WorkloadDef& def, ro::Engine& engine,
                    const std::map<std::string, std::string>& committed,
                    Result& res);

/// Untraced closed loop: one in-process caller of Engine::submit.
void run_closed_loop(const WorkloadDef& def, Setup& st, double seconds,
                     Result& res);

/// Open loop over the wire (seeded Poisson arrivals, three connections).
/// With a tracer, client calls are wrapped in spans.
void run_open_loop(const WorkloadDef& def, Setup& st, uint64_t seed,
                   double seconds, Tracer* tracer, Result& res,
                   std::vector<WireSample>* wire);

/// The traced layer pass: every job runs decomposed through the layers'
/// public functions under spans, then once more untraced over the wire,
/// and the two must agree.  Emits the per-layer metrics into `res`.
void run_layers(const WorkloadDef& def, Setup& st, double seconds,
                Tracer& tracer, Result& res);

/// Serve-layer metrics from client samples plus the daemon's counters.
void emit_serve_metrics(const std::vector<WireSample>& wire, Setup& st,
                        Result& res);

}  // namespace perfbench
