// Set-up and the untraced load generators: the closed loop of hbp-sort and
// bp-scan-stream, and the open loop of serve-mix.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "ro/serve/admission.h"
#include "ro/serve/client.h"
#include "ro/util/rng.h"

namespace perfbench {

using ro::JobResult;
using ro::JobSpec;
using ro::serve::Admission;
using ro::serve::Client;

namespace {

/// Client connections of the open loop, and the server's in-flight bound.
constexpr uint32_t kConnections = 3;

/// Window of the open loop's tail latency, by due time.
constexpr double kTailWindowMs = 5000;

/// One job per tenant resident at a time: the budget admits the largest
/// single job of the mix, so a tenant's second concurrent job queues in
/// admission instead of being refused.
uint64_t tenant_budget(const WorkloadDef& def) {
  uint64_t b = 1;
  for (const JobType& k : def.kinds)
    b = std::max(b, ro::serve::estimate_job_bytes(k.spec));
  return b;
}

/// Checks a served or submitted result against the kind's fingerprint;
/// "" when it matches.
std::string check_result(const JobResult& jr, const std::string& want) {
  if (jr.status == ro::JobStatus::kRejected) return "refused: " + jr.error;
  if (!jr.ok()) return "error: " + jr.error;
  if (fingerprint(jr) != want) return "simulated statistics drifted";
  return "";
}

/// Socket of the in-process server, in the working directory.
std::string socket_path() {
  return "perfbench-" + std::to_string(::getpid()) + ".sock";
}

}  // namespace

std::unique_ptr<Setup> run_setup(const WorkloadDef& def, bool with_server,
                                 Result& res) {
  auto st = std::make_unique<Setup>();
  st->engine = std::make_unique<ro::Engine>();
  // Every input of every kind, through benchmark-owned programs whose
  // outputs are checked: their fingerprint is what every later job of the
  // run must match.
  for (size_t n = 0; n < def.kinds.size() * def.inputs; ++n) {
    const Job j = nth_job(def, n);
    std::string err;
    ++res.attempted;
    const JobResult jr = submit_verified(*st->engine, j.spec, err);
    if (!err.empty()) res.fail(j.key + ": " + err);
    st->expected[j.key] = fingerprint(jr);
  }
  if (!with_server) return st;

  ro::serve::Server::Options so;
  so.socket_path = socket_path();
  so.admission.max_inflight = kConnections;
  so.admission.tenant_budget_bytes = tenant_budget(def);
  st->server = std::make_unique<ro::serve::Server>(so);
  std::string err;
  if (!st->server->start(&err)) {
    res.fail("server start: " + err);
    st->server.reset();
    return st;
  }
  // Warm-up: one job of each kind over the wire.
  Client c;
  if (!c.connect(so.socket_path, &err)) {
    res.fail("connect: " + err);
    return st;
  }
  for (size_t n = 0; n < def.kinds.size(); ++n) {
    const Job j = nth_job(def, n);
    ++res.attempted;
    JobResult jr;
    if (!c.submit(j.spec, jr)) {
      res.fail(j.key + ": warm-up connection dropped");
      continue;
    }
    const std::string why = check_result(jr, st->expected[j.key]);
    if (!why.empty()) res.fail(j.key + " (warm-up over the wire): " + why);
  }
  return st;
}

void check_canaries(const WorkloadDef& def, ro::Engine& engine,
                    const std::map<std::string, std::string>& committed,
                    Result& res) {
  for (const JobType& k : def.kinds) {
    const std::string key = def.name + "/" + k.key;
    JobSpec canary = k.spec;
    canary.seed = 0;
    ++res.attempted;
    const JobResult jc = engine.submit(canary);
    const std::string fp = jc.ok() ? fingerprint(jc) : "error";
    std::fprintf(stderr, "canary %s %s\n", key.c_str(), fp.c_str());
    const auto it = committed.find(key);
    if (!jc.ok()) {
      res.fail(key + ": canary job failed: " + jc.error);
    } else if (it == committed.end()) {
      res.fail(key + ": no committed fingerprint");
    } else if (it->second != fp) {
      res.fail(key + ": canary fingerprint " + fp + " != committed " +
               it->second + " (a simulated statistic moved)");
    }
  }
}

void run_closed_loop(const WorkloadDef& def, Setup& st, double seconds,
                     Result& res) {
  std::vector<double> lat;
  uint64_t ok = 0, good = 0, work = 0;
  const auto t0 = Clock::now();
  const auto stop = t0 + std::chrono::duration<double>(seconds);
  for (size_t i = 0; i == 0 || Clock::now() < stop; ++i) {
    const Job j = nth_job(def, i);
    ++res.attempted;
    std::string err;
    double ms = 0;
    const JobResult jr = submit_verified(*st.engine, j.spec, err, &ms);
    if (err.empty()) err = check_result(jr, st.expected[j.key]);
    if (!err.empty()) {
      res.fail(j.key + ": " + err);
      continue;
    }
    ++ok;
    lat.push_back(ms);
    if (ms <= def.limit_ms) ++good;
    work += job_work(jr);
  }
  const double s = ms_between(t0, Clock::now()) / 1000.0;
  const Tail t = tail_of(lat);
  res.set("jobs_per_s", static_cast<double>(ok) / s, "1/s");
  res.set("goodput_jobs_per_s", static_cast<double>(good) / s, "1/s");
  res.set("job_ms_p50", median(lat), "ms");
  res.set("job_ms_tail", t.value, "ms");
  res.set("sim_mwords_per_s", static_cast<double>(work) / s / 1e6, "Mword/s");
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "closed loop: %llu ok jobs in %.2f s; job_ms_tail is p%.1f "
                "of %zu samples",
                static_cast<unsigned long long>(ok), s, t.percentile,
                t.samples);
  res.notes.push_back(buf);
}

void run_open_loop(const WorkloadDef& def, Setup& st, uint64_t seed,
                   double seconds, Tracer* tracer, Result& res,
                   std::vector<WireSample>* wire) {
  if (!st.server) {
    res.fail("open loop without a server");
    return;
  }
  // Seeded Poisson arrivals at the workload's fixed offered rate.  Job
  // kinds take turns, so every run offers the same mix.
  struct Arrival {
    double due_ms;
    Job job;
  };
  std::vector<Arrival> sched;
  ro::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x0be7);
  for (double t = 0;;) {
    t += -std::log(1.0 - rng.next_double()) * 1000.0 / def.rate_per_s;
    if (t >= seconds * 1000.0) break;
    sched.push_back({t, nth_job(def, sched.size())});
  }

  // What is kept of each job: its result is checked as it arrives, so the
  // run's memory does not grow with the number of jobs.
  struct Outcome {
    bool sent = false;
    bool refused = false;
    std::string why;  // "" when the result is correct
    uint64_t work = 0;
    Clock::time_point done;
    double from_due_ms = 0;  // completion - due time
    WireSample w;
  };
  std::vector<Outcome> out(sched.size());
  std::vector<std::unique_ptr<Client>> clients;
  for (uint32_t c = 0; c < kConnections; ++c) {
    clients.push_back(std::make_unique<Client>());
    std::string err;
    if (!clients.back()->connect(st.server->socket_path(), &err)) {
      res.fail("connect: " + err);
      return;
    }
  }
  Admission::Stats before, after;
  uint64_t jobs_before = 0, jobs_after = 0;
  if (!clients[0]->stats(before, &jobs_before)) {
    res.fail("stats op failed");
    return;
  }

  std::atomic<size_t> next{0};
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  auto worker = [&](Client& client) {
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= sched.size()) return;
      const Arrival& a = sched[i];
      const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double, std::milli>(
                                    a.due_ms));
      Outcome& o = out[i];
      JobResult jr;
      // Sent on time when a connection is free at the due time; how late
      // the sleep woke is the generator's own lateness.  A job picked up
      // after its due time waited for a connection, which its latency
      // (timed from the due time) already counts.
      const bool early = Clock::now() < due;
      if (early) std::this_thread::sleep_until(due);
      const auto send = Clock::now();
      if (early) o.w.gen_late_ms = ms_between(due, send);
      {
        std::unique_ptr<SpanScope> span;
        if (tracer != nullptr)
          span = std::make_unique<SpanScope>(*tracer, "serve.client_submit",
                                             tracer->next_job());
        o.sent = client.submit(a.job.spec, jr);
      }
      o.done = Clock::now();
      o.from_due_ms = ms_between(due, o.done);
      o.w.latency_ms = ms_between(send, o.done);
      o.w.exec_ms = jr.exec_ms;
      o.w.queue_ms = jr.queue_ms;
      o.refused = jr.status == ro::JobStatus::kRejected;
      o.why = check_result(jr, st.expected.at(a.job.key));
      o.work = job_work(jr);
    }
  };
  std::vector<std::thread> threads;
  for (auto& c : clients) threads.emplace_back(worker, std::ref(*c));
  for (std::thread& t : threads) t.join();
  if (!clients[0]->stats(after, &jobs_after)) {
    res.fail("stats op failed");
    return;
  }

  std::vector<double> lat;
  std::vector<std::vector<double>> windows(
      static_cast<size_t>(std::ceil(seconds * 1000.0 / kTailWindowMs)));
  uint64_t ok = 0, good = 0, work = 0, served = 0, refused = 0;
  Clock::time_point last = t0;
  for (size_t i = 0; i < sched.size(); ++i) {
    const Outcome& o = out[i];
    const Job& j = sched[i].job;
    ++res.attempted;
    if (!o.sent) {
      res.fail(j.key + ": connection dropped");
      continue;
    }
    last = std::max(last, o.done);
    if (o.refused) ++refused;
    else ++served;
    if (!o.why.empty()) {
      res.fail(j.key + ": " + o.why);
      continue;
    }
    ++ok;
    lat.push_back(o.from_due_ms);
    windows[static_cast<size_t>(sched[i].due_ms / kTailWindowMs)].push_back(
        o.from_due_ms);
    if (o.from_due_ms <= def.limit_ms) ++good;
    work += o.work;
    if (wire != nullptr) wire->push_back(o.w);
  }
  // The daemon's admission counters, read over the wire, must account for
  // exactly what the clients saw.
  if (after.admitted - before.admitted != served ||
      after.rejected - before.rejected != refused ||
      jobs_after - jobs_before != served) {
    res.fail("daemon stats disagree with client counts");
  }
  if (tracer != nullptr) return;  // end-to-end numbers come untraced only

  // The tail of the whole run would be its 11th-slowest job of ~2400, so a
  // single host stall of a few hundred ms would decide it.  The reported
  // tail is the median over the windows of each window's tail.
  std::vector<double> tails;
  for (const std::vector<double>& w : windows) tails.push_back(tail_of(w).value);
  const Tail first = tail_of(windows.front());
  const Tail whole = tail_of(lat);
  const double s = std::max(ms_between(t0, last), 1e-3) / 1000.0;
  res.set("jobs_per_s", static_cast<double>(ok) / s, "1/s");
  res.set("goodput_jobs_per_s", static_cast<double>(good) / s, "1/s");
  res.set("job_ms_p50", median(lat), "ms");
  res.set("job_ms_tail", median(tails), "ms");
  res.set("sim_mwords_per_s", static_cast<double>(work) / s / 1e6, "Mword/s");
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "open loop: %zu arrivals at %.0f/s, %llu ok in %.2f s, "
                "%llu within %.0f ms; job_ms_tail is the median over %zu "
                "windows of %.0f s of each window's tail (the first: p%.1f "
                "of %zu samples); whole-run tail p%.1f %.2f ms",
                sched.size(), def.rate_per_s,
                static_cast<unsigned long long>(ok), s,
                static_cast<unsigned long long>(good), def.limit_ms,
                windows.size(), kTailWindowMs / 1000.0, first.percentile,
                first.samples, whole.percentile, whole.value);
  res.notes.push_back(buf);
}

void emit_serve_metrics(const std::vector<WireSample>& wire, Setup& st,
                        Result& res) {
  std::vector<double> wire_ms, queue, exec;
  double late = 0;
  for (const WireSample& w : wire) {
    wire_ms.push_back(w.latency_ms - w.exec_ms - w.queue_ms);
    queue.push_back(w.queue_ms);
    exec.push_back(w.exec_ms);
    late = std::max(late, w.gen_late_ms);
  }
  const Tail qt = tail_of(queue);
  res.set("serve.wire_ms_p50", median(wire_ms), "ms");
  res.set("serve.queue_ms_p50", median(queue), "ms");
  res.set("serve.queue_ms_tail", qt.value, "ms");
  res.set("serve.exec_ms_p50", median(exec), "ms");
  res.set("serve.gen_late_ms_max", late, "ms");
  Client c;
  Admission::Stats a;
  if (!st.server || !c.connect(st.server->socket_path()) || !c.stats(a)) {
    res.fail("stats op failed");
    return;
  }
  res.set("serve.inflight_peak", a.inflight_peak, "count");
  res.set("serve.queued", static_cast<double>(a.queued), "count");
}

}  // namespace perfbench
