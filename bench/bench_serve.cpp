// bench_serve — open-loop arrival benchmark for the ro-serve daemon
// (src/ro/serve, docs/serve.md).
//
// An in-process Server listens on a temp Unix socket; three tenants fire
// jobs at FIXED arrival offsets (open-loop: arrivals never wait for
// completions), each job on its own client connection.  The bench then
// asserts the service contract:
//
//   * every served job's deterministic simulator metrics are bit-identical
//     to a one-shot Engine::submit of the same spec (RO_CHECK),
//   * admission saw >= 2 jobs in flight at once (the service really ran
//     tenants concurrently, not serially),
//   * a capacity-shared batch served over the wire carries per-tenant
//     attribution that sums to the machine totals (RO_CHECK).
//
// Output rows (BENCH_serve.json): one RunReport per distinct job spec
// (deterministic fields gate exactly in CI), the shared batch's per-shard
// tenant rows, and one flat "serve-openloop" summary with the latency
// percentiles and throughput that accumulate in BENCH_history.json.
//
//   $ ./bench_serve [--jobs-per-tenant=6] [--arrival-ms=10]
//                   [--max-inflight=3] [--out=BENCH_serve.json]
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <thread>
#include <vector>

#include "common.h"
#include "ro/serve/client.h"
#include "ro/serve/server.h"
#include "ro/util/flatjson.h"

using namespace ro;
using namespace ro::bench;

namespace {

struct SpecCase {
  const char* tenant;
  JobSpec spec;
};

JobSpec make_spec(const char* tenant, const char* label, const char* workload,
                  uint64_t n, JobKind kind = JobKind::kRun,
                  uint32_t shards = 1) {
  JobSpec s;
  s.tenant = tenant;
  s.kind = kind;
  s.workload = workload;
  s.n = n;
  s.shards = shards;
  s.opt.backend = Backend::kSimPws;
  s.opt.label = label;
  s.opt.capacity_shared = kind == JobKind::kBatch;
  return s;
}

/// The deterministic fields the serve path must reproduce bit-identically.
void check_same_metrics(const RunReport& a, const RunReport& b,
                        const char* what) {
  RO_CHECK_MSG(a.has_sim == b.has_sim, what);
  if (!a.has_sim) return;
  RO_CHECK_MSG(a.sim.makespan == b.sim.makespan, what);
  RO_CHECK_MSG(a.sim.cache_misses() == b.sim.cache_misses(), what);
  RO_CHECK_MSG(a.sim.block_misses() == b.sim.block_misses(), what);
  RO_CHECK_MSG(a.sim.steals() == b.sim.steals(), what);
  RO_CHECK_MSG(a.q_seq == b.q_seq, what);
  RO_CHECK_MSG(a.tenant_cache_misses == b.tenant_cache_misses, what);
  RO_CHECK_MSG(a.tenant_block_misses == b.tenant_block_misses, what);
  RO_CHECK_MSG(a.tenant_transfers == b.tenant_transfers, what);
}

void check_same_result(const JobResult& served, const JobResult& golden) {
  RO_CHECK_MSG(served.ok() && golden.ok(),
               "a scheduled job failed; the bench specs must all run");
  if (served.has_batch) {
    check_same_metrics(served.batch.aggregate, golden.batch.aggregate,
                       "served batch aggregate drifted from one-shot");
    RO_CHECK_MSG(served.batch.runs.size() == golden.batch.runs.size(),
                 "served batch shard count drifted");
    for (size_t i = 0; i < served.batch.runs.size(); ++i)
      check_same_metrics(served.batch.runs[i], golden.batch.runs[i],
                         "served batch shard drifted from one-shot");
  } else {
    check_same_metrics(served.report, golden.report,
                       "served metrics drifted from one-shot submit");
  }
}

double percentile(std::vector<double> v, double q) {
  RO_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const size_t i = static_cast<size_t>(q * static_cast<double>(v.size() - 1));
  return v[i];
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const uint64_t jobs_per_tenant =
      static_cast<uint64_t>(cli.get_int("jobs-per-tenant", 6));
  const double arrival_ms = cli.get_double("arrival-ms", 10.0);
  serve::Server::Options sopt;
  sopt.socket_path = "/tmp/ro-serve-bench." + std::to_string(::getpid()) +
                     ".sock";
  sopt.admission.max_inflight =
      static_cast<uint32_t>(cli.get_int("max-inflight", 3));

  // The tenant mix: three workload families plus one capacity-shared batch
  // (tenants sharing one simulated cache, attributed per shard).
  std::vector<SpecCase> cases = {
      {"alice", make_spec("alice", "serve-msum", "msum", 1 << 14)},
      {"bob", make_spec("bob", "serve-ps", "ps", 1 << 13)},
      {"carol", make_spec("carol", "serve-sort", "sort", 1 << 12)},
      {"carol", make_spec("carol", "serve-shared", "sort", 1 << 11,
                          JobKind::kBatch, 3)},
  };

  // One-shot goldens through the same Engine API, before the server runs.
  std::vector<JobResult> golden;
  for (const SpecCase& c : cases) {
    golden.push_back(engine().submit(c.spec));
    RO_CHECK_MSG(golden.back().ok(), golden.back().error.c_str());
  }

  serve::Server server(sopt);
  std::string err;
  if (!server.start(&err)) {
    std::fprintf(stderr, "bench_serve: %s\n", err.c_str());
    return 1;
  }

  // Open-loop schedule: tenant t's job j arrives at (t + 3j) * arrival_ms,
  // regardless of completions — every tenant's first job lands inside the
  // first arrival window, so the service must overlap them.
  struct Arrival {
    size_t case_idx;
    double at_ms;
  };
  std::vector<Arrival> schedule;
  for (uint64_t j = 0; j < jobs_per_tenant; ++j)
    for (size_t t = 0; t < cases.size(); ++t)
      schedule.push_back(
          {t, (static_cast<double>(t) + 3.0 * static_cast<double>(j)) *
                  arrival_ms});

  std::mutex lat_mu;
  std::vector<double> latencies;
  std::vector<JobResult> last_served(cases.size());
  std::atomic<uint64_t> failures{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(schedule.size());
  for (const Arrival& a : schedule) {
    threads.emplace_back([&, a] {
      std::this_thread::sleep_until(
          t0 + std::chrono::duration<double, std::milli>(a.at_ms));
      serve::Client client;
      JobResult jr;
      const auto s0 = std::chrono::steady_clock::now();
      if (!client.connect(server.socket_path()) ||
          !client.submit(cases[a.case_idx].spec, jr) || !jr.ok()) {
        failures.fetch_add(1);
        return;
      }
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - s0)
                            .count();
      std::lock_guard<std::mutex> lk(lat_mu);
      latencies.push_back(ms);
      last_served[a.case_idx] = std::move(jr);
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  const serve::Admission::Stats st = server.admission_stats();
  const uint64_t jobs = server.jobs_served();
  server.stop();

  RO_CHECK_MSG(failures.load() == 0, "some served jobs failed");
  RO_CHECK_MSG(jobs == schedule.size(), "not every arrival was served");
  // The service contract: tenants really overlapped, and what the wire
  // returned is bit-identical to a one-shot in-process submit.
  RO_CHECK_MSG(st.inflight_peak >= 2,
               "open-loop arrivals never overlapped; the service ran "
               "tenants serially");
  for (size_t i = 0; i < cases.size(); ++i)
    check_same_result(last_served[i], golden[i]);

  const double p50 = percentile(latencies, 0.50);
  const double p95 = percentile(latencies, 0.95);
  const double p99 = percentile(latencies, 0.99);
  const double throughput = static_cast<double>(jobs) / wall_s;

  Table t("ro-serve open loop: 3 tenants + 1 shared batch, fixed arrivals");
  t.header({"jobs", "inflight-peak", "p50-ms", "p95-ms", "p99-ms",
            "jobs/s"});
  t.row({Table::num(static_cast<uint64_t>(jobs)),
         Table::num(static_cast<uint64_t>(st.inflight_peak)),
         Table::num(p50), Table::num(p95), Table::num(p99),
         Table::num(throughput)});
  t.print();

  // Rows: the deterministic per-spec reports (exact CI gate), the shared
  // batch's tenant-attributed shard rows, and the flat latency summary.
  std::string out_json = "[";
  auto push_row = [&](const std::string& row) {
    if (out_json.size() > 1) out_json += ",";
    out_json += row;
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    if (last_served[i].has_batch) {
      push_row(last_served[i].batch.aggregate.to_json());
      for (const RunReport& r : last_served[i].batch.runs)
        push_row(r.to_json());
    } else {
      push_row(last_served[i].report.to_json());
    }
  }
  {
    std::string s = "{";
    json::kv_str(s, "label", "serve-openloop");
    json::kv_str(s, "backend", "service");
    json::kv(s, "jobs", jobs);
    json::kv(s, "tenants", uint64_t{3});
    json::kv(s, "max_inflight", uint64_t{sopt.admission.max_inflight});
    json::kv(s, "inflight_peak", uint64_t{st.inflight_peak});
    json::kv(s, "queued", st.queued);
    json::kv(s, "wall_ms", wall_s * 1000.0);
    json::kv(s, "p50_ms", p50);
    json::kv(s, "p95_ms", p95);
    json::kv(s, "p99_ms", p99);
    json::kv(s, "throughput_jobs_s", throughput);
    s += "}";
    push_row(s);
  }
  out_json += "]";

  const std::string out = cli.get_str("out", "BENCH_serve.json");
  std::ofstream f(out);
  f << out_json;
  if (!f) {
    std::fprintf(stderr, "error: could not write %s\n", out.c_str());
    return 1;
  }
  std::printf("\nwrote %zu served spec row(s) + summary to %s\n",
              cases.size(), out.c_str());
  return 0;
}
