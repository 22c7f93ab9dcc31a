// Engine tests: one program runs on all five backends with identical
// outputs (backend parity), record/replay plumbing, RunReport JSON, and
// pool caching.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "ro/alg/graphgen.h"
#include "ro/alg/listrank.h"
#include "ro/alg/mt.h"
#include "ro/alg/route.h"
#include "ro/alg/scan.h"
#include "ro/alg/sort.h"
#include "ro/alg/spms.h"
#include "ro/engine/engine.h"
#include "ro/engine/workloads.h"
#include "ro/util/rng.h"
#include "test_helpers.h"

namespace ro {
namespace {

using alg::i64;

constexpr Backend kNonSeqBackends[] = {
    Backend::kSimPws,         Backend::kSimRws,    Backend::kParRandom,
    Backend::kParPriority,    Backend::kParNumaRandom,
    Backend::kParNumaPriority};

/// Runs `make(out)`'s program on kSeq for the golden output, then on every
/// other backend, asserting identical results.
template <class MakeProg>
void expect_parity(const char* label, MakeProg make) {
  std::vector<i64> golden;
  RunOptions opt;
  opt.backend = Backend::kSeq;
  ASSERT_TRUE(testing::engine().submit({.opt = opt}, make(golden)).ok());
  ASSERT_FALSE(golden.empty()) << label;
  for (Backend b : kNonSeqBackends) {
    std::vector<i64> out;
    RunOptions o;
    o.backend = b;
    o.threads = backend_is_numa(b) ? 4 : 2;
    o.numa_groups = 2;    // forced topology: deterministic on any machine
    o.serial_below = 64;  // force real forking on the parallel backends
    const JobResult r_jr = testing::engine().submit({.opt = o}, make(out));
    ASSERT_TRUE(r_jr.ok()) << r_jr.error;
    const RunReport& r = r_jr.report;
    EXPECT_EQ(out, golden) << label << " under " << backend_name(b);
    EXPECT_EQ(r.has_sim, backend_is_sim(b));
    EXPECT_EQ(r.has_pool, backend_is_parallel(b));
    if (backend_is_numa(b)) EXPECT_EQ(r.pool_groups, 2u);
  }
}

TEST(EngineParity, Msum) {
  const size_t n = 4096;
  expect_parity("msum", [n](std::vector<i64>& out) {
    return [n, &out](auto& cx) {
      auto a = cx.template alloc<i64>(n, "a");
      for (size_t i = 0; i < n; ++i)
        a.raw()[i] = static_cast<i64>(i % 13) - 6;
      auto o = cx.template alloc<i64>(1, "o");
      cx.run(n, [&] { alg::msum(cx, a.slice(), o.slice()); });
      out.assign(o.raw(), o.raw() + 1);
    };
  });
}

TEST(EngineParity, PrefixSums) {
  const size_t n = 2048;
  expect_parity("prefix_sums", [n](std::vector<i64>& out) {
    return [n, &out](auto& cx) {
      auto a = cx.template alloc<i64>(n, "a");
      for (size_t i = 0; i < n; ++i) a.raw()[i] = static_cast<i64>(i % 7);
      auto o = cx.template alloc<i64>(n, "o");
      cx.run(2 * n, [&] { alg::prefix_sums(cx, a.slice(), o.slice()); });
      out.assign(o.raw(), o.raw() + n);
    };
  });
}

TEST(EngineParity, Sort) {
  const size_t n = 4096;
  expect_parity("msort", [n](std::vector<i64>& out) {
    return [n, &out](auto& cx) {
      auto a = cx.template alloc<i64>(n, "a");
      Rng rng(77);
      for (size_t i = 0; i < n; ++i)
        a.raw()[i] = static_cast<i64>(rng.next() >> 1);
      auto o = cx.template alloc<i64>(n, "o");
      cx.run(2 * n, [&] { alg::msort(cx, a.slice(), o.slice(), 8, 4); });
      out.assign(o.raw(), o.raw() + n);
    };
  });
}

TEST(EngineParity, MatrixTransposeBI) {
  const uint32_t side = 64;
  const size_t m = static_cast<size_t>(side) * side;
  expect_parity("mt_bi", [=](std::vector<i64>& out) {
    return [=, &out](auto& cx) {
      auto a = cx.template alloc<i64>(m, "a");
      for (size_t i = 0; i < m; ++i) a.raw()[i] = static_cast<i64>(i);
      auto o = cx.template alloc<i64>(m, "o");
      cx.run(2 * m, [&] { alg::mt_bi(cx, a.slice(), o.slice(), side); });
      out.assign(o.raw(), o.raw() + m);
    };
  });
}

TEST(EngineParity, ListRank) {
  const size_t n = 512;
  const auto succ = alg::random_list(n, 909);
  expect_parity("list_rank", [=](std::vector<i64>& out) {
    return [=, &out](auto& cx) {
      auto s = cx.template alloc<i64>(n, "s");
      std::copy(succ.begin(), succ.end(), s.raw());
      auto r = cx.template alloc<i64>(n, "r");
      cx.run(2 * n, [&] { alg::list_rank(cx, s.slice(), r.slice()); });
      out.assign(r.raw(), r.raw() + n);
    };
  });
}

TEST(Engine, RecordThenReplayMatchesRunReport) {
  const size_t n = 1024;
  auto prog = [n](auto& cx) {
    auto a = cx.template alloc<i64>(n, "a");
    for (size_t i = 0; i < n; ++i) a.raw()[i] = 1;
    auto o = cx.template alloc<i64>(n, "o");
    cx.run(2 * n, [&] { alg::prefix_sums(cx, a.slice(), o.slice()); });
  };
  Engine& eng = testing::engine();
  const TaskGraph rec = eng.record(prog);
  EXPECT_GT(rec.stats().activations, 0u);
  EXPECT_GT(rec.stats().accesses, 0u);

  SimConfig cfg;
  cfg.p = 4;
  const RunReport a = eng.replay(rec, Backend::kSimPws, cfg);
  RunOptions opt;
  opt.backend = Backend::kSimPws;
  opt.sim = cfg;
  const JobResult b_jr = eng.submit({.opt = opt}, prog);
  ASSERT_TRUE(b_jr.ok()) << b_jr.error;
  const RunReport& b = b_jr.report;
  // Recording is deterministic, PWS replay is deterministic: one-shot run
  // and record+replay must agree on every simulator observable.
  EXPECT_EQ(a.sim.makespan, b.sim.makespan);
  EXPECT_EQ(a.sim.cache_misses(), b.sim.cache_misses());
  EXPECT_EQ(a.sim.block_misses(), b.sim.block_misses());
  EXPECT_EQ(a.q_seq, b.q_seq);
  EXPECT_EQ(a.graph.work, b.graph.work);
}

TEST(Engine, SeqReplayBackendIsBaseline) {
  const size_t n = 512;
  const TaskGraph rec = testing::engine().record([n](auto& cx) {
    auto a = cx.template alloc<i64>(n, "a");
    auto o = cx.template alloc<i64>(1, "o");
    cx.run(n, [&] { alg::msum(cx, a.slice(), o.slice()); });
  });
  SimConfig cfg;
  cfg.p = 8;
  const RunReport r = testing::engine().replay(rec, Backend::kSeq, cfg);
  EXPECT_EQ(r.p, 1u);
  EXPECT_EQ(r.sim.block_misses(), 0u);
  EXPECT_EQ(r.sim.steals(), 0u);
  EXPECT_EQ(r.q_seq, r.sim.cache_misses());
  EXPECT_EQ(r.seq_makespan, r.sim.makespan);
  EXPECT_EQ(r.cache_excess, 0u);
}

TEST(Engine, ReportJsonCarriesBackendFields) {
  const size_t n = 256;
  auto prog = [n](auto& cx) {
    auto a = cx.template alloc<i64>(n, "a");
    auto o = cx.template alloc<i64>(1, "o");
    cx.run(n, [&] { alg::msum(cx, a.slice(), o.slice()); });
  };
  RunOptions opt;
  opt.label = "json \"probe\"";
  opt.backend = Backend::kSimPws;
  const JobResult r_jr = testing::engine().submit({.opt = opt}, prog);
  ASSERT_TRUE(r_jr.ok()) << r_jr.error;
  const RunReport& r = r_jr.report;
  const std::string j = r.to_json();
  EXPECT_NE(j.find("\"backend\":\"sim-pws\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"label\":\"json \\\"probe\\\"\""), std::string::npos)
      << j;
  EXPECT_NE(j.find("\"cache_misses\":"), std::string::npos) << j;
  EXPECT_NE(j.find("\"q_seq\":"), std::string::npos) << j;

  RunOptions par;
  par.backend = Backend::kParPriority;
  par.threads = 2;
  const JobResult rp_jr = testing::engine().submit({.opt = par}, prog);
  ASSERT_TRUE(rp_jr.ok()) << rp_jr.error;
  const RunReport& rp = rp_jr.report;
  const std::string jp = rp.to_json();
  EXPECT_NE(jp.find("\"threads\":2"), std::string::npos) << jp;
  EXPECT_NE(jp.find("\"pool_steals\":"), std::string::npos) << jp;
  EXPECT_EQ(jp.find("\"cache_misses\":"), std::string::npos) << jp;

  const std::string arr = reports_to_json({r, rp});
  EXPECT_EQ(arr.front(), '[');
  EXPECT_NE(arr.find("sim-pws"), std::string::npos);
  EXPECT_NE(arr.find("par-priority"), std::string::npos);
}

TEST(Engine, ReportJsonRoundTrips) {
  // Audit guard: every field to_json emits must survive
  // report_from_json(to_json(r)).to_json() == to_json(r) — a field dropped
  // or mangled by the writer/reader pair fails the string comparison.
  const size_t n = 512;
  auto prog = [n](auto& cx) {
    auto a = cx.template alloc<i64>(n, "a");
    for (size_t i = 0; i < n; ++i) a.raw()[i] = static_cast<i64>(i % 9);
    auto o = cx.template alloc<i64>(n, "o");
    cx.run(2 * n, [&] { alg::prefix_sums(cx, a.slice(), o.slice()); });
  };
  // A sim report with nontrivial steal/hold/L2 traffic...
  RunOptions opt;
  opt.backend = Backend::kSimPws;
  opt.label = "round \"trip\"";
  opt.sim.p = 4;
  opt.sim.M = 1 << 10;
  opt.sim.B = 16;
  opt.sim.M2 = 1 << 12;
  opt.sim.write_hold = 8;
  const JobResult r_jr = testing::engine().submit({.opt = opt}, prog);
  ASSERT_TRUE(r_jr.ok()) << r_jr.error;
  const RunReport& r = r_jr.report;
  ASSERT_GT(r.sim.steals(), 0u);
  const std::string j = r.to_json();
  RunReport back;
  ASSERT_TRUE(report_from_json(j, back)) << j;
  EXPECT_EQ(back.to_json(), j);
  EXPECT_EQ(back.label, r.label);
  EXPECT_EQ(back.sim.cache_misses(), r.sim.cache_misses());
  EXPECT_EQ(back.sim.stack_misses(), r.sim.stack_misses());
  EXPECT_EQ(back.q_seq, r.q_seq);

  // ...and a pool report (no sim section at all).
  RunOptions par;
  par.backend = Backend::kParRandom;
  par.threads = 2;
  const JobResult rp_jr = testing::engine().submit({.opt = par}, prog);
  ASSERT_TRUE(rp_jr.ok()) << rp_jr.error;
  const RunReport& rp = rp_jr.report;
  const std::string jp = rp.to_json();
  RunReport backp;
  ASSERT_TRUE(report_from_json(jp, backp)) << jp;
  EXPECT_EQ(backp.to_json(), jp);
  EXPECT_FALSE(backp.has_sim);
  EXPECT_TRUE(backp.has_pool);

  EXPECT_FALSE(report_from_json("not json", backp));
}

TEST(Engine, ReportJsonCarriesAuditedSimFields) {
  // The fields report.cpp once silently dropped from the sim/graph merge.
  RunOptions opt;
  opt.backend = Backend::kSimPws;
  const size_t n = 256;
  const JobResult jr =
      testing::engine().submit({.opt = opt}, [n](auto& cx) {
        auto a = cx.template alloc<i64>(n, "a");
        auto o = cx.template alloc<i64>(1, "o");
        cx.run(n, [&] { alg::msum(cx, a.slice(), o.slice()); });
      });
  ASSERT_TRUE(jr.ok()) << jr.error;
  const RunReport& r = jr.report;
  const std::string j = r.to_json();
  for (const char* key :
       {"\"leaves\":", "\"compute\":", "\"steal_cycles\":", "\"l2_hits\":",
        "\"hold_waits\":", "\"total_block_transfers\":",
        "\"max_block_transfers\":", "\"stack_words\":"}) {
    EXPECT_NE(j.find(key), std::string::npos) << key << " missing in " << j;
  }
}

TEST(Engine, ReportJsonEscapesLabelStrings) {
  // Regression: a label containing quotes, backslashes, newlines or raw
  // control bytes must still serialize to valid JSON (the kv helper once
  // wrote string values verbatim).
  RunReport r;
  r.label = "a\"b\\c\nd\te\rf\x01g";
  const std::string j = r.to_json();
  EXPECT_NE(j.find("\"label\":\"a\\\"b\\\\c\\nd\\te\\rf\\u0001g\""),
            std::string::npos)
      << j;
  // No raw control bytes and no unescaped quote may survive inside the
  // serialized value.
  const auto val_at = j.find("a\\\"");
  ASSERT_NE(val_at, std::string::npos);
  for (char c : j) EXPECT_GE(static_cast<unsigned char>(c), 0x20) << j;
}

TEST(EngineParity, SpmsSort) {
  const size_t n = 2048;
  expect_parity("spms", [n](std::vector<i64>& out) {
    return [n, &out](auto& cx) {
      auto a = cx.template alloc<i64>(n, "a");
      Rng rng(99);
      for (size_t i = 0; i < n; ++i)
        a.raw()[i] = static_cast<i64>(rng.next() >> 1);
      auto o = cx.template alloc<i64>(n, "o");
      cx.run(2 * n, [&] { alg::spms(cx, a.slice(), o.slice()); });
      out.assign(o.raw(), o.raw() + n);
    };
  });
}

TEST(Engine, BackendNamesRoundTrip) {
  for (Backend b : kAllBackends) {
    Backend parsed;
    ASSERT_TRUE(parse_backend(backend_name(b), parsed));
    EXPECT_EQ(parsed, b);
  }
  Backend out;
  EXPECT_TRUE(parse_backend("pws", out));
  EXPECT_EQ(out, Backend::kSimPws);
  EXPECT_FALSE(parse_backend("warp-drive", out));
}

/// Submits the msum workload on a parallel backend and returns its report.
RunReport run_par(Engine& eng, Backend b, unsigned threads,
                  uint32_t groups = 0, double escape = 1.0 / 16) {
  JobSpec spec;
  spec.workload = "msum";
  spec.n = 1 << 10;
  spec.opt.backend = b;
  spec.opt.threads = threads;
  spec.opt.numa_groups = groups;
  spec.opt.numa_escape = escape;
  const JobResult jr = eng.submit(spec);
  EXPECT_TRUE(jr.ok()) << jr.error;
  return jr.report;
}

TEST(Engine, PoolIsCachedPerPolicy) {
  Engine eng;
  EXPECT_EQ(run_par(eng, Backend::kParRandom, 2).threads, 2u);
  EXPECT_EQ(eng.pools_created(), 1u);
  EXPECT_EQ(run_par(eng, Backend::kParRandom, 2).threads, 2u);
  EXPECT_EQ(eng.pools_created(), 1u);  // same config: the cached pool
  EXPECT_EQ(run_par(eng, Backend::kParPriority, 2).threads, 2u);
  EXPECT_EQ(eng.pools_created(), 2u);  // other policy: its own pool
  EXPECT_EQ(run_par(eng, Backend::kParRandom, 3).threads, 3u);
  EXPECT_EQ(eng.pools_created(), 3u);  // other size: its own pool
}

TEST(Engine, NumaPoolIsCachedPerConfig) {
  Engine eng;
  const RunReport a = run_par(eng, Backend::kParNumaRandom, 4, 2);
  EXPECT_EQ(a.threads, 4u);
  EXPECT_EQ(a.pool_groups, 2u);
  EXPECT_EQ(eng.pools_created(), 1u);
  run_par(eng, Backend::kParNumaRandom, 4, 2);
  EXPECT_EQ(eng.pools_created(), 1u);  // same config: cached
  EXPECT_EQ(run_par(eng, Backend::kParNumaRandom, 4, 4).pool_groups, 4u);
  EXPECT_EQ(eng.pools_created(), 2u);  // group count change: new pool
  run_par(eng, Backend::kParNumaRandom, 4, 4, /*escape=*/0.5);
  EXPECT_EQ(eng.pools_created(), 3u);  // escape change: new pool
  // NUMA pools are keyed apart from the flat ones.
  EXPECT_EQ(run_par(eng, Backend::kParRandom, 4).pool_groups, 1u);
  EXPECT_EQ(eng.pools_created(), 4u);
}

TEST(Engine, ThreadsZeroMeansHardwareConcurrency) {
  // threads = 0 is stateless: an earlier job's pool size never leaks into
  // a later job (on ro-serve, one tenant's request into another's).
  unsigned hw = std::thread::hardware_concurrency();
  hw = hw == 0 ? 2 : std::min(hw, rt::kMaxPoolThreads);
  Engine eng;
  EXPECT_EQ(run_par(eng, Backend::kParRandom, 0).threads, hw);
  EXPECT_EQ(run_par(eng, Backend::kParRandom, 2).threads, 2u);
  EXPECT_EQ(run_par(eng, Backend::kParRandom, 0).threads, hw);
  EXPECT_EQ(run_par(eng, Backend::kParNumaPriority, 2, 1).threads, 2u);
  EXPECT_EQ(run_par(eng, Backend::kParNumaPriority, 0, 1).threads, hw);
}

TEST(Engine, SubmitRejectsBadSpecsInsteadOfAborting) {
  Engine eng;
  JobSpec spec;  // no workload, no program
  EXPECT_EQ(eng.submit(spec).status, JobStatus::kError);
  spec.workload = "no-such-workload";
  EXPECT_EQ(eng.submit(spec).status, JobStatus::kError);
  spec.workload = "msum";
  spec.opt.sim.p = 0;  // invalid machine
  spec.opt.backend = Backend::kSimPws;
  EXPECT_EQ(eng.submit(spec).status, JobStatus::kError);
  spec.opt.sim.p = 4;
  spec.kind = JobKind::kDiagnose;
  spec.opt.backend = Backend::kParRandom;  // diagnose needs a sim backend
  EXPECT_EQ(eng.submit(spec).status, JobStatus::kError);
}

TEST(Engine, ConcurrentSubmitsShareThePoolCacheSafely) {
  // The redesigned API's core claim: many threads may call submit() on one
  // Engine at once.  Sequential same-config callers must still reuse one
  // pool (no unbounded growth), concurrent callers get siblings, and every
  // result stays bit-identical to a solo run.  Under TSan/ASan this is
  // also the regression test for the old lazily-created-pool data race.
  Engine eng;
  JobSpec spec;
  spec.workload = "msum";
  spec.n = 1 << 10;
  spec.opt.backend = Backend::kParRandom;
  spec.opt.threads = 2;
  const JobResult golden = eng.submit(spec);
  ASSERT_TRUE(golden.ok()) << golden.error;

  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        JobSpec s = spec;
        const JobResult jr = eng.submit(s);
        if (!jr.ok() || !jr.report.has_pool) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  // At most one pool per concurrent caller (plus the golden's): the cache
  // reuses free pools instead of creating one per submit.
  EXPECT_LE(eng.pools_created(), static_cast<size_t>(kThreads + 1));
  // Sim-backend submits race the same way.
  spec.opt.backend = Backend::kSimPws;
  spec.opt.threads = 0;
  std::vector<std::thread> sims;
  std::atomic<int> sim_failures{0};
  for (int t = 0; t < 4; ++t) {
    sims.emplace_back([&] {
      const JobResult jr = eng.submit(spec);
      if (!jr.ok()) sim_failures.fetch_add(1);
    });
  }
  for (std::thread& w : sims) w.join();
  EXPECT_EQ(sim_failures.load(), 0);
}

/// Two jobs meeting inside their programs: each announces itself, then
/// waits a bounded time for the other to arrive while it is still there.
struct Rendezvous {
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;

  /// True when the other job arrived within the bound.
  bool meet() {
    std::unique_lock<std::mutex> lk(mu);
    ++arrived;
    cv.notify_all();
    return cv.wait_for(lk, std::chrono::seconds(5),
                       [&] { return arrived == 2; });
  }
};

/// An SPMS sort of n keys under the job's tuning that first meets `rv`
/// (when non-null), recording whether it saw the other job and whether
/// its output came out sorted.
auto meeting_sort(size_t n, Rendezvous* rv, std::atomic<bool>* saw,
                  std::atomic<bool>* sorted) {
  return [=](auto& cx) {
    auto a = cx.template alloc<i64>(n, "a");
    Rng rng(n);
    for (size_t i = 0; i < n; ++i)
      a.raw()[i] = static_cast<i64>(rng.next() >> 1);
    auto o = cx.template alloc<i64>(n, "o");
    if (rv != nullptr) *saw = rv->meet();
    cx.run(2 * n, [&] { alg::sort_by(cx, alg::SortKind::kSpms, a.slice(),
                                     o.slice()); });
    *sorted = std::is_sorted(o.raw(), o.raw() + n);
  };
}

TEST(Engine, DifferentlyTunedSubmitsOverlap) {
  // A job's SPMS tuning is part of the job, not of the process: two jobs
  // with different tunings are in flight at once, and each sorts exactly
  // as it does alone.
  const size_t n = 4096;
  alg::SpmsTuning staged;
  staged.interleave = false;
  for (const Backend b : {Backend::kSeq, Backend::kSimPws}) {
    SCOPED_TRACE(backend_name(b));
    Engine eng;
    JobSpec spec[2];
    for (JobSpec& s : spec) s.opt.backend = b;
    spec[1].opt.spms = staged;

    std::atomic<bool> saw[2] = {false, false};
    std::atomic<bool> sorted[2] = {false, false};
    JobResult solo[2];
    for (int i = 0; i < 2; ++i) {
      solo[i] = eng.submit(spec[i], meeting_sort(n, nullptr, nullptr,
                                                 &sorted[i]));
      ASSERT_TRUE(solo[i].ok()) << solo[i].error;
    }

    Rendezvous rv;
    JobResult pair[2];
    std::vector<std::thread> jobs;
    for (int i = 0; i < 2; ++i) {
      jobs.emplace_back([&, i] {
        pair[i] = eng.submit(spec[i],
                             meeting_sort(n, &rv, &saw[i], &sorted[i]));
      });
    }
    for (std::thread& j : jobs) j.join();
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(pair[i].ok()) << pair[i].error;
      EXPECT_TRUE(saw[i]) << "job " << i << " ran without the other";
      EXPECT_TRUE(sorted[i]) << "job " << i;
      EXPECT_EQ(pair[i].report.has_graph, backend_is_sim(b));
      EXPECT_EQ(pair[i].report.graph.span, solo[i].report.graph.span)
          << "job " << i;
    }
    if (backend_is_sim(b)) {  // the tunings differ where it shows
      EXPECT_LT(solo[0].report.graph.span, solo[1].report.graph.span);
    }
  }
}

TEST(Engine, CapacitySharedBatchAttributesEveryMissAndTransfer) {
  Engine eng;
  JobSpec spec;
  spec.kind = JobKind::kBatch;
  spec.workload = "sort";
  spec.n = 1 << 10;
  spec.shards = 3;
  spec.opt.backend = Backend::kSimPws;
  spec.opt.label = "shared";
  spec.opt.capacity_shared = true;
  const JobResult jr = eng.submit(spec);
  ASSERT_TRUE(jr.ok() && jr.has_batch) << jr.error;
  const BatchReport& br = jr.batch;
  EXPECT_TRUE(br.capacity_shared);
  ASSERT_EQ(br.runs.size(), 3u);
  uint64_t cache = 0, block = 0, transfers = 0;
  for (const RunReport& r : br.runs) {
    ASSERT_TRUE(r.has_tenant);
    cache += r.tenant_cache_misses;
    block += r.tenant_block_misses;
    transfers += r.tenant_transfers;
  }
  // Per-tenant attribution is a partition of the shared machine's totals:
  // nothing double-counted, nothing dropped.
  ASSERT_TRUE(br.aggregate.has_sim);
  EXPECT_EQ(cache, br.aggregate.sim.cache_misses());
  EXPECT_EQ(block, br.aggregate.sim.block_misses());
  EXPECT_EQ(transfers, br.aggregate.sim.total_block_transfers);
  // And the whole thing is deterministic: a second submit is identical.
  const JobResult again = eng.submit(spec);
  ASSERT_TRUE(again.ok() && again.has_batch);
  std::string a = br.to_json();
  std::string b = again.batch.to_json();
  for (std::string* s : {&a, &b}) {  // wall fields differ, metrics may not
    for (const char* key : {"\"wall_ms\":", "\"record_ms\":",
                            "\"replay_ms\":"}) {
      size_t i;
      while ((i = s->find(key)) != std::string::npos)
        s->erase(i, s->find(',', i) + 1 - i);
    }
  }
  EXPECT_EQ(a, b);
}

TEST(Engine, NumaReportCarriesLocalityCounters) {
  const size_t n = 4096;
  auto prog = [n](auto& cx) {
    auto a = cx.template alloc<i64>(n, "a");
    for (size_t i = 0; i < n; ++i) a.raw()[i] = 1;
    auto o = cx.template alloc<i64>(1, "o");
    cx.run(n, [&] { alg::msum(cx, a.slice(), o.slice()); });
  };
  RunOptions opt;
  opt.backend = Backend::kParNumaPriority;
  opt.threads = 4;
  opt.numa_groups = 2;
  opt.serial_below = 64;
  const JobResult r_jr = testing::engine().submit({.opt = opt}, prog);
  ASSERT_TRUE(r_jr.ok()) << r_jr.error;
  const RunReport& r = r_jr.report;
  EXPECT_TRUE(r.has_pool);
  EXPECT_EQ(r.pool_groups, 2u);
  EXPECT_EQ(r.pool_local_steals + r.pool_remote_steals, r.pool_steals);
  // Per-group histogram: one bucket per group, sums matching the totals.
  ASSERT_EQ(r.pool_group_local_steals.size(), 2u);
  ASSERT_EQ(r.pool_group_remote_steals.size(), 2u);
  uint64_t loc = 0, rem = 0;
  for (uint32_t g = 0; g < 2; ++g) {
    loc += r.pool_group_local_steals[g];
    rem += r.pool_group_remote_steals[g];
  }
  EXPECT_EQ(loc, r.pool_local_steals);
  EXPECT_EQ(rem, r.pool_remote_steals);
  const std::string j = r.to_json();
  EXPECT_NE(j.find("\"backend\":\"par-numa-priority\""), std::string::npos);
  EXPECT_NE(j.find("\"pool_groups\":2"), std::string::npos) << j;
  EXPECT_NE(j.find("\"pool_local_steals\":"), std::string::npos) << j;
  EXPECT_NE(j.find("\"pool_remote_steals\":"), std::string::npos) << j;
  EXPECT_NE(j.find("\"pool_group_local_steals\":["), std::string::npos) << j;
  EXPECT_NE(j.find("\"pool_group_remote_steals\":["), std::string::npos) << j;
  RunReport back;
  ASSERT_TRUE(report_from_json(j, back)) << j;
  EXPECT_EQ(back.to_json(), j);  // numa pool fields survive the round trip
  EXPECT_EQ(back.pool_groups, r.pool_groups);
  EXPECT_EQ(back.pool_local_steals, r.pool_local_steals);
  EXPECT_EQ(back.pool_group_local_steals, r.pool_group_local_steals);
  EXPECT_EQ(back.pool_group_remote_steals, r.pool_group_remote_steals);
}

TEST(Engine, MalformedHistogramArrayParsesWithoutSpinning) {
  // Regression: a non-numeric array element must terminate the list scan,
  // not loop forever pushing zeros.
  RunReport out;
  const std::string j =
      "{\"label\":\"x\",\"backend\":\"par-random\",\"threads\":2,"
      "\"pool_group_local_steals\":[x],\"pool_steals\":7}";
  ASSERT_TRUE(report_from_json(j, out));
  EXPECT_TRUE(out.pool_group_local_steals.empty());
  EXPECT_EQ(out.pool_steals, 7u);  // fields after the array still parse
}

/// The satellite workloads of the NUMA backends: sort-routed gather
/// (route), list ranking, and SPMS, swept over forced group counts 1/2/4.
/// Outputs must be bit-identical to the seq golden run for every count —
/// the pool only reschedules race-free work.
TEST(EngineNuma, GroupCountParityOnRouteListrankSpms) {
  const size_t n = 512;
  const auto succ = alg::random_list(n, 1234);

  auto make_route = [n](std::vector<i64>& out) {
    return [n, &out](auto& cx) {
      auto idx = cx.template alloc<i64>(n, "idx");
      auto vals = cx.template alloc<i64>(n, "vals");
      for (size_t i = 0; i < n; ++i) {
        idx.raw()[i] = static_cast<i64>((i * 7 + 3) % n);
        vals.raw()[i] = static_cast<i64>(i * i % 101);
      }
      auto o = cx.template alloc<i64>(n, "o");
      cx.run(2 * n, [&] {
        alg::gather(cx, alg::StridedView{idx.slice(), 1},
                    alg::StridedView{vals.slice(), 1},
                    alg::StridedView{o.slice(), 1}, n);
      });
      out.assign(o.raw(), o.raw() + n);
    };
  };
  auto make_lr = [n, &succ](std::vector<i64>& out) {
    return [n, &succ, &out](auto& cx) {
      auto s = cx.template alloc<i64>(n, "s");
      std::copy(succ.begin(), succ.end(), s.raw());
      auto r = cx.template alloc<i64>(n, "r");
      cx.run(2 * n, [&] { alg::list_rank(cx, s.slice(), r.slice()); });
      out.assign(r.raw(), r.raw() + n);
    };
  };
  auto make_spms = [n](std::vector<i64>& out) {
    return [n, &out](auto& cx) {
      auto a = cx.template alloc<i64>(n, "a");
      Rng rng(321);
      for (size_t i = 0; i < n; ++i)
        a.raw()[i] = static_cast<i64>(rng.next() >> 1);
      auto o = cx.template alloc<i64>(n, "o");
      cx.run(2 * n, [&] { alg::spms(cx, a.slice(), o.slice()); });
      out.assign(o.raw(), o.raw() + n);
    };
  };

  auto sweep = [&](const char* label, auto make) {
    std::vector<i64> golden;
    RunOptions seq;
    seq.backend = Backend::kSeq;
    ASSERT_TRUE(testing::engine().submit({.opt = seq}, make(golden)).ok());
    ASSERT_FALSE(golden.empty()) << label;
    for (Backend b : {Backend::kParNumaRandom, Backend::kParNumaPriority}) {
      for (uint32_t groups : {1u, 2u, 4u}) {
        std::vector<i64> out;
        RunOptions o;
        o.backend = b;
        o.threads = 4;
        o.numa_groups = groups;
        o.serial_below = 64;
        const JobResult r_jr = testing::engine().submit({.opt = o}, make(out));
        ASSERT_TRUE(r_jr.ok()) << r_jr.error;
        const RunReport& r = r_jr.report;
        EXPECT_EQ(out, golden)
            << label << " under " << backend_name(b) << " groups=" << groups;
        EXPECT_EQ(r.pool_groups, groups);
        EXPECT_EQ(r.pool_local_steals + r.pool_remote_steals, r.pool_steals);
      }
    }
  };
  sweep("route", make_route);
  sweep("listrank", make_lr);
  sweep("spms", make_spms);
}

}  // namespace
}  // namespace ro
