// Sharded record/replay pipeline tests: shard address disjointness at the
// context level, concurrent-vs-sequential recording equality, merged-graph
// structure, replay metrics determinism across --replay-threads, and
// the batch-job BatchReport.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "ro/alg/graphgen.h"
#include "ro/alg/listrank.h"
#include "ro/alg/route.h"
#include "ro/alg/scan.h"
#include "ro/alg/spms.h"
#include "ro/core/shard_ctx.h"
#include "ro/engine/engine.h"
#include "ro/rt/pool.h"
#include "ro/util/rng.h"
#include "test_helpers.h"

namespace ro {
namespace {

using alg::i64;
using testing::prog_listrank;
using testing::prog_route;
using testing::prog_spms;

SimConfig small_machine(uint32_t threads = 1) {
  SimConfig cfg;
  cfg.p = 4;
  cfg.M = 1 << 10;
  cfg.B = 16;
  cfg.replay_threads = threads;
  return cfg;
}

/// Structural equality of two recordings (addresses included).
void expect_same_trace(const TaskGraph& a, const TaskGraph& b) {
  EXPECT_EQ(a.acts, b.acts);
  EXPECT_EQ(a.segments, b.segments);
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.root, b.root);
  EXPECT_EQ(a.data_base, b.data_base);
  EXPECT_EQ(a.data_top, b.data_top);
}

TEST(ShardCtx, RecordsIntoItsOwnShard) {
  ShardedVSpace ssp(3);
  for (uint32_t s = 0; s < 3; ++s) {
    ShardCtx cx(ssp, s);
    EXPECT_EQ(cx.shard(), s);
    auto a = cx.alloc<i64>(64, "a");
    EXPECT_EQ(shard_of(a.vbase()), s);
    EXPECT_EQ(shard_offset(a.vbase()), 0u);  // first allocation of the shard
    EXPECT_EQ(ssp.region_of(a.vbase()), "a");
  }
  // Standalone flavour: same addresses as the shared-space flavour.
  ShardCtx lone(2u);
  auto b = lone.alloc<i64>(8, "b");
  EXPECT_EQ(shard_of(b.vbase()), 2u);
  EXPECT_EQ(b.vbase(), shard_base(2));
}

TEST(ShardCtx, ShardChoiceOnlyOffsetsAddresses) {
  // The same program recorded in shard 0 and shard 5 must differ *only* by
  // the shard base in global addresses — structure, frame offsets, and
  // (rebased) replay metrics all identical.
  const size_t n = 512;
  auto prog = prog_route(n);
  Engine& eng = testing::engine();
  const TaskGraph r0 = eng.record(prog);
  const TaskGraph r5 = eng.record(prog, false, 4096, /*shard=*/5);
  ASSERT_EQ(r0.accesses.size(), r5.accesses.size());
  EXPECT_EQ(r0.acts, r5.acts);
  const vaddr_t base5 = shard_base(5);
  EXPECT_EQ(r5.data_base, base5);
  for (size_t i = 0; i < r0.accesses.size(); ++i) {
    const Access& a0 = r0.accesses[i];
    const Access& a5 = r5.accesses[i];
    if (a0.act == kNoAct) {
      EXPECT_EQ(a5.addr, a0.addr + base5);
    } else {
      EXPECT_EQ(a5.addr, a0.addr);  // frame offsets are shard-agnostic
    }
  }
  const SimConfig cfg = small_machine();
  EXPECT_EQ(simulate(r0, SchedKind::kPws, cfg),
            simulate(r5, SchedKind::kPws, cfg));
}

TEST(Batch, ConcurrentRecordingMatchesSequential) {
  // Four shards recording concurrently must produce the same traces as
  // recording them one after another.
  const size_t n = 256;
  const uint32_t kShards = 4;
  auto record_all = [&](bool concurrent) {
    ShardedVSpace ssp(kShards);
    std::vector<TaskGraph> graphs(kShards);
    auto rec_one = [&](size_t i) {
      ShardCtx cx(ssp, static_cast<uint32_t>(i));
      auto a = cx.alloc<i64>(n, "a");
      for (size_t j = 0; j < n; ++j)
        a.raw()[j] = static_cast<i64>((j * (i + 3)) % 97);
      auto o = cx.alloc<i64>(n, "o");
      graphs[i] =
          cx.run(2 * n, [&] { alg::prefix_sums(cx, a.slice(), o.slice()); });
    };
    if (concurrent) {
      rt::Pool pool(4, rt::StealPolicy::kRandom);
      rt::parallel_index(pool, kShards, rec_one);
    } else {
      for (size_t i = 0; i < kShards; ++i) rec_one(i);
    }
    return graphs;
  };
  const std::vector<TaskGraph> seq = record_all(false);
  const std::vector<TaskGraph> par = record_all(true);
  for (uint32_t i = 0; i < kShards; ++i) {
    expect_same_trace(par[i], seq[i]);
    EXPECT_EQ(shard_of(seq[i].data_base), i);
  }
}

TEST(Batch, MergeShardsRemapsIndices) {
  const size_t n = 128;
  Engine& eng = testing::engine();
  std::vector<TaskGraph> parts;
  parts.push_back(eng.record(prog_route(n), false, 4096, 0));
  parts.push_back(eng.record(prog_listrank(n), false, 4096, 1));
  const size_t acts0 = parts[0].acts.size();
  const size_t segs0 = parts[0].segments.size();
  const size_t accs0 = parts[0].accesses.size();
  const TaskGraph snd = parts[1];  // copy for comparison after the move
  TaskGraph m = merge_shards(std::move(parts));

  ASSERT_EQ(m.shards.size(), 2u);
  EXPECT_EQ(m.shards[0].shard, 0u);
  EXPECT_EQ(m.shards[1].shard, 1u);
  EXPECT_EQ(m.shards[1].first_act, acts0);
  EXPECT_EQ(m.shards[1].first_seg, segs0);
  EXPECT_EQ(m.root, m.shards[0].root);
  ASSERT_EQ(m.acts.size(), acts0 + snd.acts.size());

  // The second component must be the second input, shifted.
  for (size_t i = 0; i < snd.acts.size(); ++i) {
    const Activation& got = m.acts[acts0 + i];
    const Activation& want = snd.acts[i];
    if (want.parent == kNoAct) {
      EXPECT_EQ(got.parent, kNoAct);
    } else {
      EXPECT_EQ(got.parent, want.parent + acts0);
    }
    EXPECT_EQ(got.first_seg, want.first_seg + segs0);
    EXPECT_EQ(got.depth, want.depth);
    EXPECT_EQ(got.frame_words, want.frame_words);
  }
  for (size_t i = 0; i < snd.accesses.size(); ++i) {
    const Access& got = m.accesses[accs0 + i];
    const Access& want = snd.accesses[i];
    EXPECT_EQ(got.addr, want.addr);  // addresses survive the merge verbatim
    if (want.act == kNoAct) {
      EXPECT_EQ(got.act, kNoAct);
    } else {
      EXPECT_EQ(got.act, static_cast<uint32_t>(want.act + acts0));
    }
  }
}

TEST(Batch, MergedReplayEqualsStandaloneReplays) {
  // Replaying the merged batch must give exactly the merge of replaying
  // each recording on its own machine — the sharded accounting is exact,
  // not approximate.
  const size_t n = 192;
  Engine& eng = testing::engine();
  std::vector<TaskGraph> parts;
  parts.push_back(eng.record(prog_route(n), false, 4096, 0));
  parts.push_back(eng.record(prog_listrank(n), false, 4096, 1));
  parts.push_back(eng.record(prog_spms(4 * n), false, 4096, 2));
  const SimConfig cfg = small_machine();
  std::vector<Metrics> lone;
  for (const TaskGraph& g : parts) {
    lone.push_back(simulate(g, SchedKind::kPws, cfg));
  }
  const TaskGraph merged = merge_shards(std::move(parts));
  EXPECT_EQ(simulate(merged, SchedKind::kPws, cfg),
            merge_shard_metrics(lone));
}

TEST(Batch, ReplayThreadsAreMetricsDeterministic) {
  // The acceptance criterion: --replay-threads in {1, 2, 8} yields
  // bit-identical Metrics on route / listrank / SPMS traces, single-shard
  // and merged-batch, under both PWS and (seeded) RWS.  Engine::replay
  // with the p=1 baseline on overlaps the two walks when threads > 1.
  const size_t n = 160;
  Engine& eng = testing::engine();
  std::vector<TaskGraph> parts;
  parts.push_back(eng.record(prog_route(n), false, 4096, 0));
  parts.push_back(eng.record(prog_listrank(n), false, 4096, 1));
  parts.push_back(eng.record(prog_spms(4 * n), false, 4096, 2));
  const auto expect_deterministic = [&](const TaskGraph& g,
                                        const std::string& what) {
    for (const Backend b : {Backend::kSimPws, Backend::kSimRws}) {
      const RunReport base = eng.replay(g, b, small_machine(1));
      for (const uint32_t t : {2u, 8u}) {
        const RunReport r = eng.replay(g, b, small_machine(t));
        const std::string where =
            what + " " + backend_name(b) + " threads=" + std::to_string(t);
        EXPECT_EQ(r.sim, base.sim) << where;
        EXPECT_EQ(r.q_seq, base.q_seq) << where;
        EXPECT_EQ(r.seq_makespan, base.seq_makespan) << where;
      }
    }
  };
  for (const TaskGraph& g : parts) expect_deterministic(g, "single-shard");
  expect_deterministic(merge_shards(std::move(parts)), "merged");
}

/// FNV-1a over every Metrics field in declaration order: one number that
/// changes when any per-core counter, the makespan, a steal-priority
/// count, a transfer statistic or the stack high-water changes.
uint64_t metrics_fingerprint(const Metrics& m) {
  uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  mix(m.core.size());
  for (const CoreMetrics& c : m.core) {
    mix(c.compute);
    for (const auto& row : c.miss) {
      for (const uint64_t x : row) mix(x);
    }
    mix(c.steals);
    mix(c.steal_attempts);
    mix(c.usurpations);
    mix(c.idle);
    mix(c.steal_cycles);
    mix(c.finish);
    mix(c.l2_hits);
    mix(c.hold_waits);
  }
  mix(m.makespan);
  mix(m.steals_per_priority.size());
  for (const auto& [depth, steals] : m.steals_per_priority) {
    mix(depth);
    mix(steals);
  }
  mix(m.max_block_transfers);
  mix(m.total_block_transfers);
  mix(m.stack_words);
  return h;
}

struct Golden {
  const char* workload;  // route / listrank / spms, or the merged batch
  SchedKind kind;
  const char* machine;   // plain / write_hold / l2 / l2x16
  uint64_t makespan, cache_misses, block_misses, l2_hits, hold_waits;
  uint64_t fingerprint;  // metrics_fingerprint
};

// Frozen from the node-based reference data plane (std::list +
// std::unordered_map LRU) before it was retired; that plane and FlatLru
// agreed bit for bit on every row.  They are the only exact pins of the
// §5.1 write-hold protocol (hold_waits > 0) and of the §5.2 partitioned-L2
// op order (l2_hits > 0, on p = 1 at M2 = 4M and on p = 4 at M2 = 16M).
constexpr Golden kGoldens[] = {
    {"route", SchedKind::kSeq, "plain", 15955, 102, 0, 0, 0,
     0xb0f5f9f287790f7full},
    {"listrank", SchedKind::kSeq, "plain", 354100, 2600, 0, 0, 0,
     0x96739ed7c391304aull},
    {"spms", SchedKind::kSeq, "plain", 28027, 294, 0, 0, 0,
     0xc0a2137fd6f5cb7cull},
    {"route", SchedKind::kPws, "plain", 14071, 531, 166, 0, 0,
     0x989ad9eaa3d55342ull},
    {"listrank", SchedKind::kPws, "plain", 425617, 15161, 6935, 0, 0,
     0xeac3b3484b3d3701ull},
    {"spms", SchedKind::kPws, "plain", 13755, 601, 63, 0, 0,
     0xefb30510e74da3b5ull},
    {"route", SchedKind::kRws, "plain", 12951, 458, 100, 0, 0,
     0x9d971ed446391f89ull},
    {"listrank", SchedKind::kRws, "plain", 419645, 12970, 4332, 0, 0,
     0xcd87fd1b94c33563ull},
    {"spms", SchedKind::kRws, "plain", 14013, 609, 68, 0, 0,
     0x0b9c50e2864514afull},
    {"route", SchedKind::kSeq, "write_hold", 15955, 102, 0, 0, 0,
     0xb0f5f9f287790f7full},
    {"listrank", SchedKind::kSeq, "write_hold", 354100, 2600, 0, 0, 0,
     0x96739ed7c391304aull},
    {"spms", SchedKind::kSeq, "write_hold", 28027, 294, 0, 0, 0,
     0xc0a2137fd6f5cb7cull},
    {"route", SchedKind::kPws, "write_hold", 13636, 539, 84, 0, 1813,
     0x8dd7420706dbed7full},
    {"listrank", SchedKind::kPws, "write_hold", 421267, 15275, 3896, 0, 64044,
     0x8abdb0c6be3ed742ull},
    {"spms", SchedKind::kPws, "write_hold", 13960, 623, 43, 0, 510,
     0x73cd3c7a4ec2b7ceull},
    {"route", SchedKind::kRws, "write_hold", 12062, 431, 51, 0, 811,
     0xd686aa89f3e09bf6ull},
    {"listrank", SchedKind::kRws, "write_hold", 421721, 12888, 2681, 0, 35902,
     0x0c3fbe084ec5aa37ull},
    {"spms", SchedKind::kRws, "write_hold", 15247, 621, 56, 0, 566,
     0x0bdad6989f397601ull},
    {"route", SchedKind::kSeq, "l2", 15955, 102, 0, 0, 0,
     0xb0f5f9f287790f7full},
    {"listrank", SchedKind::kSeq, "l2", 343684, 2618, 0, 458, 0,
     0x11665723d5f8a7a1ull},
    {"spms", SchedKind::kSeq, "l2", 25987, 294, 0, 85, 0,
     0x079080bf59d4fee9ull},
    {"route", SchedKind::kPws, "l2", 14071, 531, 166, 0, 0,
     0x989ad9eaa3d55342ull},
    {"listrank", SchedKind::kPws, "l2", 431289, 15301, 7027, 0, 0,
     0x4b2b26df49648e1bull},
    {"spms", SchedKind::kPws, "l2", 13574, 600, 61, 0, 0,
     0xada233d726ed1902ull},
    {"route", SchedKind::kRws, "l2", 12951, 458, 100, 0, 0,
     0x9d971ed446391f89ull},
    {"listrank", SchedKind::kRws, "l2", 420964, 12994, 4513, 0, 0,
     0x27231a7037bbd218ull},
    {"spms", SchedKind::kRws, "l2", 14682, 601, 70, 0, 0,
     0x6bd0ff44f2950941ull},
    {"route", SchedKind::kSeq, "l2x16", 15955, 102, 0, 0, 0,
     0xb0f5f9f287790f7full},
    {"listrank", SchedKind::kSeq, "l2x16", 341364, 2604, 0, 536, 0,
     0xf44457700b509360ull},
    {"spms", SchedKind::kSeq, "l2x16", 25987, 294, 0, 85, 0,
     0x079080bf59d4fee9ull},
    {"route", SchedKind::kPws, "l2x16", 14071, 531, 166, 0, 0,
     0x989ad9eaa3d55342ull},
    {"listrank", SchedKind::kPws, "l2x16", 424567, 15068, 7004, 440, 0,
     0x7318b08dc6f12a7full},
    {"spms", SchedKind::kPws, "l2x16", 13703, 609, 60, 4, 0,
     0xb84b0b872775d4c4ull},
    {"route", SchedKind::kRws, "l2x16", 12951, 458, 100, 0, 0,
     0x9d971ed446391f89ull},
    {"listrank", SchedKind::kRws, "l2x16", 420105, 13054, 4410, 367, 0,
     0x1a35380eb9bfa19dull},
    {"spms", SchedKind::kRws, "l2x16", 14417, 611, 70, 3, 0,
     0xd6b020016766089dull},
    {"merged", SchedKind::kPws, "plain", 425617, 16293, 7164, 0, 0,
     0x2c5cd423744fb058ull},
    {"merged", SchedKind::kPws, "write_hold", 421267, 16437, 4023, 0, 66367,
     0x8b130a4a24301098ull},
    {"merged", SchedKind::kPws, "l2", 431289, 16432, 7254, 0, 0,
     0x47003f2d1ae8d37full},
    {"merged", SchedKind::kPws, "l2x16", 424567, 16208, 7230, 444, 0,
     0x569973c695bae32eull},
};

TEST(Batch, ReplayMatchesFrozenGoldens) {
  const size_t n = 160;
  Engine& eng = testing::engine();
  std::vector<TaskGraph> parts;
  parts.push_back(eng.record(prog_route(n), false, 4096, 0));
  parts.push_back(eng.record(prog_listrank(n), false, 4096, 1));
  parts.push_back(eng.record(prog_spms(4 * n), false, 4096, 2));
  const std::vector<std::string> names = {"route", "listrank", "spms"};
  const auto machine = [](const std::string& name) {
    SimConfig cfg = small_machine(1);
    if (name == "write_hold") cfg.write_hold = 24;
    if (name == "l2") cfg.M2 = cfg.M * 4;
    if (name == "l2x16") cfg.M2 = cfg.M * 16;
    return cfg;
  };
  const auto check = [](const Metrics& m, const Golden& gd,
                        const std::string& where) {
    EXPECT_EQ(m.makespan, gd.makespan) << where;
    EXPECT_EQ(m.cache_misses(), gd.cache_misses) << where;
    EXPECT_EQ(m.block_misses(), gd.block_misses) << where;
    EXPECT_EQ(m.l2_hits(), gd.l2_hits) << where;
    EXPECT_EQ(m.hold_waits(), gd.hold_waits) << where;
    EXPECT_EQ(metrics_fingerprint(m), gd.fingerprint) << where;
  };
  std::vector<const Golden*> merged_rows;
  for (const Golden& gd : kGoldens) {
    const std::string where = std::string(gd.workload) + " " +
                              sched_name(gd.kind) + " machine=" + gd.machine;
    const auto it = std::find(names.begin(), names.end(), gd.workload);
    if (it == names.end()) {
      merged_rows.push_back(&gd);
      continue;
    }
    const TaskGraph& g = parts[static_cast<size_t>(it - names.begin())];
    check(simulate(g, gd.kind, machine(gd.machine)), gd, where);
  }
  ASSERT_EQ(merged_rows.size(), 4u);
  const TaskGraph merged = merge_shards(std::move(parts));
  for (const Golden* gd : merged_rows) {
    check(simulate(merged, gd->kind, machine(gd->machine)), *gd,
          std::string("merged machine=") + gd->machine);
  }
}

TEST(Batch, RunBatchReportShape) {
  const size_t n = 128;
  std::vector<AnyProg> progs;
  progs.emplace_back(prog_route(n));
  progs.emplace_back(prog_listrank(n));
  progs.emplace_back(prog_spms(2 * n));

  RunOptions opt;
  opt.backend = Backend::kSimPws;
  opt.label = "batch3";
  opt.sim = small_machine(2);
  const JobResult br_jr = testing::engine().submit(
      {.kind = JobKind::kBatch,
       .shards = static_cast<uint32_t>(progs.size()),
       .opt = opt},
      progs);
  ASSERT_TRUE(br_jr.ok()) << br_jr.error;
  const BatchReport& br = br_jr.batch;

  EXPECT_EQ(br.shards, 3u);
  ASSERT_EQ(br.runs.size(), 3u);
  EXPECT_EQ(br.runs[0].label, "batch3#0");
  EXPECT_EQ(br.runs[2].label, "batch3#2");
  uint64_t work = 0, misses = 0, q = 0;
  for (const RunReport& r : br.runs) {
    EXPECT_TRUE(r.has_graph);
    EXPECT_TRUE(r.has_sim);
    EXPECT_TRUE(r.has_baseline);
    EXPECT_GT(r.sim.makespan, 0u);
    work += r.graph.work;
    misses += r.sim.cache_misses();
    q += r.q_seq;
  }
  EXPECT_EQ(br.aggregate.graph.work, work);
  EXPECT_EQ(br.aggregate.sim.cache_misses(), misses);
  EXPECT_EQ(br.aggregate.q_seq, q);
  EXPECT_GE(br.wall_ms, 0.0);

  // Determinism across the host-thread knob, end to end through submit.
  RunOptions opt1 = opt;
  opt1.sim.replay_threads = 1;
  const JobResult br1_jr = testing::engine().submit(
      {.kind = JobKind::kBatch,
       .shards = static_cast<uint32_t>(progs.size()),
       .opt = opt1},
      progs);
  ASSERT_TRUE(br1_jr.ok()) << br1_jr.error;
  const BatchReport& br1 = br1_jr.batch;
  ASSERT_EQ(br1.runs.size(), br.runs.size());
  for (size_t i = 0; i < br.runs.size(); ++i) {
    EXPECT_EQ(br1.runs[i].sim, br.runs[i].sim) << i;
    EXPECT_EQ(br1.runs[i].q_seq, br.runs[i].q_seq) << i;
  }
  EXPECT_EQ(br1.aggregate.sim, br.aggregate.sim);

  // The nested JSON parses back row by row.
  const std::string j = br.to_json();
  EXPECT_NE(j.find("\"shards\":3"), std::string::npos) << j;
  EXPECT_NE(j.find("\"batch3#1\""), std::string::npos) << j;
}

TEST(Batch, RunBatchSeqBackend) {
  const size_t n = 96;
  std::vector<AnyProg> progs(2, prog_listrank(n));
  RunOptions opt;
  opt.backend = Backend::kSeq;
  opt.sim = small_machine(2);
  const JobResult br_jr = testing::engine().submit(
      {.kind = JobKind::kBatch,
       .shards = static_cast<uint32_t>(progs.size()),
       .opt = opt},
      progs);
  ASSERT_TRUE(br_jr.ok()) << br_jr.error;
  const BatchReport& br = br_jr.batch;
  ASSERT_EQ(br.runs.size(), 2u);
  // Identical programs -> identical per-shard metrics, and the seq replay
  // is its own baseline.
  EXPECT_EQ(br.runs[0].sim, br.runs[1].sim);
  EXPECT_EQ(br.runs[0].p, 1u);
  EXPECT_EQ(br.runs[0].cache_excess, 0u);
  EXPECT_EQ(br.runs[0].q_seq, br.runs[0].sim.cache_misses());
}

}  // namespace
}  // namespace ro
