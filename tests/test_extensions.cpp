// Tests for the §5 discussion-section mechanisms:
//   §5.2 partitioned two-level cache hierarchy (SimConfig::M2)
//   §5.1 delayed-release write holds (SimConfig::write_hold)
#include <gtest/gtest.h>

#include "ro/alg/scan.h"
#include "ro/core/trace_ctx.h"
#include "ro/sched/replay.h"

namespace ro {
namespace {

using alg::i64;

TaskGraph two_pass_read(size_t n) {
  TraceCtx cx;
  auto a = cx.alloc<i64>(n, "a");
  auto sa = a.slice();
  return cx.run(2 * n, [&] {
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < n; ++i) (void)cx.get(sa, i);
    }
  });
}

TEST(Hierarchy, L2AbsorbsCapacityMisses) {
  const size_t n = 1 << 12;
  TaskGraph g = two_pass_read(n);
  SimConfig flat;
  flat.p = 1;
  flat.B = 16;
  flat.M = 16 * 16;  // tiny L1: the second pass misses everywhere
  flat.inject_frame_traffic = false;
  const Metrics no_l2 = simulate(g, SchedKind::kSeq, flat);
  EXPECT_EQ(no_l2.l2_hits(), 0u);

  SimConfig tall = flat;
  tall.M2 = 4 * n;  // L2 partition holds the whole array
  const Metrics with_l2 = simulate(g, SchedKind::kSeq, tall);
  // Same classified misses (L1 geometry unchanged) but the second pass is
  // served from L2 at l2_latency, so the makespan drops.
  EXPECT_GT(with_l2.l2_hits(), n / 16 / 2);
  EXPECT_LT(with_l2.makespan, no_l2.makespan);
}

TEST(Hierarchy, PartitionScalesWithP) {
  // M2 is shared: each core gets M2/p lines.  With p=16 the per-core
  // partition is 16x smaller than with p=1, so L2 hits shrink.
  const size_t n = 1 << 12;
  TaskGraph g = [] {
    TraceCtx cx;
    auto a = cx.alloc<i64>(1 << 12, "a");
    auto out = cx.alloc<i64>(1, "o");
    return cx.run(2 << 12, [&] {
      alg::msum(cx, a.slice(), out.slice());
      alg::msum(cx, a.slice(), out.slice());
    });
  }();
  (void)n;
  SimConfig c;
  c.B = 16;
  c.M = 16 * 8;
  c.M2 = 1 << 13;
  c.p = 1;
  const Metrics m1 = simulate(g, SchedKind::kSeq, c);
  c.p = 16;
  const Metrics m16 = simulate(g, SchedKind::kPws, c);
  EXPECT_GT(m1.l2_hits(), 0u);
  // Not strictly monotone in general, but with a 16x smaller partition and
  // cold caches per thief, per-core hit counts cannot exceed the p=1 total.
  EXPECT_LE(m16.l2_hits(), m1.l2_hits() * 2);
}

TaskGraph ping_pong_graph(size_t writes) {
  TraceCtx cx;
  auto arr = cx.alloc<i64>(64, "shared");
  auto s = arr.slice();
  return cx.run(2 * writes, [&] {
    cx.fork2(
        writes,
        [&] {
          for (size_t i = 0; i < writes; ++i)
            cx.set(s, (2 * i) % 64, static_cast<i64>(i));
        },
        writes, [&] {
          for (size_t i = 0; i < writes; ++i)
            cx.set(s, (2 * i + 1) % 64, static_cast<i64>(i));
        });
  });
}

TEST(DelayedRelease, ReducesBlockTransfers) {
  TaskGraph g = ping_pong_graph(256);
  SimConfig c;
  c.p = 2;
  c.B = 64;
  c.M = 64 * 16;
  // Low miss latency so the plain protocol really ping-pongs per write
  // (a large b already batches writes while the other core stalls).
  c.miss_latency = 2;
  c.inject_frame_traffic = false;
  const Metrics plain = simulate(g, SchedKind::kPws, c);
  c.write_hold = 64;
  const Metrics held = simulate(g, SchedKind::kPws, c);
  // The waiting core lets the writer finish longer runs of writes: the
  // block changes hands (and misses) far less often.
  EXPECT_LT(held.block_misses(), plain.block_misses());
  EXPECT_LT(held.max_block_transfers, plain.max_block_transfers);
  EXPECT_GT(held.hold_waits(), 0u);
}

TEST(DelayedRelease, NoEffectWithoutSharing) {
  TaskGraph g = [] {
    TraceCtx cx;
    auto a = cx.alloc<i64>(1 << 10, "a");
    auto out = cx.alloc<i64>(1, "o");
    return cx.run(1 << 10, [&] { alg::msum(cx, a.slice(), out.slice()); });
  }();
  SimConfig c;
  c.p = 4;
  c.B = 32;
  c.M = 1 << 10;
  c.inject_frame_traffic = false;  // read-only data -> no write sharing
  const Metrics plain = simulate(g, SchedKind::kPws, c);
  c.write_hold = 64;
  const Metrics held = simulate(g, SchedKind::kPws, c);
  EXPECT_EQ(held.hold_waits(), 0u);
  EXPECT_EQ(held.cache_misses(), plain.cache_misses());
}

TEST(Hierarchy, DefaultConfigUnchanged) {
  // M2 = 0 must reproduce the flat-machine numbers bit-for-bit.
  TaskGraph g = two_pass_read(1 << 10);
  SimConfig c;
  c.p = 1;
  c.B = 16;
  c.M = 1 << 8;
  c.inject_frame_traffic = false;
  const Metrics a = simulate(g, SchedKind::kSeq, c);
  const Metrics b = simulate(g, SchedKind::kSeq, c);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.cache_misses(), b.cache_misses());
  EXPECT_EQ(a.l2_hits(), 0u);
}

}  // namespace
}  // namespace ro
