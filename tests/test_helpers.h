// Shared helpers for the algorithm test suites: run an algorithm under
// SeqCtx for the golden output, re-run under TraceCtx, check equality, and
// optionally replay under every scheduler (through the shared Engine) to
// assert engine invariants.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>

#include "ro/alg/graphgen.h"
#include "ro/alg/listrank.h"
#include "ro/alg/route.h"
#include "ro/alg/spms.h"
#include "ro/core/seq_ctx.h"
#include "ro/core/trace_ctx.h"
#include "ro/core/validate.h"
#include "ro/engine/engine.h"
#include "ro/sched/replay.h"
#include "ro/util/rng.h"

namespace ro::testing {

/// Process-wide Engine shared by the test suites (replay only creates no
/// thread pools; parallel-backend tests size their own pools explicitly).
inline Engine& engine() {
  static Engine e;
  return e;
}

/// Replays `g` under SEQ/PWS/RWS at a default machine and asserts the
/// engine-level invariants that must hold for every recorded computation.
inline void check_schedulers(const TaskGraph& g, uint32_t p = 4,
                             uint64_t M = 1 << 12, uint32_t B = 32) {
  SimConfig cfg;
  cfg.p = p;
  cfg.M = M;
  cfg.B = B;
  const Metrics seq =
      engine().replay(g, Backend::kSeq, cfg, /*seq_baseline=*/false).sim;
  EXPECT_EQ(seq.block_misses(), 0u);
  EXPECT_EQ(seq.steals(), 0u);
  const Metrics pws = engine().replay(g, Backend::kSimPws, cfg, false).sim;
  const Metrics rws = engine().replay(g, Backend::kSimRws, cfg, false).sim;
  // Same computation: identical total compute under every scheduler.
  EXPECT_EQ(seq.compute(), pws.compute());
  EXPECT_EQ(seq.compute(), rws.compute());
  // Determinism of PWS.
  const Metrics pws2 = engine().replay(g, Backend::kSimPws, cfg, false).sim;
  EXPECT_EQ(pws.makespan, pws2.makespan);
  EXPECT_EQ(pws.block_misses(), pws2.block_misses());
  // Note: makespan <= seq and the per-priority steal bound (Obs 4.3) are
  // asserted in test_sched on single-BP graphs with n >> overheads; they do
  // not hold for arbitrary tiny or heavily-sequenced computations.
}

// ---- the three trace families of the batch and stream goldens ----

/// Sort-routed gather ("route"): two sorts + three BP scans per call.
inline auto prog_route(size_t n) {
  return [n](auto& cx) {
    auto idx = cx.template alloc<alg::i64>(n, "idx");
    auto val = cx.template alloc<alg::i64>(n, "val");
    Rng rng(n * 31 + 5);
    for (size_t i = 0; i < n; ++i) {
      idx.raw()[i] = static_cast<alg::i64>(rng.next_below(n));
      val.raw()[i] = static_cast<alg::i64>(rng.next_below(1000));
    }
    auto out = cx.template alloc<alg::i64>(n, "out");
    cx.run(2 * n, [&] {
      alg::gather(cx, alg::StridedView{idx.slice()},
                  alg::StridedView{val.slice()},
                  alg::StridedView{out.slice()}, n);
    });
  };
}

inline auto prog_listrank(size_t n) {
  const auto succ = alg::random_list(n, n * 7 + 3);
  return [n, succ](auto& cx) {
    auto s = cx.template alloc<alg::i64>(n, "succ");
    std::copy(succ.begin(), succ.end(), s.raw());
    auto r = cx.template alloc<alg::i64>(n, "rank");
    cx.run(2 * n, [&] { alg::list_rank(cx, s.slice(), r.slice()); });
  };
}

inline auto prog_spms(size_t n) {
  return [n](auto& cx) {
    auto a = cx.template alloc<alg::i64>(n, "a");
    Rng rng(n + 17);
    for (size_t i = 0; i < n; ++i)
      a.raw()[i] = static_cast<alg::i64>(rng.next() >> 1);
    auto o = cx.template alloc<alg::i64>(n, "o");
    cx.run(2 * n, [&] { alg::spms(cx, a.slice(), o.slice()); });
  };
}

/// A streamed-trace setting that seals constantly (64 records per trace
/// segment, so task segments straddle seals) and spills everything
/// beyond `window` resident segments.
inline StreamOptions tiny_stream(uint32_t window) {
  StreamOptions s;
  s.segment_tasks = 64;
  s.max_resident_segments = window;
  return s;
}

/// Limited-access assertion with an explicit bound (Def 2.4).
inline void check_limited(const TaskGraph& g, uint32_t k = 2) {
  const auto rep = ro::check_limited_access(g);
  EXPECT_LE(rep.max_writes_per_location, k);
}

}  // namespace ro::testing
