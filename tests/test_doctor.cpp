// ro-doctor subsystem tests: ContentionProfile determinism across host
// replay parallelism and streamed trace windows, AddressRemap apply/unmap
// round-trips over recorded addresses, the packed-counter closed loop
// (diagnose -> repair -> verified >= 2x transfer reduction), the padded
// control staying clean, DoctorReport JSON round-trips, and the RunReport
// forward-compat contract (unknown / missing fields default, never fail).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ro/core/remap.h"
#include "ro/doctor/doctor.h"
#include "ro/engine/engine.h"
#include "ro/engine/workloads.h"
#include "ro/sim/contention.h"
#include "test_helpers.h"

namespace ro {
namespace {

using testing::engine;

SimConfig doctor_cfg(uint32_t replay_threads = 1) {
  SimConfig cfg;
  cfg.p = 4;
  cfg.M = 1 << 12;
  cfg.B = 32;
  cfg.replay_threads = replay_threads;
  return cfg;
}

// ---- AddressRemap ----

TEST(AddressRemap, IdentityWhenEmpty) {
  AddressRemap rm;
  EXPECT_TRUE(rm.empty());
  EXPECT_EQ(rm.apply(0x1234), 0x1234u);
  vaddr_t back = 0;
  EXPECT_TRUE(rm.unmap(0x1234, &back));
  EXPECT_EQ(back, 0x1234u);
}

TEST(AddressRemap, PaddingRuleSpreadsWords) {
  // The doctor's canonical rule: one line of B=4 words fanned out at
  // stride 4 so each word lands in its own block.
  AddressRemap rm({RemapRule{/*src=*/8, /*len=*/4, /*dst=*/100,
                             /*stride=*/4}});
  EXPECT_EQ(rm.apply(8), 100u);
  EXPECT_EQ(rm.apply(9), 104u);
  EXPECT_EQ(rm.apply(11), 112u);
  EXPECT_EQ(rm.apply(7), 7u);    // below the rule: identity
  EXPECT_EQ(rm.apply(12), 12u);  // past the rule: identity

  // unmap inverts the image and rejects stride gaps (no recorded address
  // maps there) and mapped-away sources.
  vaddr_t back = 0;
  EXPECT_TRUE(rm.unmap(104, &back));
  EXPECT_EQ(back, 9u);
  EXPECT_FALSE(rm.unmap(101, &back));  // gap between images
  EXPECT_FALSE(rm.unmap(9, &back));    // source region vacated
  EXPECT_TRUE(rm.unmap(7, &back));
  EXPECT_EQ(back, 7u);
}

TEST(AddressRemap, RoundTripOverRecordedAddresses) {
  // The property the verify step rests on: remap then unmap is the
  // identity on every *recorded* data address of a real trace.
  const TaskGraph rec = engine().record(wl::counters(8, 16, 1));
  const doctor::DoctorReport d =
      engine().diagnose(rec, Backend::kSimPws, doctor_cfg(), {}, "rt");
  ASSERT_FALSE(d.plan.remap.empty());
  const AddressRemap& rm = d.plan.remap;
  size_t data = 0, moved = 0;
  for (const Access& a : rec.accesses) {
    if (a.act != kNoAct) continue;  // frame slots are never remapped
    ++data;
    const vaddr_t to = rm.apply(a.addr);
    if (to != a.addr) ++moved;
    vaddr_t back = 0;
    ASSERT_TRUE(rm.unmap(to, &back)) << "addr " << a.addr;
    EXPECT_EQ(back, a.addr);
  }
  EXPECT_GT(data, 0u);
  EXPECT_GT(moved, 0u);  // the packed counter line really was relocated
}

// ---- ContentionProfile determinism ----

TEST(ContentionProfile, PackedCountersAttribution) {
  const TaskGraph rec = engine().record(wl::counters(8, 16, 1));
  ContentionProfile prof;
  SimConfig cfg = doctor_cfg();
  cfg.profile = &prof;
  engine().replay(rec, Backend::kSimPws, cfg, /*seq_baseline=*/false);
  ASSERT_FALSE(prof.empty());
  EXPECT_GT(prof.false_events(), 0u);
  // Task-private counters: every invalidation is at distinct words.
  EXPECT_EQ(prof.true_events(), 0u);
  EXPECT_GE(prof.hot_lines(1), 1u);
}

TEST(ContentionProfile, DeterministicAcrossReplayThreads) {
  // A two-shard merged batch: each shard walks on its own machine into the
  // caller's profile, so the merged attribution must equal the merge of
  // each shard's own profile.  With the p=1 baseline on, threads 2 / 8
  // walk it concurrently with the main walk, and it must not write into
  // the profile: the result stays bit-identical to threads=1.
  std::vector<TaskGraph> parts;
  parts.push_back(engine().record(wl::counters(8, 16, 1), false, 4096, 0));
  parts.push_back(engine().record(wl::msum(512), false, 4096, 1));
  const auto profile_of = [](const TaskGraph& g, uint32_t rt) {
    ContentionProfile prof;
    SimConfig cfg = doctor_cfg(rt);
    cfg.profile = &prof;
    engine().replay(g, Backend::kSimPws, cfg, /*seq_baseline=*/true);
    return prof;
  };
  ContentionProfile shard_merge;
  for (const TaskGraph& g : parts) shard_merge.merge(profile_of(g, 1));
  const TaskGraph merged = merge_shards(std::move(parts));

  const ContentionProfile base = profile_of(merged, 1);
  ASSERT_FALSE(base.empty());
  EXPECT_EQ(base, shard_merge);
  for (const uint32_t rt : {2u, 8u}) {
    EXPECT_EQ(profile_of(merged, rt), base) << "replay_threads=" << rt;
  }
}

/// FNV-1a over every field of a profile, in map order.
uint64_t profile_fingerprint(const ContentionProfile& p) {
  uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  mix(p.lines().size());
  for (const auto& [addr, line] : p.lines()) {
    mix(addr);
    mix(line.words.size());
    for (const auto& [w, ws] : line.words) {
      mix(w);
      mix(ws.invalidations_caused);
      mix(ws.invalidations_suffered);
      mix(ws.coherence_misses);
      mix(ws.tasks.size());
      for (const auto& [act, events] : ws.tasks) {
        mix(act);
        mix(events);
      }
    }
    mix(line.edges.size());
    for (const auto& [edge, weight] : line.edges) {
      mix(edge.first);
      mix(edge.second);
      mix(weight);
    }
    mix(line.false_events);
    mix(line.true_events);
    mix(line.transfers);
  }
  return h;
}

TEST(ContentionProfile, MatchesFrozenGoldenOnPackedCounters) {
  // The profile — like Metrics — must not see the cache implementation.
  // Frozen from the node-based reference data plane before it was
  // retired (FlatLru agreed bit for bit): every recorded invalidation,
  // coherence miss and transfer on the packed-counter adversary, the
  // doctor's diagnostic input.
  const TaskGraph rec = engine().record(wl::counters(8, 16, 1));
  ContentionProfile prof;
  SimConfig cfg = doctor_cfg();
  cfg.profile = &prof;
  engine().replay(rec, Backend::kSimPws, cfg, false);
  EXPECT_EQ(prof.lines().size(), 1u);
  EXPECT_EQ(prof.false_events(), 122u);
  EXPECT_EQ(prof.true_events(), 0u);
  EXPECT_EQ(prof.total_transfers(), 122u);
  EXPECT_EQ(prof.hot_lines(), 1u);
  EXPECT_EQ(profile_fingerprint(prof), 0x459f7e257b328531ull);
}

TEST(ContentionProfile, DeterministicAcrossStreamWindows) {
  // The same trace through the chunked TraceStore at resident windows
  // 1 / 2 / unbounded profiles identically to the in-memory walk.
  ContentionProfile mem;
  {
    const TaskGraph rec = engine().record(wl::counters(8, 32, 1));
    SimConfig cfg = doctor_cfg();
    cfg.profile = &mem;
    engine().replay(rec, Backend::kSimPws, cfg, false);
  }
  ASSERT_FALSE(mem.empty());
  for (const uint32_t w : {1u, 2u, 0u}) {
    StreamOptions stream;
    stream.segment_tasks = 64;
    stream.max_resident_segments = w;
    const TaskGraph rec =
        engine().record_stream(wl::counters(8, 32, 1), stream);
    ContentionProfile prof;
    SimConfig cfg = doctor_cfg();
    cfg.profile = &prof;
    engine().replay(rec, Backend::kSimPws, cfg, false);
    EXPECT_EQ(prof, mem) << "window=" << w;
  }
}

TEST(ContentionProfile, MergeSums) {
  ContentionProfile a, b;
  a.record_invalidation(64, 1, 10, 2, 11);
  b.record_invalidation(64, 1, 10, 2, 11);
  b.record_invalidation(64, 3, 12, 3, 13);  // same word: true sharing
  b.record_transfer(64, 1);
  a.merge(b);
  EXPECT_EQ(a.false_events(), 2u);
  EXPECT_EQ(a.true_events(), 1u);
  EXPECT_EQ(a.total_transfers(), 1u);
}

// ---- the closed loop ----

TEST(Doctor, PackedCountersRepairedAtLeastTwofold) {
  const TaskGraph rec = engine().record(wl::counters(8, 64, 1));
  const doctor::DoctorReport d =
      engine().diagnose(rec, Backend::kSimPws, doctor_cfg(), {}, "packed");

  ASSERT_FALSE(d.findings.empty());
  const doctor::LineFinding& top = d.findings[0];
  EXPECT_EQ(top.pattern, doctor::Pattern::kFalseSharing);
  EXPECT_EQ(top.true_events, 0u);
  EXPECT_GE(top.hot_words.size(), 2u);
  EXPECT_GE(top.tasks, 2u);

  ASSERT_TRUE(d.has_after);
  EXPECT_LE(2 * d.after_block_transfers(), d.before_block_transfers());
  EXPECT_LT(d.after.sim.block_misses(), d.before.sim.block_misses());
  // The repaired replay is the same computation on a better layout.
  EXPECT_EQ(d.after.sim.compute(), d.before.sim.compute());

  // Bit-exact repaired metrics at every host replay parallelism (with the
  // baseline on, so the two walks overlap).
  for (const uint32_t rt : {2u, 8u}) {
    SimConfig cfg = doctor_cfg(rt);
    cfg.remap = &d.plan.remap;
    const RunReport r = engine().replay(rec, Backend::kSimPws, cfg);
    EXPECT_EQ(r.sim, d.after.sim) << "replay_threads=" << rt;
    EXPECT_EQ(r.q_seq, d.after.q_seq) << "replay_threads=" << rt;
  }
}

TEST(Doctor, PaddedControlDiagnosesClean) {
  const TaskGraph rec = engine().record(wl::counters(8, 64, 32));
  const doctor::DoctorReport d =
      engine().diagnose(rec, Backend::kSimPws, doctor_cfg(), {}, "padded");
  EXPECT_TRUE(d.findings.empty());
  EXPECT_TRUE(d.plan.remap.empty());
  EXPECT_FALSE(d.has_after);
  EXPECT_EQ(d.transfer_reduction(), 0.0);
}

TEST(Doctor, RepairReproducesPaddedLayout) {
  // The remap is gap.h's StrideLayout as a trace transformation: the
  // repaired packed run must show the padded run's coherence behaviour.
  const doctor::DoctorReport packed = engine().diagnose(
      engine().record(wl::counters(8, 64, 1)), Backend::kSimPws,
      doctor_cfg(), {}, "packed");
  const doctor::DoctorReport padded = engine().diagnose(
      engine().record(wl::counters(8, 64, 32)), Backend::kSimPws,
      doctor_cfg(), {}, "padded");
  ASSERT_TRUE(packed.has_after);
  EXPECT_EQ(packed.after.sim.block_misses(),
            padded.before.sim.block_misses());
  EXPECT_EQ(packed.after.sim.total_block_transfers,
            padded.before.sim.total_block_transfers);
}

// ---- JSON ----

TEST(Doctor, ReportJsonRoundTrips) {
  const TaskGraph rec = engine().record(wl::counters(8, 32, 1));
  const doctor::DoctorReport d =
      engine().diagnose(rec, Backend::kSimPws, doctor_cfg(), {}, "json");
  const std::string j = d.to_json();
  doctor::DoctorReport back;
  ASSERT_TRUE(doctor::doctor_report_from_json(j, back));
  EXPECT_EQ(back.to_json(), j);
  EXPECT_EQ(back.findings, d.findings);
  EXPECT_EQ(back.plan, d.plan);
  EXPECT_EQ(back.has_after, d.has_after);

  doctor::DoctorReport junk;
  EXPECT_FALSE(doctor::doctor_report_from_json("not json", junk));
  EXPECT_FALSE(doctor::doctor_report_from_json("[1,2]", junk));
}

TEST(Report, ForwardCompatUnknownAndMissingFields) {
  const TaskGraph rec = engine().record(wl::counters(8, 32, 1));
  const doctor::DoctorReport d =
      engine().diagnose(rec, Backend::kSimPws, doctor_cfg(), {}, "fc");
  ASSERT_TRUE(d.before.has_contention);
  std::string j = d.before.to_json();

  // A reader from before the fs_* fields existed: strip them and the
  // report still parses, defaulting the contention section off.
  std::string stripped = j;
  for (const char* key :
       {"\"fs_false_events\":", "\"fs_true_events\":", "\"fs_hot_lines\":"}) {
    const size_t at = stripped.find(key);
    ASSERT_NE(at, std::string::npos);
    const size_t end = stripped.find_first_of(",}", at);
    ASSERT_NE(end, std::string::npos);
    if (stripped[end] == ',') {
      stripped.erase(at, end - at + 1);
    } else {  // last field of the object: drop the preceding comma too
      ASSERT_EQ(stripped[at - 1], ',');
      stripped.erase(at - 1, end - at + 1);
    }
  }
  RunReport old;
  ASSERT_TRUE(report_from_json(stripped, old));
  EXPECT_FALSE(old.has_contention);
  EXPECT_EQ(old.fs_false_events, 0u);
  EXPECT_EQ(old.fs_hot_lines, 0u);
  // Everything else untouched (parsing reconstructs a synthetic core, so
  // compare the derived observables, not the core vectors).
  EXPECT_EQ(old.sim.makespan, d.before.sim.makespan);
  EXPECT_EQ(old.sim.cache_misses(), d.before.sim.cache_misses());
  EXPECT_EQ(old.sim.block_misses(), d.before.sim.block_misses());
  EXPECT_EQ(old.sim.total_block_transfers,
            d.before.sim.total_block_transfers);

  // A reader from *after* this schema: an unknown field is skipped, the
  // known ones still land.
  std::string extended = j;
  const size_t brace = extended.find('{');
  ASSERT_NE(brace, std::string::npos);
  extended.insert(brace + 1, "\"future_field\":123,\"future_str\":\"x\",");
  RunReport next;
  ASSERT_TRUE(report_from_json(extended, next));
  EXPECT_TRUE(next.has_contention);
  EXPECT_EQ(next.fs_false_events, d.before.fs_false_events);
  EXPECT_EQ(next.to_json(), j);
}

}  // namespace
}  // namespace ro
