// Streaming trace pipeline tests: TraceStore segment encode/decode with
// adversarial seal boundaries, spill -> reload integrity, and the tentpole
// acceptance matrix — streaming replay bit-identical to the in-memory walk
// for route / listrank / SPMS x PWS / RWS x replay threads {1,2,8} x
// resident windows {1,2,unbounded}.
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
#include "ro/core/trace_codec.h"
#include "ro/core/trace_store.h"
#include "ro/engine/engine.h"
#include "ro/util/rng.h"
#include "test_helpers.h"

namespace ro {
namespace {

using alg::i64;
using testing::prog_listrank;
using testing::prog_route;
using testing::prog_spms;
using testing::tiny_stream;

Access rec(uint64_t i) {
  return Access{i * 3, i % 7 == 0 ? kNoAct : static_cast<uint32_t>(i % 5),
                static_cast<uint16_t>(1 + i % 4),
                static_cast<uint16_t>(i % 2)};
}

// ---- TraceStore segment encode/decode ----

TEST(TraceStore, SegmentBoundariesRoundTrip) {
  // Capacity 8 with a bounded window of 1: most segments live on disk by
  // the time they are read back.  257 records = 32 full segments + a
  // single-record trailing segment (the partial-seal adversarial case).
  TraceStore::Options opt;
  opt.segment_tasks = 8;
  opt.max_resident_segments = 1;
  TraceStore st(opt);
  const uint64_t n = 257;
  for (uint64_t i = 0; i < n; ++i) st.append(rec(i));
  st.seal();
  EXPECT_EQ(st.size(), n);
  EXPECT_EQ(st.segment_count(), (n + 7) / 8);

  // Sequential read-back sees every record bit-identically.
  TraceStore::Cursor cur(st);
  for (uint64_t i = 0; i < n; ++i) EXPECT_EQ(cur.at(i), rec(i)) << i;
  // Backwards scan re-loads spilled segments; contents still identical.
  TraceStore::Cursor back(st);
  for (uint64_t i = n; i-- > 0;) EXPECT_EQ(back.at(i), rec(i)) << i;

  const TraceStore::Stats s = st.stats();
  EXPECT_EQ(s.records, n);
  EXPECT_GT(s.spilled_bytes, 0u);
  EXPECT_GT(s.segment_loads, 0u);
  // Window (1) + one pinned segment per live cursor (2) + the open
  // segment: the resident high-water must stay a few segments, never the
  // whole trace.
  EXPECT_LE(s.peak_resident_bytes, 4 * opt.segment_tasks * sizeof(Access));
  EXPECT_LT(s.peak_resident_bytes, n * sizeof(Access));
}

TEST(TraceStore, SingleRecordSegments) {
  // Capacity 1: every record is its own trace segment — the degenerate
  // seal-per-append case.
  TraceStore::Options opt;
  opt.segment_tasks = 1;
  opt.max_resident_segments = 2;
  TraceStore st(opt);
  for (uint64_t i = 0; i < 9; ++i) st.append(rec(i));
  st.seal();
  EXPECT_EQ(st.segment_count(), 9u);
  TraceStore::Cursor cur(st);
  for (uint64_t i = 0; i < 9; ++i) EXPECT_EQ(cur.at(i), rec(i));
}

TEST(TraceStore, EmptyStoreSealsCleanly) {
  TraceStore st;
  st.seal();
  EXPECT_EQ(st.size(), 0u);
  EXPECT_EQ(st.segment_count(), 0u);
  EXPECT_EQ(st.stats().spilled_bytes, 0u);
}

TEST(TraceStore, UnboundedWindowNeverSpills) {
  TraceStore::Options opt;
  opt.segment_tasks = 4;
  opt.max_resident_segments = 0;  // unbounded
  TraceStore st(opt);
  for (uint64_t i = 0; i < 100; ++i) st.append(rec(i));
  st.seal();
  const TraceStore::Stats s = st.stats();
  EXPECT_EQ(s.spilled_bytes, 0u);
  EXPECT_EQ(s.segment_loads, 0u);
  TraceStore::Cursor cur(st);
  for (uint64_t i = 0; i < 100; ++i) EXPECT_EQ(cur.at(i), rec(i));
}

// ---- trace codec: delta/varint round trips ----

void expect_codec_round_trip(const std::vector<Access>& recs,
                             const char* what) {
  std::vector<uint8_t> enc;
  const size_t bytes = encode_accesses(recs.data(), recs.size(), enc);
  ASSERT_EQ(bytes, enc.size()) << what;
  std::vector<Access> dec(recs.size());
  decode_accesses(enc.data(), enc.size(), dec.data(), dec.size());
  for (size_t i = 0; i < recs.size(); ++i) {
    ASSERT_EQ(dec[i], recs[i]) << what << " record " << i;
  }
}

TEST(TraceCodec, AdversarialPatternsRoundTrip) {
  std::vector<std::pair<const char*, std::vector<Access>>> cases;
  cases.push_back({"empty", {}});
  cases.push_back({"single", {Access{~uint64_t{0}, kNoAct, 0xFFFF, 0xFFFF}}});

  // Sequential run: the shape the codec is built for.
  std::vector<Access> seq;
  for (uint64_t i = 0; i < 300; ++i)
    seq.push_back(Access{1000 + 4 * i, 7, 4, 0});
  cases.push_back({"sequential", seq});

  // Descending addresses (negative deltas through zigzag).
  std::vector<Access> desc;
  for (uint64_t i = 0; i < 300; ++i)
    desc.push_back(Access{uint64_t{1} << 40, 7, 4, 0});
  for (uint64_t i = 0; i < 300; ++i) desc[i].addr -= 3 * i;
  cases.push_back({"descending", desc});

  // kNoAct <-> act alternation every record (the mapped-act delta path).
  std::vector<Access> alt;
  for (uint64_t i = 0; i < 200; ++i)
    alt.push_back(Access{i, i % 2 ? kNoAct : static_cast<uint32_t>(i),
                         static_cast<uint16_t>(i % 3), 1});
  cases.push_back({"act-alternation", alt});

  // Full-width extremes: max addr jumps, act near 2^32, len/flags edges.
  std::vector<Access> ext;
  ext.push_back(Access{0, 0, 0, 0});
  ext.push_back(Access{~uint64_t{0}, kNoAct - 1, 0xFFFF, 0xFFFF});
  ext.push_back(Access{0, kNoAct, 0, 0});
  ext.push_back(Access{~uint64_t{0} / 2, 1, 1, 2});
  ext.push_back(Access{~uint64_t{0} / 2 + 1, kNoAct - 1, 0xFFFF, 1});
  cases.push_back({"extremes", ext});

  // Random records: every field drawn independently.
  Rng rng(0xC0DEC);
  std::vector<Access> rnd;
  for (int i = 0; i < 1000; ++i) {
    rnd.push_back(Access{rng.next(), static_cast<uint32_t>(rng.next()),
                         static_cast<uint16_t>(rng.next()),
                         static_cast<uint16_t>(rng.next())});
  }
  cases.push_back({"random", rnd});

  for (const auto& [what, recs] : cases) expect_codec_round_trip(recs, what);
}

TEST(TraceCodec, SequentialRunsCostOneBytePerRecord) {
  std::vector<Access> recs;
  for (uint64_t i = 0; i < 4096; ++i)
    recs.push_back(Access{1 << 20 | (4 * i), 3, 4, 0});
  std::vector<uint8_t> enc;
  encode_accesses(recs.data(), recs.size(), enc);
  // First record pays for the initial deltas; every later one is a lone
  // header byte (16x under the 16-byte resident form).
  EXPECT_LE(enc.size(), recs.size() + 16);
  std::vector<Access> dec(recs.size());
  decode_accesses(enc.data(), enc.size(), dec.data(), dec.size());
  EXPECT_EQ(dec, recs);
}

TEST(TraceCodec, RandomRecordsStayBounded) {
  Rng rng(99);
  std::vector<Access> recs;
  for (int i = 0; i < 2000; ++i) {
    recs.push_back(Access{rng.next(), static_cast<uint32_t>(rng.next()),
                          static_cast<uint16_t>(rng.next()),
                          static_cast<uint16_t>(rng.next())});
  }
  std::vector<uint8_t> enc;
  encode_accesses(recs.data(), recs.size(), enc);
  // Worst case per record: header + 10-byte addr varint + 5-byte act +
  // 3-byte len + 3-byte flags.
  EXPECT_LE(enc.size(), recs.size() * 22);
  std::vector<Access> dec(recs.size());
  decode_accesses(enc.data(), enc.size(), dec.data(), dec.size());
  EXPECT_EQ(dec, recs);
}

TEST(TraceCodec, TruncatedBufferDies) {
  std::vector<Access> recs(8);
  for (uint64_t i = 0; i < 8; ++i) recs[i] = rec(i);
  std::vector<uint8_t> enc;
  encode_accesses(recs.data(), recs.size(), enc);
  std::vector<Access> dec(recs.size());
  EXPECT_DEATH(
      decode_accesses(enc.data(), enc.size() - 1, dec.data(), dec.size()),
      "trace codec");
  EXPECT_DEATH(decode_accesses(enc.data(), enc.size(), dec.data(), 7),
               "trace codec");
}

// ---- compressed spills ----

TEST(TraceStore, CompressedSpillRoundTripsRandomRecords) {
  TraceStore::Options opt;
  opt.segment_tasks = 32;
  opt.max_resident_segments = 1;
  TraceStore st(opt);
  Rng rng(0x51111);
  std::vector<Access> recs;
  for (int i = 0; i < 1000; ++i) {
    recs.push_back(Access{rng.next(), static_cast<uint32_t>(rng.next()),
                          static_cast<uint16_t>(rng.next()),
                          static_cast<uint16_t>(rng.next())});
    st.append(recs.back());
  }
  st.seal();
  TraceStore::Cursor cur(st);
  for (uint64_t i = 0; i < recs.size(); ++i)
    ASSERT_EQ(cur.at(i), recs[i]) << i;
  const TraceStore::Stats s = st.stats();
  EXPECT_GT(s.spilled_bytes, 0u);
  EXPECT_GT(s.compressed_bytes, 0u);
  // Even adversarial random records never inflate past the raw layout by
  // much; the regular traces below shrink hard.
  EXPECT_LE(s.compressed_bytes, s.spilled_bytes + s.spilled_bytes / 2);
}

TEST(TraceStore, SequentialishTraceCompressesAtLeastFourX) {
  TraceStore::Options opt;
  opt.segment_tasks = 512;
  opt.max_resident_segments = 1;
  TraceStore st(opt);
  // The shape real recordings have: sequential address runs, an act
  // change every few dozen records, near-constant len/flags.
  uint64_t addr = 1 << 16;
  for (uint64_t i = 0; i < 8192; ++i) {
    addr += 1 + i % 3;
    st.append(Access{addr, static_cast<uint32_t>(i / 48),
                     static_cast<uint16_t>(1 + i % 2),
                     static_cast<uint16_t>(i % 5 == 0)});
  }
  st.seal();
  const TraceStore::Stats s = st.stats();
  ASSERT_GT(s.spilled_bytes, 0u);
  EXPECT_LE(4 * s.compressed_bytes, s.spilled_bytes)
      << "ratio " << double(s.spilled_bytes) / double(s.compressed_bytes);
  TraceStore::Cursor cur(st);
  addr = 1 << 16;
  for (uint64_t i = 0; i < 8192; ++i) {
    addr += 1 + i % 3;
    ASSERT_EQ(cur.at(i),
              (Access{addr, static_cast<uint32_t>(i / 48),
                      static_cast<uint16_t>(1 + i % 2),
                      static_cast<uint16_t>(i % 5 == 0)}))
        << i;
  }
}

// ---- the lifecycle: record, seal, read ----

TEST(TraceStoreDeathTest, CursorReadBeforeSealDies) {
  TraceStore::Options opt;
  opt.segment_tasks = 4;
  TraceStore st(opt);
  for (uint64_t i = 0; i < 9; ++i) st.append(rec(i));  // two full segments
  TraceStore::Cursor cur(st);
  EXPECT_DEATH(cur.at(0), "before seal");
}

// ---- streamed recording vs the in-memory recording ----

TEST(StreamRecord, MatchesInMemoryRecording) {
  const size_t n = 256;
  Engine& eng = testing::engine();
  const TaskGraph mem = eng.record(prog_route(n));
  const TaskGraph str = eng.record_stream(prog_route(n), tiny_stream(1));

  ASSERT_TRUE(str.streaming());
  ASSERT_FALSE(mem.streaming());
  // Identical skeleton...
  EXPECT_EQ(str.acts, mem.acts);
  EXPECT_EQ(str.segments, mem.segments);
  EXPECT_EQ(str.root, mem.root);
  EXPECT_EQ(str.data_base, mem.data_base);
  EXPECT_EQ(str.data_top, mem.data_top);
  // ...identical stream (spilled and reloaded, record by record)...
  ASSERT_EQ(str.acc_count(), mem.acc_count());
  AccessReader rd(str);
  for (uint64_t i = 0; i < mem.acc_count(); ++i) {
    ASSERT_EQ(rd.at(i), mem.accesses[i]) << "access " << i;
  }
  // ...identical analysis.
  EXPECT_EQ(str.stats().work, mem.stats().work);
  EXPECT_EQ(str.stats().span, mem.stats().span);
  EXPECT_EQ(str.stats().accesses, mem.stats().accesses);
  EXPECT_EQ(str.stats().leaves, mem.stats().leaves);
}

TEST(Stream, RecordStreamReadsNothingBack) {
  // The recorder computes the graph's stats as it goes, so a streamed
  // recording never reads its spilled segments back: every reload a job
  // reports belongs to its replays.
  const TaskGraph rec =
      testing::engine().record_stream(prog_route(256), tiny_stream(1));
  ASSERT_EQ(rec.streams.size(), 1u);
  const TraceStore::Stats st = rec.streams[0].store->stats();
  EXPECT_GT(st.spilled_bytes, 0u);
  EXPECT_EQ(st.segment_loads, 0u);
}

TEST(StreamRecord, EmptyAndForkOnlySegmentsSurviveSeals) {
  // A deep fork tree with one access per leaf and capacity 1 exercises
  // fork segments with empty access runs landing exactly on seal
  // boundaries.
  Engine& eng = testing::engine();
  auto prog = [](auto& cx) {
    auto a = cx.template alloc<i64>(16, "a");
    cx.run(16, [&] { alg::prefix_sums(cx, a.slice().first(8),
                                      a.slice().drop(8)); });
  };
  StreamOptions s;
  s.segment_tasks = 1;
  s.max_resident_segments = 1;
  const TaskGraph mem = eng.record(prog);
  const TaskGraph str = eng.record_stream(prog, s);
  EXPECT_EQ(str.acts, mem.acts);
  EXPECT_EQ(str.segments, mem.segments);
  AccessReader rd(str);
  for (uint64_t i = 0; i < mem.acc_count(); ++i) {
    ASSERT_EQ(rd.at(i), mem.accesses[i]);
  }
}

// ---- the acceptance matrix: bit-identical streaming replay ----

SimConfig stream_machine(uint32_t threads) {
  SimConfig cfg;
  cfg.p = 4;
  cfg.M = 1 << 10;
  cfg.B = 16;
  cfg.replay_threads = threads;
  return cfg;
}

TEST(StreamReplay, BitIdenticalAcrossWindowsAndThreads) {
  const size_t n = 160;
  Engine& eng = testing::engine();
  struct Family {
    const char* name;
    std::function<void(detail::EngineCtx<TraceCtx>&)> prog;
  };
  std::vector<Family> fams;
  fams.push_back({"route", prog_route(n)});
  fams.push_back({"listrank", prog_listrank(n)});
  fams.push_back({"spms", prog_spms(4 * n)});

  // Through Engine::replay with the p=1 baseline on, so threads > 1
  // overlap the main walk and the baseline on two host threads.
  for (const Family& f : fams) {
    const TaskGraph mem = eng.record(f.prog);
    for (const Backend b : {Backend::kSimPws, Backend::kSimRws}) {
      const RunReport base = eng.replay(mem, b, stream_machine(1));
      for (const uint32_t window : {1u, 2u, 0u}) {  // 0 = unbounded
        const TaskGraph str =
            eng.record_stream(f.prog, tiny_stream(window));
        for (const uint32_t threads : {1u, 2u, 8u}) {
          const RunReport r = eng.replay(str, b, stream_machine(threads));
          EXPECT_EQ(r.sim, base.sim)
              << f.name << " " << backend_name(b) << " window=" << window
              << " threads=" << threads;
          EXPECT_EQ(r.q_seq, base.q_seq);
          EXPECT_EQ(r.seq_makespan, base.seq_makespan);
        }
      }
    }
  }
}

TEST(StreamReplay, MergedBatchMatchesInMemoryBatch) {
  const size_t n = 128;
  std::vector<AnyProg> progs;
  progs.emplace_back(prog_route(n));
  progs.emplace_back(prog_listrank(n));
  progs.emplace_back(prog_spms(2 * n));

  RunOptions opt;
  opt.backend = Backend::kSimPws;
  opt.label = "stream-batch";
  opt.sim = stream_machine(2);
  const JobResult mem_jr = testing::engine().submit(
      {.kind = JobKind::kBatch,
       .shards = static_cast<uint32_t>(progs.size()),
       .opt = opt},
      progs);
  ASSERT_TRUE(mem_jr.ok()) << mem_jr.error;
  const BatchReport& mem = mem_jr.batch;

  RunOptions sopt = opt;
  sopt.trace = tiny_stream(2);
  const JobResult str_jr = testing::engine().submit(
      {.kind = JobKind::kBatch,
       .shards = static_cast<uint32_t>(progs.size()),
       .opt = sopt},
      progs);
  ASSERT_TRUE(str_jr.ok()) << str_jr.error;
  const BatchReport& str = str_jr.batch;

  ASSERT_EQ(str.runs.size(), mem.runs.size());
  for (size_t i = 0; i < mem.runs.size(); ++i) {
    EXPECT_EQ(str.runs[i].sim, mem.runs[i].sim) << "shard " << i;
    EXPECT_EQ(str.runs[i].q_seq, mem.runs[i].q_seq) << "shard " << i;
    EXPECT_TRUE(str.runs[i].has_stream);
    EXPECT_GT(str.runs[i].trace_segments, 0u);
  }
  EXPECT_EQ(str.aggregate.sim, mem.aggregate.sim);
  EXPECT_TRUE(str.aggregate.has_stream);
  EXPECT_GT(str.aggregate.trace_spilled_bytes, 0u);
  EXPECT_FALSE(mem.aggregate.has_stream);

  // The merged graphs read back identically through AccessReader, in
  // both directions: a streamed part's part-local activation ids come
  // back global, as merge_shards rewrote the resident ones.
  Engine& eng = testing::engine();
  std::vector<TaskGraph> mem_parts, str_parts;
  for (size_t k = 0; k < progs.size(); ++k) {
    const uint32_t shard = static_cast<uint32_t>(k);
    mem_parts.push_back(eng.record(progs[k], false, 4096, shard));
    str_parts.push_back(
        eng.record_stream(progs[k], sopt.trace, false, 4096, shard));
  }
  const TaskGraph mg = merge_shards(std::move(mem_parts));
  const TaskGraph sg = merge_shards(std::move(str_parts));
  ASSERT_EQ(sg.streams.size(), progs.size());
  ASSERT_EQ(sg.acc_count(), mg.acc_count());
  AccessReader fwd(sg);
  for (uint64_t i = 0; i < mg.acc_count(); ++i)
    ASSERT_EQ(fwd.at(i), mg.accesses[i]) << "access " << i;
  AccessReader back(sg);
  for (uint64_t i = mg.acc_count(); i-- > 0;)
    ASSERT_EQ(back.at(i), mg.accesses[i]) << "access " << i;
}

// ---- batch shards are standalone trace jobs ----

/// A report with the two fields a host schedule may change — the label
/// and the wall clock — blanked, as its flat JSON.
std::string schedule_free(RunReport r) {
  r.label.clear();
  r.wall_ms = 0;
  return r.to_json();
}

TEST(Batch, ShardRowsEqualStandaloneRuns) {
  // Each shard of a batch is its own simulated machine, so its row is the
  // run job of its program recorded at that shard: Metrics, baseline,
  // graph stats and every store counter, resident high-water included.
  // Parallel chains walk on one host thread each, and so does the run job
  // here: a run job with replay_threads > 1 overlaps its two walks, which
  // pins more segments at once (Metrics stay equal either way).
  const size_t n = 128;
  std::vector<AnyProg> progs;
  progs.emplace_back(prog_route(n));
  progs.emplace_back(prog_listrank(n));
  progs.emplace_back(prog_spms(2 * n));
  Engine& eng = testing::engine();

  for (const Backend backend : {Backend::kSimPws, Backend::kSimRws}) {
    for (const bool streamed : {false, true}) {
      for (const uint32_t threads : {1u, 2u, 8u}) {
        RunOptions opt;
        opt.backend = backend;
        opt.label = "rows";
        opt.sim = stream_machine(threads);
        if (streamed) opt.trace = tiny_stream(2);
        const JobSpec spec{.kind = JobKind::kBatch,
                           .shards = static_cast<uint32_t>(progs.size()),
                           .opt = opt};
        const std::string what =
            std::string(backend_name(backend)) +
            (streamed ? " streamed" : " in-memory") +
            " threads=" + std::to_string(threads);
        const JobResult batch = eng.submit(spec, progs);
        ASSERT_TRUE(batch.ok()) << batch.error;
        ASSERT_EQ(batch.batch.runs.size(), progs.size()) << what;
        for (size_t i = 0; i < progs.size(); ++i) {
          RunOptions sopt = opt;
          sopt.shard = static_cast<uint32_t>(i);
          sopt.sim.replay_threads = 1;
          const JobResult run = eng.submit({.opt = sopt}, progs[i]);
          ASSERT_TRUE(run.ok()) << run.error;
          const RunReport& row = batch.batch.runs[i];
          EXPECT_EQ(row.sim, run.report.sim) << what << " shard " << i;
          EXPECT_EQ(schedule_free(row), schedule_free(run.report))
              << what << " shard " << i;
          EXPECT_EQ(row.has_stream, streamed) << what;
        }
        // Synchronous spilling: the resident high-water repeats exactly.
        const JobResult again = eng.submit(spec, progs);
        ASSERT_TRUE(again.ok()) << again.error;
        EXPECT_EQ(again.batch.aggregate.trace_peak_resident_bytes,
                  batch.batch.aggregate.trace_peak_resident_bytes)
            << what;
      }
    }
  }
}

// ---- report plumbing ----

TEST(StreamReport, EngineRunReportsStoreStats) {
  const size_t n = 512;
  RunOptions opt;
  opt.backend = Backend::kSimPws;
  opt.label = "stream";
  opt.sim = stream_machine(1);
  opt.trace = tiny_stream(1);
  const JobResult r_jr = testing::engine().submit({.opt = opt}, prog_route(n));
  ASSERT_TRUE(r_jr.ok()) << r_jr.error;
  const RunReport& r = r_jr.report;
  ASSERT_TRUE(r.has_stream);
  EXPECT_GT(r.trace_segments, 1u);
  EXPECT_GT(r.trace_spilled_bytes, 0u);
  EXPECT_GT(r.trace_compressed_bytes, 0u);
  EXPECT_LT(r.trace_compressed_bytes, r.trace_spilled_bytes);
  EXPECT_GT(r.trace_compression_ratio(), 1.0);
  EXPECT_GT(r.trace_peak_resident_bytes, 0u);
  EXPECT_GT(r.trace_segment_loads, 0u);  // the replays read the spill
  // Bounded: window + open + a pin per simulated core, in segments of
  // segment_tasks records — far below the full trace.
  const uint64_t seg_bytes = opt.trace.segment_tasks * sizeof(Access);
  EXPECT_LE(r.trace_peak_resident_bytes,
            (uint64_t{opt.trace.max_resident_segments} + 8) * seg_bytes);
  EXPECT_LT(r.trace_peak_resident_bytes, r.graph.accesses * sizeof(Access));

  // The trace_* scalars survive the JSON round trip.
  const std::string j = r.to_json();
  EXPECT_NE(j.find("\"trace_segments\""), std::string::npos);
  RunReport back;
  ASSERT_TRUE(report_from_json(j, back));
  EXPECT_EQ(back.to_json(), j);
  EXPECT_EQ(back.trace_segments, r.trace_segments);
  EXPECT_EQ(back.trace_spilled_bytes, r.trace_spilled_bytes);
  EXPECT_EQ(back.trace_compressed_bytes, r.trace_compressed_bytes);
  EXPECT_EQ(back.trace_peak_resident_bytes, r.trace_peak_resident_bytes);
  EXPECT_EQ(back.trace_segment_loads, r.trace_segment_loads);
  EXPECT_EQ(back.trace_compression_ratio(), r.trace_compression_ratio());

  // One replay thread walks the two replays one after the other, so the
  // reload count is a property of the trace and the machine.
  const JobResult again = testing::engine().submit({.opt = opt},
                                                   prog_route(n));
  ASSERT_TRUE(again.ok()) << again.error;
  EXPECT_EQ(again.report.trace_segment_loads, r.trace_segment_loads);
}

}  // namespace
}  // namespace ro
