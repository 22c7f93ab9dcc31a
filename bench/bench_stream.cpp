// Streaming trace pipeline bench: record + replay through the chunked
// TraceStore (ro::StreamOptions) at resident windows far smaller than the
// trace, against the classic in-memory pipeline on the same workload.
// Demonstrates — and RO_CHECKs, not just prints — the acceptance
// properties of the streaming pipeline:
//
//   * scale:      the recorded trace is >= 4x larger than the resident
//                 window allows in memory (default config: ~100x);
//   * exactness:  streaming replay Metrics and the p=1 baseline are
//                 bit-identical to the in-memory walk at every window;
//   * boundedness: trace_peak_resident_bytes stays within the window plus
//                 a constant slack (open segment + cursor pins), never
//                 tracking the trace size;
//   * compression: spilled segments shrink >= 4x under the delta/varint
//                 codec (trace_codec.h), on every window and in the batch;
//   * batch:      every shard row of a streamed batch (one record ->
//                 replay chain per shard) equals the run job of
//                 its program at that shard, and the chains spill the
//                 whole stream.
//
//   $ ./bench_stream [--n=32768] [--p=8] [--M=4096] [--B=32]
//                    [--segment=4096]      # records per trace segment
//                    [--windows=1,4,16]    # max_resident_segments sweep
//                    [--replay-threads=1]  # host replay parallelism
//                    [--batch=1]           # the batch leg (0 = skip)
//                    [--batch-threads=4]   # its host threads
//                    [--out=BENCH_stream.json]
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common.h"

using namespace ro;
using namespace ro::bench;

namespace {

std::string mb(uint64_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", bytes / 1048576.0);
  return buf;
}

std::string ratio_str(uint64_t raw, uint64_t compressed) {
  if (compressed == 0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1fx",
                static_cast<double>(raw) / static_cast<double>(compressed));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const size_t n = static_cast<size_t>(cli.get_int("n", 1 << 15));
  const uint64_t segment =
      static_cast<uint64_t>(cli.get_int("segment", 1 << 12));
  const std::vector<uint32_t> windows =
      u32_list_from_cli(cli, "windows", "1,4,16");

  RunOptions opt;
  opt.backend = Backend::kSimPws;
  opt.label = "stream-mem";
  opt.sim.p = static_cast<uint32_t>(cli.get_int("p", 8));
  opt.sim.M = static_cast<uint64_t>(cli.get_int("M", 1 << 12));
  opt.sim.B = static_cast<uint32_t>(cli.get_int("B", 32));
  opt.sim.replay_threads =
      static_cast<uint32_t>(cli.get_int("replay-threads", 1));

  // The SPMS sort trace: the access-heaviest Table-1 family per input
  // word, so the stream dwarfs any reasonable window.
  auto prog = wl::sort(n, SortKind::kSpms);

  Table t("Streaming trace pipeline: bounded-memory record + replay");
  t.header({"pipeline", "window", "trace-MB", "resident-peak-MB", "spilled-MB",
            "compressed-MB", "ratio", "segments", "makespan", "wall-ms"});

  const JobResult mem_jr = engine().submit({.opt = opt}, prog);
  RO_CHECK_MSG(mem_jr.ok(), mem_jr.error.c_str());
  const RunReport& mem = mem_jr.report;
  const uint64_t trace_bytes = mem.graph.accesses * sizeof(Access);
  t.row({"in-memory", "-", mb(trace_bytes), mb(trace_bytes), "0.00", "0.00",
         "-", "0", std::to_string(mem.sim.makespan), Table::num(mem.wall_ms)});

  std::vector<RunReport> reports;
  reports.push_back(mem);
  for (const uint32_t w : windows) {
    RunOptions sopt = opt;
    sopt.label = "stream-w" + std::to_string(w);
    sopt.trace.segment_tasks = segment;
    sopt.trace.max_resident_segments = w;
    const JobResult r_jr = engine().submit({.opt = sopt}, prog);
    RO_CHECK_MSG(r_jr.ok(), r_jr.error.c_str());
    const RunReport& r = r_jr.report;
    RO_CHECK_MSG(r.has_stream, "streaming run must report store stats");

    // Exactness: scheduling decisions consume identical records, so the
    // simulated machine cannot tell the representations apart.
    RO_CHECK_MSG(r.sim == mem.sim,
                 "streaming replay diverged from the in-memory walk");
    RO_CHECK_MSG(r.q_seq == mem.q_seq,
                 "streaming baseline diverged from the in-memory walk");

    // Scale: the trace must dwarf what the window can hold.
    const uint64_t window_bytes = uint64_t{w} * segment * sizeof(Access);
    RO_CHECK_MSG(trace_bytes >= 4 * window_bytes,
                 "trace too small to demonstrate bounded-memory replay; "
                 "raise --n or shrink --windows/--segment");

    // Boundedness: window + open segment + one pinned segment per
    // simulated core — never the trace itself.
    const uint64_t slack = (uint64_t{opt.sim.p} + 4) * segment * sizeof(Access);
    RO_CHECK_MSG(r.trace_peak_resident_bytes <= window_bytes + slack,
                 "resident high-water exceeded the configured window");

    // Compression: a real SPMS trace must shrink >= 4x on disk.
    RO_CHECK_MSG(r.trace_compressed_bytes > 0,
                 "compressed spill reported zero physical bytes");
    RO_CHECK_MSG(4 * r.trace_compressed_bytes <= r.trace_spilled_bytes,
                 "spilled segments compressed below 4x; codec regressed");

    t.row({"streaming", std::to_string(w), mb(trace_bytes),
           mb(r.trace_peak_resident_bytes), mb(r.trace_spilled_bytes),
           mb(r.trace_compressed_bytes),
           ratio_str(r.trace_spilled_bytes, r.trace_compressed_bytes),
           std::to_string(r.trace_segments), std::to_string(r.sim.makespan),
           Table::num(r.wall_ms)});
    reports.push_back(r);
  }

  t.print();

  const uint32_t w0 = windows.empty() ? 1 : windows[0];
  std::printf("\nstreamed %zu windows bit-identically: trace=%.2f MB, "
              "smallest window=%.2f MB (%.0fx smaller)\n",
              windows.size(), trace_bytes / 1048576.0,
              w0 * segment * sizeof(Access) / 1048576.0,
              static_cast<double>(trace_bytes) /
                  (w0 * segment * sizeof(Access)));

  // ---- the batch leg: one record -> replay chain per shard ----
  //
  // A heterogeneous sort batch (SPMS + merge sort at two sizes) as one
  // batch job: each shard is a chain on the host pool, and shard i replays
  // while shard j still records.  Every shard row must equal the run job
  // of its program at that shard, walked on one host thread like a chain.
  if (cli.get_int("batch", 1) != 0) {
    std::vector<AnyProg> progs;
    progs.emplace_back(wl::sort(n, SortKind::kSpms));
    progs.emplace_back(wl::sort(n, SortKind::kMsort));
    progs.emplace_back(wl::sort(n / 2, SortKind::kSpms));
    progs.emplace_back(wl::sort(n / 2, SortKind::kMsort));

    RunOptions bopt = opt;
    bopt.label = "stream-batch";
    bopt.sim.replay_threads =
        static_cast<uint32_t>(cli.get_int("batch-threads", 4));
    bopt.trace.segment_tasks = segment;
    bopt.trace.max_resident_segments = w0;
    const JobResult batch_jr = engine().submit(
        {.kind = JobKind::kBatch,
         .shards = static_cast<uint32_t>(progs.size()),
         .opt = bopt},
        progs);
    RO_CHECK_MSG(batch_jr.ok(), batch_jr.error.c_str());
    const BatchReport& batch = batch_jr.batch;
    RO_CHECK_MSG(batch.runs.size() == progs.size(), "batch lost shards");

    double standalone_ms = 0;
    for (size_t i = 0; i < progs.size(); ++i) {
      RunOptions sopt = bopt;
      sopt.shard = static_cast<uint32_t>(i);
      sopt.sim.replay_threads = 1;
      const JobResult run_jr = engine().submit({.opt = sopt}, progs[i]);
      RO_CHECK_MSG(run_jr.ok(), run_jr.error.c_str());
      const RunReport& run = run_jr.report;
      const RunReport& row = batch.runs[i];
      standalone_ms += run.wall_ms;
      RO_CHECK_MSG(row.sim == run.sim && row.q_seq == run.q_seq &&
                       row.seq_makespan == run.seq_makespan,
                   "batch shard replay diverged from its standalone run");
      RO_CHECK_MSG(row.graph.work == run.graph.work &&
                       row.graph.accesses == run.graph.accesses,
                   "batch shard recording diverged from its standalone run");
      RO_CHECK_MSG(row.trace_segments == run.trace_segments &&
                       row.trace_spilled_bytes == run.trace_spilled_bytes &&
                       row.trace_compressed_bytes ==
                           run.trace_compressed_bytes &&
                       row.trace_peak_resident_bytes ==
                           run.trace_peak_resident_bytes,
                   "batch shard store diverged from its standalone run");
    }
    // The window is far smaller than each shard's stream, so every
    // segment leaves it at least once over record and replay:
    // the whole stream reaches disk — and still shrinks >= 4x.
    RO_CHECK_MSG(batch.aggregate.trace_spilled_bytes ==
                     batch.aggregate.graph.accesses * sizeof(Access),
                 "batch spill must cover the whole stream");
    RO_CHECK_MSG(4 * batch.aggregate.trace_compressed_bytes <=
                     batch.aggregate.trace_spilled_bytes,
                 "batch spill compressed below 4x; codec regressed");

    Table pt("Batch chains (4-shard sort batch)");
    pt.header({"schedule", "record-ms", "replay-ms", "wall-ms", "speedup"});
    pt.row({"standalone runs", "-", "-", Table::num(standalone_ms), "1.00x"});
    char sp[32];
    std::snprintf(sp, sizeof sp, "%.2fx",
                  batch.wall_ms > 0 ? standalone_ms / batch.wall_ms : 0.0);
    pt.row({"batch", Table::num(batch.record_ms),
            Table::num(batch.replay_ms), Table::num(batch.wall_ms), sp});
    pt.print();
    std::printf("(batch record/replay-ms are busy times summed over shards; "
                "their sum exceeding wall-ms is the overlap)\n");

    // The JSON row for the exact CI gate.  Its resident high-water is the
    // sum of the shards' peaks, each equal to its standalone run's (checked
    // above), so it is as deterministic as the other store counters.
    reports.push_back(batch.aggregate);
  }

  const std::string out = cli.get_str("out", "BENCH_stream.json");
  std::ofstream f(out);
  f << reports_to_json(reports);
  if (!f) {
    std::fprintf(stderr, "error: could not write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %zu RunReports to %s\n", reports.size(), out.c_str());
  return 0;
}
