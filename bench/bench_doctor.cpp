// ro-doctor acceptance bench: the closed diagnose -> repair -> verify loop
// on the packed-counter calibration kernel (alg/counters.h), demonstrated —
// and RO_CHECKed, not just printed — end to end:
//
//   * diagnosis:  the packed layout's counter line is found and classified
//                 as pure false sharing (no true-sharing events — the
//                 counters are task-private by construction);
//   * repair:     plan_repair emits a stride-B padding remap, and the same
//                 stored trace re-replayed under it (SimConfig::remap)
//                 moves >= 2x fewer blocks;
//   * exactness:  the repaired replay's Metrics are bit-identical across
//                 host replay_threads {1,2,8}, and the repaired machine
//                 matches the stride-B padded control recorded natively —
//                 the remap *is* the padded layout, proven, not estimated;
//   * control:    the padded layout diagnoses clean (no findings, empty
//                 plan), calibrating the verdicts against a healthy run.
//
//   $ ./bench_doctor [--counters=8] [--iters=64] [--p=4] [--M=4096]
//                    [--B=32] [--out=BENCH_doctor.json]
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common.h"
#include "ro/doctor/doctor.h"

using namespace ro;
using namespace ro::bench;

namespace {

std::string reduction_str(double r) {
  if (r <= 0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1fx", r);
  return buf;
}

void doctor_row(Table& t, const std::string& layout, const RunReport& r,
                double reduction) {
  t.row({layout, std::to_string(r.sim.total_block_transfers),
         std::to_string(r.sim.block_misses()),
         std::to_string(r.sim.cache_misses()),
         std::to_string(r.sim.makespan), std::to_string(r.fs_false_events),
         std::to_string(r.fs_hot_lines), reduction_str(reduction)});
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const uint32_t k = static_cast<uint32_t>(cli.get_int("counters", 8));
  const uint64_t iters = static_cast<uint64_t>(cli.get_int("iters", 64));

  SimConfig cfg;
  cfg.p = static_cast<uint32_t>(cli.get_int("p", 4));
  cfg.M = static_cast<uint64_t>(cli.get_int("M", 1 << 12));
  cfg.B = static_cast<uint32_t>(cli.get_int("B", 32));

  // ---- the loop on the packed layout ----
  const TaskGraph packed = record(wl::counters(k, iters, 1));
  const doctor::DoctorReport d =
      engine().diagnose(packed, Backend::kSimPws, cfg, {}, "doctor-packed");

  // Diagnosis: the packed counter line, pure false sharing.
  RO_CHECK_MSG(!d.findings.empty(),
               "packed counters produced no contention findings");
  const doctor::LineFinding& top = d.findings[0];
  RO_CHECK_MSG(top.pattern == doctor::Pattern::kFalseSharing,
               "top packed finding is not pure false sharing");
  RO_CHECK_MSG(top.true_events == 0,
               "task-private counters charged true-sharing events");
  RO_CHECK_MSG(top.hot_words.size() >= 2,
               "false sharing needs >= 2 contended words on the line");
  RO_CHECK_MSG(top.tasks >= 2, "false sharing needs >= 2 tasks on the line");

  // Repair: the verified re-replay moved >= 2x fewer blocks.
  RO_CHECK_MSG(d.has_after, "repair plan was not verified by a re-replay");
  RO_CHECK_MSG(2 * d.after_block_transfers() <= d.before_block_transfers(),
               "repair did not halve block transfers on packed counters");
  RO_CHECK_MSG(d.after.sim.block_misses() < d.before.sim.block_misses(),
               "repair did not reduce coherence misses");

  // Exactness: the repaired replay is bit-identical at every host replay
  // parallelism — the remap changes the simulated machine, never the
  // host schedule's observability.
  for (const uint32_t rt : {1u, 2u, 8u}) {
    SimConfig rcfg = cfg;
    rcfg.remap = &d.plan.remap;
    rcfg.replay_threads = rt;
    const Metrics m =
        engine().replay(packed, Backend::kSimPws, rcfg).sim;
    RO_CHECK_MSG(m == d.after.sim,
                 "repaired replay diverged across replay_threads");
  }

  // ---- the padded control ----
  const TaskGraph padded = record(wl::counters(k, iters, cfg.B));
  const doctor::DoctorReport dp =
      engine().diagnose(padded, Backend::kSimPws, cfg, {}, "doctor-padded");
  RO_CHECK_MSG(dp.findings.empty(),
               "stride-B padded counters still show contention");
  RO_CHECK_MSG(dp.plan.remap.empty(), "healthy layout produced a repair");

  // The remap must reproduce the padded machine: same computation, same
  // coherence traffic.  (Makespans differ only through the layouts' cold
  // misses; the sharing metrics must agree exactly.)
  RO_CHECK_MSG(d.after.sim.block_misses() == dp.before.sim.block_misses(),
               "repaired packed layout != natively padded layout");

  Table t("ro-doctor: packed counters diagnosed, repaired, verified");
  t.header({"layout", "block-transfers", "block-misses", "cache-misses",
            "makespan", "fs-false", "fs-lines", "reduction"});
  doctor_row(t, "packed", d.before, 0);
  doctor_row(t, "packed+remap", d.after, d.transfer_reduction());
  doctor_row(t, "padded (control)", dp.before, 0);
  t.print();

  std::printf(
      "\ndoctor verified: %llu -> %llu block transfers (%.1fx), plan "
      "padded %llu line(s) predicted to avoid %llu event(s)\n",
      static_cast<unsigned long long>(d.before_block_transfers()),
      static_cast<unsigned long long>(d.after_block_transfers()),
      d.transfer_reduction(),
      static_cast<unsigned long long>(d.plan.lines_padded),
      static_cast<unsigned long long>(d.plan.predicted_avoided_events));

  // Three rows for the CI exact gate: the contended run (with its fs_*
  // attribution fields), the verified repair, and the healthy control.
  std::vector<RunReport> reports{d.before, d.after, dp.before};
  const std::string out = cli.get_str("out", "BENCH_doctor.json");
  std::ofstream f(out);
  f << reports_to_json(reports);
  if (!f) {
    std::fprintf(stderr, "error: could not write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %zu RunReports to %s\n", reports.size(), out.c_str());
  return 0;
}
