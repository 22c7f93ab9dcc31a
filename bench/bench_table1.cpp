// E1 — Table 1 of the paper: structural parameters of every HBP algorithm.
//
// For each algorithm we measure, from recorded traces at two sizes:
//   * W(n) and its growth exponent  (paper column "W(n)")
//   * T∞(n) and its growth          (paper column "T∞")
//   * Q(n, M, B) from the sequential simulation (paper column "Q")
//   * f-excess and shared-block probes at mid depths (columns f(r), L(r))
//   * the max writes per location (limited access, Def 2.4)
//
// Expected shapes (paper Table 1): scans/MT/conversions linear work &
// O(log n) span; Strassen n^2.81; Depth-n-MM n³ work, ~n span; FFT n log n;
// LR ~n log n; f(r): O(1) for BI-based kernels, √r for RM-touching ones;
// L(r): O(1) except Direct BI→RM (√r) and the gap algorithms below their
// threshold.
#include <cmath>

#include "common.h"
#include "ro/core/probes.h"
#include "ro/core/validate.h"

using namespace ro;
using namespace ro::bench;

namespace {

struct Row {
  std::string name;
  TaskGraph g_small;
  TaskGraph g_big;
  double size_ratio;  // input growth between the two recordings
  std::string paper_f;
  std::string paper_l;
};

void emit(Table& t, Row& r) {
  const GraphStats ss = r.g_small.stats();
  const GraphStats sb = r.g_big.stats();
  const double w_exp = std::log(static_cast<double>(sb.work) / ss.work) /
                       std::log(r.size_ratio);
  const SimConfig c = cfg(1, 1 << 12, 32);
  const uint64_t q = measure(r.g_big, Backend::kSeq, c, false).sim.cache_misses();
  const auto la = check_limited_access(r.g_big);
  // f / L probes at block size 16 on mid-size tasks.
  auto probes = probe_tasks(r.g_big, 16, sample_acts_per_depth(r.g_big, 2));
  double f_max = 0;
  uint64_t l_max = 0;
  for (const auto& p : probes) {
    if (p.r < 64 || p.r > (1u << 14)) continue;
    f_max = std::max(f_max, p.f_excess / std::sqrt(static_cast<double>(p.r)));
    l_max = std::max(l_max, p.shared_blocks);
  }
  t.row({r.name, Table::num(static_cast<uint64_t>(sb.work)),
         Table::num(w_exp), Table::num(static_cast<uint64_t>(sb.span)),
         Table::num(q), Table::num(static_cast<uint64_t>(la.max_writes_per_location)),
         Table::num(f_max), Table::num(l_max), r.paper_f, r.paper_l});
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int scale = static_cast<int>(cli.get_int("scale", 1));
  // --sort=spms routes the sort-consuming rows (LR, CC) through SPMS; the
  // two Sort rows always show both primitives side by side.
  const SortKind kind = sort_from_cli(cli);

  Table t("E1: Table 1 — measured structural parameters (big recording)");
  t.header({"algorithm", "W", "W-exp", "T_inf", "Q(n,M,B)", "wr/loc",
            "f/sqrt(r)", "L-probe", "paper f", "paper L"});

  const size_t n1 = 1 << 12, n2 = 1 << 14;
  const uint32_t s1 = 16 * scale, s2 = 32 * scale;

  // Records both sizes (small first) and emits the row.
  const auto row = [&](const char* name, const AnyProg& small,
                       const AnyProg& big, double size_ratio,
                       const char* paper_f, const char* paper_l) {
    Row r{name, record(small), record(big), size_ratio, paper_f, paper_l};
    emit(t, r);
  };
  row("M-Sum (scan)", wl::msum(n1), wl::msum(n2), double(n2) / n1, "1", "1");
  row("PS (prefix sums)", wl::ps(n1), wl::ps(n2), double(n2) / n1, "1", "1");
  row("MA (matrix add)", wl::ma(n1), wl::ma(n2), double(n2) / n1, "1", "1");
  row("MT (BI)", wl::mt(s1 * 2), wl::mt(s2 * 2), 4.0, "1", "1");
  row("RM to BI", wl::rm2bi(s1 * 2), wl::rm2bi(s2 * 2), 4.0, "sqrt(r)", "1");
  row("Direct BI to RM", wl::bi2rm_direct(s1 * 2), wl::bi2rm_direct(s2 * 2),
      4.0, "sqrt(r)", "sqrt(r)");
  row("BI-RM (gap RM)", wl::bi2rm_gap(s1 * 2), wl::bi2rm_gap(s2 * 2), 4.0,
      "sqrt(r)", "gap");
  row("BI-RM for FFT", wl::bi2rm_fft(s1 * 2), wl::bi2rm_fft(s2 * 2), 4.0,
      "sqrt(r)", "1");
  row("Strassen (BI)", wl::strassen(s1), wl::strassen(s2), 4.0, "1", "1");
  row("Depth-n-MM (BI)", wl::mm(s1), wl::mm(s2), 4.0, "1", "1");
  row("FFT (six-step)", wl::fft(1 << 10), wl::fft(1 << 12), 4.0, "sqrt(r)",
      "1");
  row("Sort (HBP msort)", wl::sort(n1 / 2), wl::sort(n2 / 4), 2.0, "sqrt(r)",
      "1");
  row("Sort (SPMS)", wl::sort(n1 / 2, SortKind::kSpms),
      wl::sort(n2 / 4, SortKind::kSpms), 2.0, "sqrt(r)", "1");
  row("LR (list rank)", wl::lr(1 << 9, true, kind),
      wl::lr(1 << 11, true, kind), 4.0, "sqrt(r)", "gap");
  // The false-sharing calibration pair (alg/counters.h, SNIPPETS #1): the
  // packed counters are the adversarial layout ro-doctor repairs, the
  // stride-B padded twin is the clean control the repair must reproduce.
  row("FS counters (packed)", wl::counters(8, 32, 1), wl::counters(8, 128, 1),
      4.0, "1", "packed");
  row("FS counters (padded)", wl::counters(8, 32, 32),
      wl::counters(8, 128, 32), 4.0, "1", "1");
  row("CC (components)", wl::cc(128, 128, kind), wl::cc(512, 512, kind), 4.0,
      "sqrt(r)", "gap");
  t.print();
  if (cli.has("csv")) t.write_csv("table1.csv");

  // The sort's sequential base case, measured off-simulator: the branchy
  // scalar merge vs the branch-free kern::merge the par-* backends select.
  // bench_engine emits the same two measurements as RunReports, so the
  // speedup is tracked across commits in BENCH_history.json by the
  // --trend gate.
  {
    const KernelMergeBench kb = kernel_merge_bench();
    Table k("Kernel microbench: merge base case (scalar vs branch-free)");
    k.header({"base case", "wall-ms", "speedup"});
    k.row({"scalar merge", Table::num(kb.scalar_ms), "1.00x"});
    k.row({"kern::merge", Table::num(kb.kernel_ms),
           fmt_speedup(static_cast<uint64_t>(kb.scalar_ms * 1e6),
                       static_cast<uint64_t>(kb.kernel_ms * 1e6))});
    k.print();
    if (cli.has("csv")) k.write_csv("table1_kernels.csv");
  }

  std::printf(
      "\nNotes: W-exp is the growth exponent between the two recorded sizes\n"
      "(expect ~1 for linear-work kernels over the 4x input ratio => column\n"
      "shows log-ratio base size-ratio; Strassen ~1.4 per area-doubling =\n"
      "n^2.81, Depth-n-MM ~1.5 = n^3).  wr/loc <= O(1) everywhere is the\n"
      "limited-access property (Def 2.4).\n");
  return 0;
}
