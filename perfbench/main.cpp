// perfbench — the repository benchmark program (see README.md).
//
//   perfbench --workload <hbp-sort|bp-scan-stream|serve-mix> --seed <n>
//             --seconds <s> --trace <0|1> --expected <file>
//             [--trace-out <file.jsonl>]
//
// Run from a scratch working directory: the ro-serve socket and the trace
// spill file are created there.  The last stdout line is the result JSON:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
#include <sys/resource.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"

namespace {

using namespace perfbench;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

bool load_expected(const std::string& path,
                   std::map<std::string, std::string>& out) {
  std::ifstream f(path);
  if (!f) return false;
  std::string line;
  while (std::getline(f, line)) {
    std::istringstream ls(line);
    std::string key, fp;
    if (line.empty() || line[0] == '#' || !(ls >> key >> fp)) continue;
    out[key] = fp;
  }
  return true;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Peak resident memory of the timed phase in five-second windows: a
/// thread reads VmHWM, then resets it through /proc/self/clear_refs.
/// ru_maxrss is the peak of the whole process, and a rare allocator
/// excursion (about one job in 40 of bp-scan-stream peaks 30 MiB higher)
/// makes it bimodal across runs; the median window peak is not.  A window
/// spans several whole jobs of every workload, so its peak does not depend
/// on where job boundaries fall.  Where the reset is refused, every window
/// reads the process peak.
class RssWindows {
 public:
  RssWindows() : thread_([this] { loop(); }) {}
  ~RssWindows() { stop(); }
  RssWindows(const RssWindows&) = delete;
  RssWindows& operator=(const RssWindows&) = delete;

  /// Closes the last window; the peak of each window in MiB.
  std::vector<double> stop() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return peaks_;
  }

 private:
  static double hwm_mib() {
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
      if (line.rfind("VmHWM:", 0) == 0)
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
    return peak_rss_mib();
  }
  static void reset_hwm() { std::ofstream("/proc/self/clear_refs") << "5"; }

  void loop() {
    std::unique_lock<std::mutex> lk(mu_);
    reset_hwm();
    while (!cv_.wait_for(lk, std::chrono::seconds(5),
                         [this] { return stopping_; })) {
      peaks_.push_back(hwm_mib());
      reset_hwm();
    }
    peaks_.push_back(hwm_mib());
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::vector<double> peaks_;
  std::thread thread_;  // last: starts after the members it uses
};

void print_result(const Result& res) {
  for (const std::string& n : res.notes) std::printf("%s\n", n.c_str());
  std::string s = "{\"correct\": ";
  s += res.failed == 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(res.attempted);
  s += ", \"failed\": " + std::to_string(res.failed);
  s += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : res.metrics) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", vu.first);
    if (!first) s += ", ";
    first = false;
    s += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
         vu.second + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --expected <file> "
               "[--trace-out <file>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    if (k.rfind("--", 0) != 0) return usage("malformed arguments");
    args[k.substr(2)] = argv[i + 1];
  }
  for (const char* k : {"workload", "seed", "seconds", "trace", "expected"})
    if (args.count(k) == 0) return usage((std::string("missing --") + k).c_str());
  const uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds = std::atof(args["seconds"].c_str());
  const bool traced = args["trace"] == "1";
  if (seconds <= 0) return usage("--seconds must be positive");
  WorkloadDef def;
  if (!make_workload_def(args["workload"], seed, def))
    return usage("unknown workload");
  std::map<std::string, std::string> committed;
  if (!load_expected(args["expected"], committed))
    return usage("cannot read the expected-fingerprint file");

  Result res;
  const bool with_server = def.open_loop || traced;
  std::vector<double> setup_s;
  std::unique_ptr<Setup> st;
  for (int i = 0; i < kSetups; ++i) {
    st.reset();  // the previous server stops before the next one binds
    const auto t0 = Clock::now();
    st = run_setup(def, with_server, res);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  check_canaries(def, *st->engine, committed, res);
  if (with_server && !st->server) {
    std::fprintf(stderr, "perfbench: the in-process server did not start\n");
    for (const std::string& n : res.notes)
      std::fprintf(stderr, "%s\n", n.c_str());
    return 1;
  }

  if (!traced) {
    RssWindows rss;
    if (def.open_loop) {
      run_open_loop(def, *st, seed, seconds, nullptr, res, nullptr);
    } else {
      run_closed_loop(def, *st, seconds, res);
    }
    const std::vector<double> windows = rss.stop();
    res.set("setup_s", median(setup_s), "s");
    res.set("peak_rss_mb", median(windows), "MiB");
    // failed_frac is 0 on correct code, and a metric with a bound must
    // never read 0, so the bounded metric is its complement.
    const double failed_frac = static_cast<double>(res.failed) /
                               static_cast<double>(res.attempted);
    res.set("ok_frac", 1.0 - failed_frac, "frac");
    char buf[96];
    std::snprintf(buf, sizeof buf, "failed_frac %.6g (%llu of %llu)",
                  failed_frac, static_cast<unsigned long long>(res.failed),
                  static_cast<unsigned long long>(res.attempted));
    res.notes.push_back(buf);
    std::snprintf(buf, sizeof buf,
                  "peak_rss_mb is the median of %zu five-second window "
                  "peaks; the highest is %.1f MiB",
                  windows.size(),
                  *std::max_element(windows.begin(), windows.end()));
    res.notes.push_back(buf);
  } else {
    // Half the run drives the workload's jobs over the wire as an open
    // loop, for the serve layer under load; half is the layer pass.
    Tracer tracer;
    std::vector<WireSample> wire;
    run_open_loop(def, *st, seed, seconds / 2, &tracer, res, &wire);
    run_layers(def, *st, seconds / 2, tracer, res);
    emit_serve_metrics(wire, *st, res);
    const auto out = args.find("trace-out");
    if (out != args.end() && !tracer.write_jsonl(out->second))
      res.fail("cannot write spans to " + out->second);
  }
  st.reset();
  print_result(res);
  return 0;
}
