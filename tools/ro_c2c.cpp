// ro-c2c — external-validity check for the simulator's block-transfer
// accounting, in the style of `perf c2c` (SNIPPETS #2): do the cache lines
// the simulator says bounce under false sharing actually bounce on this
// machine's coherence fabric?
//
// Two measurements of the same packed/padded counter pair (alg/counters.h):
//
//  * simulator: record each workload once, replay under sim-PWS, and read
//    the predicted block transfers (the simulated line bounces);
//  * hardware: run k real threads each hammering its own counter slot —
//    stride 1 packs all slots into one cache line (the false-sharing
//    adversary), stride B gives every thread a private line — while a
//    perf_event HITM counter (hit-modified snoops, the signature of a
//    line bouncing between cores) watches the process tree.
//
// External validity holds when both views agree in shape: packed >> padded.
// The absolute counts are incomparable (simulated words vs retired load
// events) — the ratio is the claim.
//
// The hardware half needs a PMU and permission to open it.  Sanitizer and
// container CI legs have neither, so every capability failure prints an
// explicit "skipped: no PMU" line and exits 0: the tool degrades to the
// simulator half, it never fails a leg that cannot measure.
//
//   $ ro-c2c [--threads=8] [--iters=2000000] [--sim-iters=2048]
//            [--p=8] [--M=4096] [--B=32] [--strict]
//
// --strict: exit 1 when the PMU is readable but the hardware disagrees
// with the simulator (packed/padded HITM ratio < --require, default 2).
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "ro/engine/engine.h"
#include "ro/engine/workloads.h"
#include "ro/util/check.h"
#include "ro/util/cli.h"

namespace {

using namespace ro;

// ---- simulator half ----

uint64_t sim_block_transfers(Engine& eng, uint32_t k, uint64_t iters,
                             uint64_t stride, const SimConfig& c) {
  RunOptions opt;
  opt.backend = Backend::kSimPws;
  opt.sim = c;
  opt.label = stride == 1 ? "c2c-packed" : "c2c-padded";
  const JobResult jr =
      eng.submit({.opt = opt}, wl::counters(k, iters, stride));
  RO_CHECK_MSG(jr.ok(), jr.error.c_str());
  return jr.report.sim.total_block_transfers;
}

// ---- hardware half ----

long perf_open(perf_event_attr& attr) {
  attr.size = sizeof(attr);
  attr.disabled = 1;
  attr.inherit = 1;  // count the worker threads we are about to spawn
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  return syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
}

struct HitmCounter {
  int fd = -1;
  const char* event = "";
};

// Opens the best available proxy for cross-core modified-line snoops:
// first the Intel XSNP_HITM retired-load event (raw 0xd2 umask 0x04, the
// same event `perf c2c` leans on), then the portable LL-read-miss cache
// event.  Both fire far more often when a modified line ping-pongs.
HitmCounter open_hitm() {
  HitmCounter h;
  perf_event_attr attr{};
  attr.type = PERF_TYPE_RAW;
  attr.config = 0x04d2;  // MEM_LOAD_*_RETIRED.XSNP_HITM (Intel)
  long fd = perf_open(attr);
  if (fd >= 0) {
    h.fd = static_cast<int>(fd);
    h.event = "xsnp-hitm (raw 0x04d2)";
    return h;
  }
  std::memset(&attr, 0, sizeof(attr));
  attr.type = PERF_TYPE_HW_CACHE;
  attr.config = PERF_COUNT_HW_CACHE_LL | (PERF_COUNT_HW_CACHE_OP_READ << 8) |
                (PERF_COUNT_HW_CACHE_RESULT_MISS << 16);
  fd = perf_open(attr);
  if (fd >= 0) {
    h.fd = static_cast<int>(fd);
    h.event = "LLC-load-misses (HW_CACHE fallback)";
  }
  return h;
}

// k threads, each atomically bumping its own slot `iters` times.  stride 1
// packs every slot into one line; stride >= a line keeps them private.
// Returns the HITM-proxy count for the whole run, or UINT64_MAX when the
// counter could not be read.
uint64_t hw_counter_run(const HitmCounter& h, uint32_t k, uint64_t iters,
                        size_t stride_words) {
  const size_t words = (k - 1) * stride_words + 1;
  std::vector<std::atomic<int64_t>> slots(words);
  for (auto& s : slots) s.store(0, std::memory_order_relaxed);

  ioctl(h.fd, PERF_EVENT_IOC_RESET, 0);
  ioctl(h.fd, PERF_EVENT_IOC_ENABLE, 0);
  std::vector<std::thread> workers;
  workers.reserve(k);
  for (uint32_t c = 0; c < k; ++c) {
    workers.emplace_back([&slots, c, stride_words, iters] {
      std::atomic<int64_t>& slot = slots[c * stride_words];
      for (uint64_t i = 0; i < iters; ++i)
        slot.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (auto& w : workers) w.join();
  ioctl(h.fd, PERF_EVENT_IOC_DISABLE, 0);

  for (uint32_t c = 0; c < k; ++c) {
    RO_CHECK_MSG(slots[c * stride_words].load() ==
                     static_cast<int64_t>(iters),
                 "counter kernel lost increments");
  }
  uint64_t count = 0;
  if (read(h.fd, &count, sizeof(count)) != sizeof(count)) return UINT64_MAX;
  return count;
}

double ratio(uint64_t packed, uint64_t padded) {
  return static_cast<double>(packed) /
         static_cast<double>(padded ? padded : 1);
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const unsigned hw = std::thread::hardware_concurrency();
  const uint32_t k = static_cast<uint32_t>(
      cli.get_int("threads", hw > 2 ? std::min(8u, hw) : 2));
  const uint64_t iters =
      static_cast<uint64_t>(cli.get_int("iters", 2'000'000));
  const uint64_t sim_iters =
      static_cast<uint64_t>(cli.get_int("sim-iters", 2048));
  // The simulated machine is free: default to 8 cores even on small hosts
  // so the packed layout has neighbors to bounce against.
  SimConfig c;
  c.p = static_cast<uint32_t>(cli.get_int("p", 8));
  c.M = static_cast<uint64_t>(cli.get_int("M", 1 << 12));
  c.B = static_cast<uint32_t>(cli.get_int("B", 32));
  // One line of padding in both views: B simulated words, and a real cache
  // line (64B = 8 i64 slots) on the hardware side.
  const uint64_t sim_pad = c.B;
  const size_t hw_pad = 64 / sizeof(int64_t);

  Engine eng;
  const uint64_t sim_packed = sim_block_transfers(eng, k, sim_iters, 1, c);
  const uint64_t sim_padded =
      sim_block_transfers(eng, k, sim_iters, sim_pad, c);
  std::printf("ro-c2c: simulator (p=%u, B=%u, %llu iters)\n", c.p, c.B,
              static_cast<unsigned long long>(sim_iters));
  std::printf("  packed  block transfers: %llu\n",
              static_cast<unsigned long long>(sim_packed));
  std::printf("  padded  block transfers: %llu\n",
              static_cast<unsigned long long>(sim_padded));
  std::printf("  predicted packed/padded: %.1fx\n",
              ratio(sim_packed, sim_padded));

  const HitmCounter h = open_hitm();
  if (h.fd < 0) {
    std::printf("ro-c2c: skipped: no PMU (perf_event_open: %s)\n",
                std::strerror(errno));
    return 0;
  }
  const uint64_t hw_packed = hw_counter_run(h, k, iters, 1);
  const uint64_t hw_padded = hw_counter_run(h, k, iters, hw_pad);
  close(h.fd);
  if (hw_packed == UINT64_MAX || hw_padded == UINT64_MAX) {
    std::printf("ro-c2c: skipped: no PMU (counter unreadable)\n");
    return 0;
  }
  if (hw_packed == 0 && hw_padded == 0) {
    std::printf("ro-c2c: skipped: no PMU (%s counted nothing)\n", h.event);
    return 0;
  }

  std::printf("ro-c2c: hardware (%u threads, %llu iters, %s)\n", k,
              static_cast<unsigned long long>(iters), h.event);
  std::printf("  packed  HITM events: %llu\n",
              static_cast<unsigned long long>(hw_packed));
  std::printf("  padded  HITM events: %llu\n",
              static_cast<unsigned long long>(hw_padded));
  const double hw_ratio = ratio(hw_packed, hw_padded);
  std::printf("  measured packed/padded: %.1fx\n", hw_ratio);

  const double require = cli.get_double("require", 2.0);
  const bool consistent = hw_ratio >= require;
  std::printf("ro-c2c: external validity: %s — simulator predicts %.1fx "
              "more line bounces for the packed layout, hardware shows "
              "%.1fx (threshold %.1fx)\n",
              consistent ? "CONSISTENT" : "INCONSISTENT",
              ratio(sim_packed, sim_padded), hw_ratio, require);
  if (!consistent && cli.has("strict")) return 1;
  return 0;
}
