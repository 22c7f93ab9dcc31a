// Signal analysis with the resource-oblivious FFT: build a noisy multi-tone
// signal, compute its spectrum with the six-step HBP FFT through the
// Engine, report the detected tones, and show the scheduler costs of the
// transform.
//
//   $ ./signal_spectrum [--n=4096] [--p=8] [--tones=3]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "ro/alg/fft.h"
#include "ro/engine/engine.h"
#include "ro/util/cli.h"
#include "ro/util/rng.h"
#include "ro/util/table.h"

using namespace ro;
using alg::cplx;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const size_t n = static_cast<size_t>(cli.get_int("n", 4096));
  const uint32_t p = static_cast<uint32_t>(cli.get_int("p", 8));
  const int tones = static_cast<int>(cli.get_int("tones", 3));
  RO_CHECK(is_pow2(n));

  // Compose the signal: `tones` sinusoids + white noise.
  Rng rng(42);
  std::vector<size_t> freqs;
  std::vector<double> amps;
  for (int t = 0; t < tones; ++t) {
    freqs.push_back(1 + rng.next_below(n / 2 - 1));
    amps.push_back(1.0 + static_cast<double>(t));
  }
  std::vector<double> signal(n);
  for (size_t j = 0; j < n; ++j) {
    double v = 0.1 * (rng.next_double() - 0.5);  // noise floor
    for (int t = 0; t < tones; ++t) {
      v += amps[t] *
           std::cos(2 * M_PI * static_cast<double>(freqs[t] * j) / n);
    }
    signal[j] = v;
  }

  // Record the transform through the Engine; the spectrum is copied out of
  // the program so it can be analyzed after the run.
  std::vector<cplx> spectrum;
  Engine eng;
  const TaskGraph rec = eng.record([&](auto& cx) {
    auto x = cx.template alloc<cplx>(n, "signal");
    for (size_t j = 0; j < n; ++j) x.raw()[j] = cplx(signal[j], 0.0);
    auto y = cx.template alloc<cplx>(n, "spectrum");
    cx.run(4 * n, [&] { alg::fft(cx, x.slice(), y.slice()); });
    spectrum.assign(y.raw(), y.raw() + n);
  });

  // Peak picking (real signal -> look at bins < n/2; magnitude ~ amp*n/2).
  Table peaks("detected tones (true tones: " + Table::num(tones) + ")");
  peaks.header({"bin", "magnitude/n", "expected-amp/2"});
  std::vector<std::pair<double, size_t>> mag;
  for (size_t k = 1; k < n / 2; ++k) {
    mag.push_back({std::abs(spectrum[k]), k});
  }
  std::sort(mag.rbegin(), mag.rend());
  for (int t = 0; t < tones; ++t) {
    const size_t bin = mag[t].second;
    double expect = 0;
    for (int q = 0; q < tones; ++q) {
      if (freqs[q] == bin) expect = amps[q] / 2;
    }
    peaks.row({Table::num(static_cast<uint64_t>(bin)),
               Table::num(mag[t].first / n), Table::num(expect)});
  }
  peaks.print();

  // Scheduler costs of the transform, via one replay with baseline.
  SimConfig cfg;
  cfg.p = p;
  cfg.M = 1 << 12;
  cfg.B = 32;
  const RunReport r = eng.replay(rec, Backend::kSimPws, cfg);
  std::printf("\nFFT n=%zu on p=%u simulated cores:\n  PWS %s\n", n, p,
              r.sim.summary().c_str());
  std::printf("  simulated speedup: %.2fx\n", r.sim_speedup());
  return 0;
}
