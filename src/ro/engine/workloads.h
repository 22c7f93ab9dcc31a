// The workload registry: the one place a workload program is written.
//
// The typed builders in `wl` are the Table-1 algorithms the benches,
// tools and tests run, each with deterministic inputs: the same arguments
// always produce the same program and therefore — on sim backends — the
// same bit-exact Metrics.  `seed` salts the input RNG of the builders
// that draw random inputs (0 = the classic bench inputs), so batch shards
// get distinct-but-deterministic inputs via seed, seed+1, ...; the
// input-free builders (matrix add, transposes, layout conversions, the
// two matrix multiplies, the counters) have nothing to salt.
//
// The row table (workload_rows()) names one program per benched
// algorithm or variant and says which n it accepts.  A serve job arrives
// as data (a JSON JobSpec), not as code, so JobSpec::workload picks a row
// by name; Engine::submit refuses an n the row does not accept, and a
// workload is keyed by (name, n, seed), which is what lets bench_serve
// cross-check a served job against a one-shot submit of the same spec.
// docs/serve.md lists the rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ro/alg/sort.h"
#include "ro/engine/any_prog.h"

namespace ro {

namespace wl {

using alg::SortKind;

/// Divide-and-conquer sum over n random i64.
AnyProg msum(uint64_t n, uint64_t seed = 0, size_t grain = 1);
/// Prefix sums over n random i64.
AnyProg ps(uint64_t n, uint64_t seed = 0);
/// Elementwise add of two n-word arrays.
AnyProg ma(uint64_t n);
/// BI matrix transpose of a side×side matrix.
AnyProg mt(uint32_t side);
/// Row-major to bit-interleaved conversion of a side×side matrix.
AnyProg rm2bi(uint32_t side);
/// Bit-interleaved to row-major: the direct, gapped and FFT-route variants.
AnyProg bi2rm_direct(uint32_t side);
AnyProg bi2rm_gap(uint32_t side);
AnyProg bi2rm_fft(uint32_t side);
/// Strassen over side×side BI matrices.
AnyProg strassen(uint32_t side, size_t grain = 1);
/// Depth-n matrix multiply over side×side BI matrices.
AnyProg mm(uint32_t side);
/// Six-step FFT over n random complex values (n a power of two).
AnyProg fft(uint64_t n, uint64_t seed = 0);
/// Sorts n random i64 with `kind` (8-way msort base case).
AnyProg sort(uint64_t n, SortKind kind = SortKind::kMsort, uint64_t seed = 0,
             size_t grain = 1);
/// List ranking over a random n-node list, gapped or not.
AnyProg lr(uint64_t n, bool gapping = true, SortKind kind = SortKind::kMsort,
           uint64_t seed = 0);
/// Connected components of a random graph: n vertices, n - 4 tree edges
/// over 4 groups plus `extra` random edges.
AnyProg cc(uint64_t n, uint64_t extra, SortKind kind = SortKind::kMsort,
           uint64_t seed = 0);
/// The false-sharing calibration microbench (alg/counters.h): k counters
/// `stride` words apart, `iters` increments each.  stride = 1 is the packed
/// adversary ro-doctor must diagnose and repair; stride = B is the padded
/// control.
AnyProg counters(uint32_t k, uint64_t iters, uint64_t stride);

}  // namespace wl

/// Which n a row accepts, on top of its [min_n, max_n] range.
enum class SizeRule : uint8_t {
  kAny,         // n is the element count
  kPow2,        // n is the element count, a power of two
  kSquarePow2,  // n = side², side a power of two (n is a power of 4)
};

/// Cap on n for the rows whose work grows faster than n log n (mm,
/// strassen): side 512.  Extrapolating recorded work (about 7·side³ for
/// mm, 25·side^2.81 for strassen, 4.2·n log n for sort at n = 2^16), both
/// stay near 1e9 words at the cap, below sort's ~2e9 at kMaxJobN; side
/// 1024 would exceed it about fourfold.
inline constexpr uint64_t kMaxMatMulN = uint64_t{1} << 18;

/// One named workload: its size rule and its builder.
struct WorkloadRow {
  const char* name;
  SizeRule rule;
  uint64_t min_n;  // >= 1
  uint64_t max_n;
  AnyProg (*build)(uint64_t n, uint64_t seed);
};

/// The registry, in documentation order.
const std::vector<WorkloadRow>& workload_rows();

/// Registry names (the rows' names), for CLIs and error messages.
const std::vector<std::string>& workload_names();

/// "" when `name` is a row that accepts `n`; otherwise the reason, naming
/// the workload and n.
std::string workload_error(const std::string& name, uint64_t n);

/// Builds the named workload as a type-erased program.  Returns an empty
/// AnyProg (operator bool false) when workload_error(name, n) is not ""
/// — the caller turns that into a JobResult error, not an abort.
AnyProg make_workload(const std::string& name, uint64_t n, uint64_t seed);

}  // namespace ro
