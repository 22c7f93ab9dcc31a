#include "ro/engine/workloads.h"

#include <algorithm>

#include "ro/alg/cc.h"
#include "ro/alg/counters.h"
#include "ro/alg/fft.h"
#include "ro/alg/graphgen.h"
#include "ro/alg/listrank.h"
#include "ro/alg/mm.h"
#include "ro/alg/mt.h"
#include "ro/alg/rm_bi.h"
#include "ro/alg/scan.h"
#include "ro/alg/spms.h"
#include "ro/alg/strassen.h"
#include "ro/engine/fields.h"
#include "ro/util/bits.h"
#include "ro/util/rng.h"

namespace ro {

using alg::cplx;
using alg::i64;
using alg::SortKind;

namespace wl {

namespace {

/// n random i64 below 100 (the scans' inputs).
template <class Ctx>
auto small_values(Ctx& cx, uint64_t n, uint64_t rng_seed) {
  auto a = cx.template alloc<i64>(n, "a");
  Rng rng(rng_seed);
  for (uint64_t i = 0; i < n; ++i)
    a.raw()[i] = static_cast<i64>(rng.next_below(100));
  return a;
}

/// A side×side in -> out program running `f(cx, in, out, side)`.
template <class F>
AnyProg square_pass(uint32_t side, const char* in_name, const char* out_name,
                    F f) {
  return [=](auto& cx) {
    const uint64_t m = uint64_t{side} * side;
    auto in = cx.template alloc<i64>(m, in_name);
    auto out = cx.template alloc<i64>(m, out_name);
    cx.run(2 * m, [&] { f(cx, in.slice(), out.slice(), side); });
  };
}

/// A c = a·b program over side×side BI matrices running `f`.
template <class F>
AnyProg square_product(uint32_t side, F f) {
  return [=](auto& cx) {
    const uint64_t m = uint64_t{side} * side;
    auto a = cx.template alloc<i64>(m, "a");
    auto b = cx.template alloc<i64>(m, "b");
    auto c = cx.template alloc<i64>(m, "c");
    cx.run(3 * m, [&] { f(cx, a.slice(), b.slice(), c.slice(), side); });
  };
}

}  // namespace

AnyProg msum(uint64_t n, uint64_t seed, size_t grain) {
  return [=](auto& cx) {
    auto a = small_values(cx, n, n + seed);
    auto out = cx.template alloc<i64>(1, "out");
    cx.run(n, [&] { alg::msum(cx, a.slice(), out.slice(), grain); });
  };
}

AnyProg ps(uint64_t n, uint64_t seed) {
  return [=](auto& cx) {
    auto a = small_values(cx, n, n + 1 + seed);
    auto out = cx.template alloc<i64>(n, "out");
    cx.run(2 * n, [&] { alg::prefix_sums(cx, a.slice(), out.slice()); });
  };
}

AnyProg ma(uint64_t n) {
  return [=](auto& cx) {
    auto a = cx.template alloc<i64>(n, "a");
    auto b = cx.template alloc<i64>(n, "b");
    auto out = cx.template alloc<i64>(n, "out");
    cx.run(3 * n,
           [&] { alg::matrix_add(cx, a.slice(), b.slice(), out.slice()); });
  };
}

AnyProg mt(uint32_t side) {
  return square_pass(side, "in", "out", [](auto& cx, auto in, auto out,
                                           uint32_t s) {
    alg::mt_bi(cx, in, out, s);
  });
}

AnyProg rm2bi(uint32_t side) {
  return square_pass(side, "rm", "bi", [](auto& cx, auto in, auto out,
                                          uint32_t s) {
    alg::rm_to_bi(cx, in, out, s);
  });
}

AnyProg bi2rm_direct(uint32_t side) {
  return square_pass(side, "bi", "rm", [](auto& cx, auto in, auto out,
                                          uint32_t s) {
    alg::bi_to_rm_direct(cx, in, out, s);
  });
}

AnyProg bi2rm_gap(uint32_t side) {
  return square_pass(side, "bi", "rm", [](auto& cx, auto in, auto out,
                                          uint32_t s) {
    alg::bi_to_rm_gap(cx, in, out, s);
  });
}

AnyProg bi2rm_fft(uint32_t side) {
  return square_pass(side, "bi", "rm", [](auto& cx, auto in, auto out,
                                          uint32_t s) {
    alg::bi_to_rm_fft(cx, in, out, s);
  });
}

AnyProg strassen(uint32_t side, size_t grain) {
  return square_product(side, [grain](auto& cx, auto a, auto b, auto c,
                                      uint32_t s) {
    alg::strassen_bi(cx, a, b, c, s, 2, grain);
  });
}

AnyProg mm(uint32_t side) {
  return square_product(side, [](auto& cx, auto a, auto b, auto c,
                                 uint32_t s) {
    alg::depth_n_mm(cx, a, b, c, s, 2);
  });
}

AnyProg fft(uint64_t n, uint64_t seed) {
  return [=](auto& cx) {
    auto x = cx.template alloc<cplx>(n, "x");
    Rng rng(n + 3 + seed);
    for (uint64_t i = 0; i < n; ++i)
      x.raw()[i] = cplx(rng.next_double(), rng.next_double());
    auto y = cx.template alloc<cplx>(n, "y");
    cx.run(4 * n, [&] { alg::fft(cx, x.slice(), y.slice(), {}); });
  };
}

AnyProg sort(uint64_t n, SortKind kind, uint64_t seed, size_t grain) {
  return [=](auto& cx) {
    auto a = cx.template alloc<i64>(n, "a");
    Rng rng(n + 4 + seed);
    for (uint64_t i = 0; i < n; ++i)
      a.raw()[i] = static_cast<i64>(rng.next() >> 1);
    auto out = cx.template alloc<i64>(n, "out");
    cx.run(2 * n,
           [&] { alg::sort_by(cx, kind, a.slice(), out.slice(), 8, grain); });
  };
}

AnyProg lr(uint64_t n, bool gapping, SortKind kind, uint64_t seed) {
  const auto succ = alg::random_list(n, n * 7 + 3 + seed);
  return [=](auto& cx) {
    auto s = cx.template alloc<i64>(n, "succ");
    std::copy(succ.begin(), succ.end(), s.raw());
    auto r = cx.template alloc<i64>(n, "rank");
    alg::ListRankOptions opt;
    opt.gapping = gapping;
    opt.sort = kind;
    cx.run(2 * n, [&] { alg::list_rank(cx, s.slice(), r.slice(), opt); });
  };
}

AnyProg cc(uint64_t n, uint64_t extra, SortKind kind, uint64_t seed) {
  const auto e = alg::random_graph(n, extra, 4, n * 13 + 7 + seed);
  return [=](auto& cx) {
    const size_t m = e.u.size();
    auto eu = cx.template alloc<i64>(std::max<size_t>(1, m), "eu");
    auto ev = cx.template alloc<i64>(std::max<size_t>(1, m), "ev");
    std::copy(e.u.begin(), e.u.end(), eu.raw());
    std::copy(e.v.begin(), e.v.end(), ev.raw());
    auto label = cx.template alloc<i64>(n, "label");
    alg::CcOptions opt;
    opt.sort = kind;
    cx.run(2 * (n + m), [&] {
      alg::connected_components(cx, n, eu.slice().first(m),
                                ev.slice().first(m), label.slice(), opt);
    });
  };
}

AnyProg counters(uint32_t k, uint64_t iters, uint64_t stride) {
  return [=](auto& cx) {
    auto slots =
        cx.template alloc<i64>(alg::counter_words(k, stride), "counters");
    for (uint32_t c = 0; c < k; ++c) slots.raw()[c * stride] = 0;
    cx.run(uint64_t{k} * 2 * iters, [&] {
      alg::counter_stripes(cx, slots.slice(), k, iters, stride);
    });
  };
}

}  // namespace wl

namespace {

// Row adapters: a row builds from (n, seed); n is the matrix area on the
// square rows.

template <AnyProg (*Build)(uint32_t)>
AnyProg square_row(uint64_t n, uint64_t) {
  return Build(static_cast<uint32_t>(isqrt(n)));
}

AnyProg strassen_row(uint64_t n, uint64_t) {
  return wl::strassen(static_cast<uint32_t>(isqrt(n)));
}

AnyProg msum_row(uint64_t n, uint64_t seed) { return wl::msum(n, seed); }
AnyProg ma_row(uint64_t n, uint64_t) { return wl::ma(n); }
AnyProg cc_row(uint64_t n, uint64_t seed) {
  return wl::cc(n, n, SortKind::kMsort, seed);
}

template <SortKind Kind>
AnyProg sort_row(uint64_t n, uint64_t seed) {
  return wl::sort(n, Kind, seed);
}

template <bool Gapping>
AnyProg lr_row(uint64_t n, uint64_t seed) {
  return wl::lr(n, Gapping, SortKind::kMsort, seed);
}

/// n counters, 16 increments each, `Stride` words apart.
template <uint64_t Stride>
AnyProg counters_row(uint64_t n, uint64_t) {
  return wl::counters(static_cast<uint32_t>(n), 16, Stride);
}

constexpr SizeRule kAny = SizeRule::kAny;
constexpr SizeRule kSquare = SizeRule::kSquarePow2;

}  // namespace

const std::vector<WorkloadRow>& workload_rows() {
  static const std::vector<WorkloadRow> rows = {
      {"msum", kAny, 1, kMaxJobN, msum_row},
      {"ps", kAny, 1, kMaxJobN, wl::ps},
      {"ma", kAny, 1, kMaxJobN, ma_row},
      {"mt", kSquare, 1, kMaxJobN, square_row<wl::mt>},
      {"rm2bi", kSquare, 1, kMaxJobN, square_row<wl::rm2bi>},
      {"bi2rm-direct", kSquare, 1, kMaxJobN, square_row<wl::bi2rm_direct>},
      {"bi2rm-gap", kSquare, 1, kMaxJobN, square_row<wl::bi2rm_gap>},
      {"bi2rm-fft", kSquare, 1, kMaxJobN, square_row<wl::bi2rm_fft>},
      {"strassen", kSquare, 1, kMaxMatMulN, strassen_row},
      {"mm", kSquare, 1, kMaxMatMulN, square_row<wl::mm>},
      {"fft", SizeRule::kPow2, 1, kMaxJobN, wl::fft},
      {"sort", kAny, 1, kMaxJobN, sort_row<SortKind::kMsort>},
      {"sort-spms", kAny, 1, kMaxJobN, sort_row<SortKind::kSpms>},
      {"lr", kAny, 1, kMaxJobN, lr_row<true>},
      {"lr-nogap", kAny, 1, kMaxJobN, lr_row<false>},
      // random_graph spreads the vertices over 4 groups: n >= 4.
      {"cc", kAny, 4, kMaxJobN, cc_row},
      {"counters-packed", kAny, 1, kMaxJobN, counters_row<1>},
      {"counters-padded", kAny, 1, kMaxJobN, counters_row<64>},
  };
  return rows;
}

namespace {

const WorkloadRow* find_row(const std::string& name) {
  for (const WorkloadRow& r : workload_rows())
    if (name == r.name) return &r;
  return nullptr;
}

bool follows(SizeRule rule, uint64_t n) {
  if (rule == SizeRule::kAny) return true;
  return is_pow2(n) && (rule == SizeRule::kPow2 || log2_floor(n) % 2 == 0);
}

const char* rule_text(SizeRule rule) {
  if (rule == SizeRule::kPow2) return "a power of two ";
  if (rule == SizeRule::kSquarePow2)
    return "a power of four (side², side a power of two) ";
  return "";
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const WorkloadRow& r : workload_rows()) out.emplace_back(r.name);
    return out;
  }();
  return names;
}

std::string workload_error(const std::string& name, uint64_t n) {
  const WorkloadRow* r = find_row(name);
  if (r == nullptr) return "unknown workload \"" + name + "\"";
  if (n >= r->min_n && n <= r->max_n && follows(r->rule, n)) return "";
  return "\"n\" must be " + std::string(rule_text(r->rule)) + "in [" +
         std::to_string(r->min_n) + ", " + std::to_string(r->max_n) +
         "] for workload \"" + name + "\"; got " + std::to_string(n);
}

AnyProg make_workload(const std::string& name, uint64_t n, uint64_t seed) {
  if (!workload_error(name, n).empty()) return AnyProg{};
  return find_row(name)->build(n, seed);
}

}  // namespace ro
