// Connected components of a random graph with the resource-oblivious CC
// algorithm, validated against union-find, plus the Euler-tour toolkit on a
// random tree (parents + depths via weighted list ranking).  Both run
// through the Engine: record once, inspect real outputs, replay on the
// simulated machine.
//
//   $ ./graph_components [--n=400] [--extra=300] [--groups=5] [--p=8]
#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "ro/alg/cc.h"
#include "ro/alg/euler.h"
#include "ro/alg/graphgen.h"
#include "ro/engine/engine.h"
#include "ro/util/cli.h"
#include "ro/util/table.h"

using namespace ro;
using alg::i64;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const size_t n = static_cast<size_t>(cli.get_int("n", 400));
  const size_t extra = static_cast<size_t>(cli.get_int("extra", 300));
  const size_t groups = static_cast<size_t>(cli.get_int("groups", 5));
  const uint32_t p = static_cast<uint32_t>(cli.get_int("p", 8));

  // ---- connected components ----
  const auto e = alg::random_graph(n, extra, groups, 2026);
  const auto want = alg::cc_ref(n, e);
  const size_t m = e.u.size();

  Engine eng;
  std::vector<i64> labels;
  const TaskGraph rec = eng.record([&](auto& cx) {
    auto eu = cx.template alloc<i64>(m, "eu");
    auto ev = cx.template alloc<i64>(m, "ev");
    std::copy(e.u.begin(), e.u.end(), eu.raw());
    std::copy(e.v.begin(), e.v.end(), ev.raw());
    auto label = cx.template alloc<i64>(n, "label");
    cx.run(2 * (n + m), [&] {
      alg::connected_components(cx, n, eu.slice(), ev.slice(),
                                label.slice());
    });
    labels.assign(label.raw(), label.raw() + n);
  });

  size_t mismatches = 0;
  std::map<i64, size_t> sizes;
  for (size_t v = 0; v < n; ++v) {
    if (labels[v] != want[v]) ++mismatches;
    ++sizes[labels[v]];
  }
  RO_CHECK(mismatches == 0);
  std::printf("graph: n=%zu m=%zu -> %zu components (validated vs DSU)\n", n,
              m, sizes.size());
  Table t("largest components");
  t.header({"label", "vertices"});
  std::vector<std::pair<size_t, i64>> by_size;
  for (auto& [lab, sz] : sizes) by_size.push_back({sz, lab});
  std::sort(by_size.rbegin(), by_size.rend());
  for (size_t i = 0; i < std::min<size_t>(5, by_size.size()); ++i) {
    t.row({Table::num(by_size[i].second),
           Table::num(static_cast<uint64_t>(by_size[i].first))});
  }
  t.print();

  SimConfig cfg;
  cfg.p = p;
  cfg.M = 1 << 12;
  cfg.B = 32;
  const RunReport r = eng.replay(rec, Backend::kSimPws, cfg);
  std::printf("\nCC on p=%u simulated cores: speedup %.2fx, %llu block "
              "misses\n",
              p, r.sim_speedup(),
              static_cast<unsigned long long>(r.sim.block_misses()));

  // ---- Euler tour on a random tree ----
  {
    const size_t tn = n / 2 + 3;
    const auto tree = alg::random_tree(tn, 7);
    const auto ref = alg::tree_ref(tn, tree, 0);
    alg::EulerResult res;
    eng.record([&](auto& cx) {
      auto tu = cx.template alloc<i64>(tn - 1, "tu");
      auto tv = cx.template alloc<i64>(tn - 1, "tv");
      std::copy(tree.u.begin(), tree.u.end(), tu.raw());
      std::copy(tree.v.begin(), tree.v.end(), tv.raw());
      cx.run(4 * tn, [&] {
        res = alg::euler_tour(cx, tn, tu.slice(), tv.slice(), 0);
      });
    });
    i64 max_depth = 0;
    for (size_t v = 0; v < tn; ++v) {
      RO_CHECK(res.parent.raw()[v] == ref.parent[v]);
      RO_CHECK(res.depth.raw()[v] == ref.depth[v]);
      max_depth = std::max(max_depth, res.depth.raw()[v]);
    }
    std::printf("\nEuler tour on a %zu-vertex random tree: parents & depths "
                "validated (height %lld)\n",
                tn, static_cast<long long>(max_depth));
  }
  return 0;
}
