// E11 — §4.7 padded BP/HBP computations: padding each activation frame with
// a √|τ| array separates successive frames on the execution stacks, cutting
// the block-wait cost of steals from O(b(B + log p)) to O(b log p).
//
// We record the same computations plain and padded and compare stack-side
// coherence misses (the cost the padding targets), plus total makespan and
// the stack-space price paid.
#include "common.h"

using namespace ro;
using namespace ro::bench;

namespace {

uint64_t stack_block_misses(const Metrics& m) {
  uint64_t t = 0;
  for (const auto& c : m.core) t += c.miss[1][2];
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  Table t("E11: padded vs standard frames under PWS (M=8192)");
  t.header({"algorithm", "p", "B", "stack-blkmiss plain", "padded",
            "stack words plain", "padded", "makespan plain", "padded"});

  auto emit = [&](const char* name, const TaskGraph& plain,
                  const TaskGraph& padded) {
    for (uint32_t p : {8u, 16u}) {
      for (uint32_t B : {32u, 128u}) {
        const SimConfig c = cfg(p, 1 << 13, B);
        const Metrics mp = measure(plain, Backend::kSimPws, c, false).sim;
        const Metrics mq = measure(padded, Backend::kSimPws, c, false).sim;
        t.row({name, Table::num(p), Table::num(B),
               Table::num(stack_block_misses(mp)),
               Table::num(stack_block_misses(mq)),
               Table::num(mp.stack_words), Table::num(mq.stack_words),
               Table::num(mp.makespan), Table::num(mq.makespan)});
      }
    }
  };

  emit("M-Sum 32K", record(wl::msum(size_t{1} << 15)),
       record(wl::msum(size_t{1} << 15), true));
  emit("PS 16K", record(wl::ps(size_t{1} << 14)),
       record(wl::ps(size_t{1} << 14), true));
  t.print();
  if (cli.has("csv")) t.write_csv("padding.csv");
  std::printf(
      "\nShape check: padded stack block misses <= plain, at the price of\n"
      "larger stack space; data-side costs are unchanged (§4.7).\n");
  return 0;
}
