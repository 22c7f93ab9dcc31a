#include "ro/core/trace_ctx.h"

namespace ro {

TraceCtx::TraceCtx(Options opt)
    : opt_(opt),
      owned_(std::make_unique<VSpace>(opt.align_words,
                                      shard_base(opt.shard))),
      vs_(owned_.get()) {
  RO_CHECK_MSG(opt.shard < kMaxShards, "shard id out of range");
}

TraceCtx::TraceCtx(Options opt, VSpace& vs) : opt_(opt), vs_(&vs) {
  opt_.align_words = vs.alignment();
  opt_.shard = vs.shard();
}

uint32_t TraceCtx::new_act(uint32_t parent, uint32_t parent_seg, uint8_t slot,
                           uint16_t depth, uint64_t size) {
  RO_CHECK_MSG(size <= kMaxTaskSize, "declared task size exceeds 2^48 words");
  Activation a;
  a.parent = parent;
  a.parent_seg = parent_seg;
  a.child_slot = slot;
  a.depth = depth;
  a.size = size;
  g_.acts.push_back(a);
  stats_.max_depth = std::max<uint32_t>(stats_.max_depth, depth);
  return static_cast<uint32_t>(g_.acts.size() - 1);
}

void TraceCtx::begin_act(uint32_t id) {
  Builder b;
  b.act = id;
  b.acc_begin = acc_count();
  b.words_begin = words_;
  b.first_seg = segs_.size();
  stack_.push_back(b);
}

uint64_t TraceCtx::end_act() {
  const Builder b = stack_.back();
  stack_.pop_back();
  segs_.push_back(Segment{b.acc_begin, acc_count(), -1, -1});

  Activation& a = g_.acts[b.act];
  a.first_seg = static_cast<uint32_t>(g_.segments.size());
  a.num_segs = static_cast<uint32_t>(segs_.size() - b.first_seg);
  const uint32_t forks = a.num_segs - 1;
  const uint32_t pad =
      opt_.padded ? static_cast<uint32_t>(isqrt(a.size)) : 0;
  a.fork_slot_base = b.locals_words;
  a.frame_words = b.locals_words + 2 * std::max(1u, forks) + pad;
  g_.segments.insert(g_.segments.end(), segs_.begin() + b.first_seg,
                     segs_.end());
  segs_.resize(b.first_seg);
  if (forks == 0) ++stats_.leaves;
  return b.span + (words_ - b.words_begin);
}

}  // namespace ro
