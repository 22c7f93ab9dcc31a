// ShardCtx — records one workload instance into its own address shard.
//
// The small CtxBase subclass the ROADMAP predicted: all recording machinery
// (access logging, fork segmentation, frame-offset reservation) is inherited
// from TraceCtx; ShardCtx only pins the context to one shard of the virtual
// address space, so N instances recorded through N ShardCtxs — sequentially
// or on concurrent threads — produce traces whose global addresses can never
// alias (vspace.h bit split).  The per-shard graphs then fuse via
// merge_shards() and replay in parallel (sched/replay.h).  Batch jobs
// (JobKind::kBatch) record shard i through a TraceCtx with Options::shard
// = i, which lays out addresses exactly like ShardCtx(i).
//
// Two flavours:
//   * ShardCtx(ssp, s)  — allocates in shard `s` of a shared ShardedVSpace
//                         (one registry for all instances);
//   * ShardCtx(s)       — owns a private space based at shard_base(s)
//                         (standalone recording of one tenant).
#pragma once

#include "ro/core/trace_ctx.h"
#include "ro/mem/vspace.h"

namespace ro {

class ShardCtx : public TraceCtx {
 public:
  /// Records into shard `s` of a shared sharded space.  Concurrent ShardCtx
  /// recorders are safe as long as each uses a distinct shard.
  ShardCtx(ShardedVSpace& ssp, uint32_t s, Options opt = {})
      : TraceCtx(std::move(opt), ssp.shard(s)) {}

  /// Standalone: owns a private space covering shard `s`.
  explicit ShardCtx(uint32_t s, Options opt = {})
      : TraceCtx(with_shard(std::move(opt), s)) {}

 private:
  static Options with_shard(Options opt, uint32_t s) {
    opt.shard = s;
    return opt;
  }
};

static_assert(Context<ShardCtx>);

}  // namespace ro
