// The recorded computation: a fork-join activation graph with per-segment
// memory-access traces.
//
// An *activation* is one task τ of the multithreaded computation (Def 3.2 /
// 3.4).  Its execution is split into *segments* at fork points:
//
//   seg0 | fork(c0,c1) | seg1 | fork(c2,c3) | ... | segK (terminal)
//
// Work stealing operates on this structure exactly as in the paper: at a
// fork, the right child is pushed on the executing core's task queue (bottom)
// and the core descends into the left child; the last child to finish
// continues the next segment (the up-pass / usurpation rule, Def 4.1).
//
// Priorities: `depth` counts fork edges from the root.  In a balanced HBP
// computation all tasks at one depth have the same size up to constants
// (§4.1), so depth is a valid PWS priority (smaller depth = higher priority).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "ro/core/access.h"
#include "ro/core/trace_store.h"
#include "ro/mem/varray.h"
#include "ro/mem/vspace.h"

namespace ro {

/// A run of accesses optionally terminated by a binary fork.
struct Segment {
  uint64_t acc_begin = 0;  // [acc_begin, acc_end) into TaskGraph::accesses
  uint64_t acc_end = 0;
  int32_t left = -1;   // forked children (activation ids); -1 = terminal
  int32_t right = -1;
  bool has_fork() const { return left >= 0; }
  friend bool operator==(const Segment&, const Segment&) = default;
};

/// One task.  Segments are contiguous in TaskGraph::segments
/// [first_seg, first_seg + num_segs).
struct Activation {
  uint64_t size : 48 = 0;    // declared task size |τ| in words (Def: data accessed)
  uint64_t depth : 16 = 0;   // fork distance from root == PWS priority level
  uint32_t parent = kNoAct;
  uint32_t parent_seg : 31 = 0;  // local segment index in parent that forked us
  uint32_t child_slot : 1 = 0;   // 0 = left, 1 = right child of that fork
  uint32_t first_seg = 0;
  uint32_t num_segs = 0;
  uint32_t frame_words = 0;     // locals (+padding) + fork slots
  uint32_t fork_slot_base = 0;  // offset of fork bookkeeping slots in frame
  friend bool operator==(const Activation&, const Activation&) = default;
};
// One record per task, and BP/HBP leaves do O(1) work: the table is a
// large share of a recording's bytes, so a regrown field must be a choice.
static_assert(sizeof(Activation) == 32);

/// Largest declared task size an Activation holds (48 bits of words).
inline constexpr uint64_t kMaxTaskSize = (uint64_t{1} << 48) - 1;

/// One shard's slice of a (possibly merged) recording: an independent
/// fork-join component rooted at `root` whose global addresses live in
/// [base, base + 2^40).  Components share no addresses and no activations,
/// so each replays on its own simulated machine with exact per-shard block
/// accounting — the unit of parallel replay (sched/replay.h).
struct ShardSpan {
  uint32_t shard = 0;     // shard id (== shard_of(base))
  uint32_t root = 0;      // root activation of this component
  vaddr_t base = 0;       // first address of the shard's range
  vaddr_t data_top = 0;   // first address beyond the shard's recorded data
  // Dense index ranges of the component in the merged tables (merge_shards
  // keeps each input contiguous), so a shard replayer sizes its state by
  // its own component, not the whole batch.
  uint32_t first_act = 0;
  uint32_t num_acts = 0;
  uint32_t first_seg = 0;
  uint32_t num_segs = 0;
  friend bool operator==(const ShardSpan&, const ShardSpan&) = default;
};

/// Summary statistics of a graph: computed by TraceCtx as each
/// activation closes (TaskGraph::recorded_stats), or from a finished
/// graph by analyze().
struct GraphStats {
  uint64_t work = 0;          // total access words + O(1) per fork/join
  uint64_t span = 0;          // critical path with the same costs
  uint32_t max_depth = 0;     // deepest activation
  uint64_t activations = 0;
  uint64_t accesses = 0;
  uint64_t leaves = 0;
  friend bool operator==(const GraphStats&, const GraphStats&) = default;
};

/// One shard's slice of a *streamed* access stream: the chunked TraceStore
/// holding the shard's records, placed at [acc_base, acc_base + acc_count)
/// of the graph's global access index space.  Record `i - acc_base` of the
/// store is global access `i`; activation ids inside streamed records stay
/// part-local (the store is immutable and shared), so readers add the
/// owning span's `first_act` when translating them (PartCursor below).
struct StreamPart {
  std::shared_ptr<TraceStore> store;
  uint64_t acc_base = 0;
  uint64_t acc_count = 0;
};

class AccessReader;  // declared below (needs TaskGraph)

/// The full recorded computation.
class TaskGraph {
 public:
  std::vector<Activation> acts;
  std::vector<Segment> segments;
  std::vector<Access> accesses;
  // Streamed access storage (trace_store.h): when non-empty, `accesses`
  // is empty and the stream lives in bounded-memory chunked stores, one
  // part per shard component (same order as `shards`).
  std::vector<StreamPart> streams;
  uint32_t root = 0;
  vaddr_t data_base = 0;     // first vaddr of recorded global data (shard base)
  vaddr_t data_top = 0;      // first vaddr beyond recorded global data
  uint64_t align_words = 0;  // allocation alignment used while recording
  // Shard components of a merged batch recording (merge_shards); empty for
  // a classic single-shard graph, whose one implicit span is
  // {shard_of(data_base), root, data_base, data_top}.
  std::vector<ShardSpan> shards;
  // Stats the recorder computed while recording (TraceCtx); empty for a
  // graph built by hand or fused by merge_shards.
  std::optional<GraphStats> recorded_stats;

  /// Per-access/fork/join cost constants used for work & span accounting.
  static constexpr uint64_t kForkCost = 2;  // two frame-slot writes
  static constexpr uint64_t kJoinCost = 3;  // child result write + 2 reads

  /// Recomputes the stats from the finished graph, reading the whole
  /// access stream.  Kept as the oracle of the recorder's stats.
  GraphStats analyze() const;

  /// recorded_stats when the graph has them, else analyze().
  GraphStats stats() const {
    return recorded_stats ? *recorded_stats : analyze();
  }

  /// True when the access stream lives in chunked TraceStores instead of
  /// the resident `accesses` vector.
  bool streaming() const { return !streams.empty(); }

  /// Total access records, resident or streamed.
  uint64_t acc_count() const {
    if (streams.empty()) return accesses.size();
    return streams.back().acc_base + streams.back().acc_count;
  }

  /// The shard components of this graph, in shard order (always >= 1).
  std::vector<ShardSpan> shard_spans() const;

  /// Global segment index of activation a's s-th local segment.
  uint32_t seg_index(uint32_t a, uint32_t local) const {
    return acts[a].first_seg + local;
  }

  /// Sum of access words in segment (compute cost of the segment body).
  /// The one-argument form spins up a throwaway reader; per-segment
  /// callers should hoist one AccessReader and use the two-argument
  /// overload so streamed graphs pay one store fault per trace segment,
  /// not one per task segment.
  uint64_t seg_cost(const Segment& s) const;
  uint64_t seg_cost(const Segment& s, AccessReader& rd) const;
};

/// Reader of one part of a graph's access stream, by global access index,
/// with one pinned trace segment of cache.  Part k of a streamed graph is
/// its StreamPart: the store's records at [acc_base, acc_base + acc_count),
/// whose part-local activation ids get the span's first_act added back.
/// A resident graph is one part: `accesses` with acc_base = 0 and
/// act_off = 0 (merge_shards already rewrote its ids).  Each replay core
/// owns one cursor per span, so cursors are cheap to copy.
class PartCursor {
 public:
  PartCursor() = default;

  bool contains(uint64_t i) const { return i - acc_base_ < acc_count_; }

  Access at(uint64_t i) {
    Access a = cur_.at(i - acc_base_);
    if (a.act != kNoAct) a.act += act_off_;
    return a;
  }

 private:
  friend PartCursor source_of(const TaskGraph& g, size_t k);

  TraceStore::Cursor cur_;
  uint64_t acc_base_ = 0;
  uint64_t acc_count_ = 0;
  uint32_t act_off_ = 0;
};

/// The cursor over part k of g's access stream: span k's StreamPart when
/// the graph is streamed, the resident `accesses` for every k otherwise.
PartCursor source_of(const TaskGraph& g, size_t k);

/// Uniform reader over a graph's whole access stream: a PartCursor that
/// moves to whichever part holds the index it is asked for, so resident
/// and streamed reads are indistinguishable to callers.  Not thread-safe;
/// create one per thread.
class AccessReader {
 public:
  explicit AccessReader(const TaskGraph& g) : g_(&g) {}

  Access at(uint64_t i) {
    if (!cur_.contains(i)) seek(i);
    return cur_.at(i);
  }

 private:
  void seek(uint64_t i);

  const TaskGraph* g_;
  PartCursor cur_;
};

/// Fuses independent single-shard recordings into one batch TaskGraph.
/// Activation / segment / access indices are remapped into the shared
/// tables; addresses are left untouched (they are already disjoint by the
/// shard-id bit split).  Each input must occupy a distinct shard; the
/// result's `shards` vector lists the components in input order and its
/// `root` is the first component's root.  The merged graph replays through
/// ro::simulate exactly as the parts do individually (see
/// sched/replay.h's determinism guarantee).
TaskGraph merge_shards(std::vector<TaskGraph> parts);

}  // namespace ro
