// Scheduler replay engine.
//
// Replays a recorded TaskGraph on a simulated machine with p cores, private
// LRU caches of M words, blocks of B words, write-invalidate coherence and a
// configurable miss latency b — the machine of §1/§2.  Three schedulers:
//
//   kSeq — one core, depth-first.  Its cold+capacity misses are the
//          sequential cache complexity Q(n, M, B).
//   kPws — Priority Work Stealing (§4): an idle core steals the stealable
//          task of globally highest priority (smallest fork depth; ties by
//          victim id).  This is the executable rendering of the paper's
//          priority rounds; the distributed O(log p)-per-round machinery of
//          §4.7 is charged through `steal_latency`.
//   kRws — randomized work stealing baseline: uniformly random victim,
//          steal the top of its deque (the setting of [18, 6] and the
//          companion paper [13]).
//
// Work-stealing semantics follow §2 exactly: forked right children go to the
// bottom of the owner's deque, owners resume their own bottom entry first,
// thieves take from the top, and the last child to finish a join continues
// the parent (usurpation, Def 4.1).  Fork/join bookkeeping traffic (two
// frame-slot writes at a fork, a result write into the parent frame at child
// completion, two reads at the join) is injected here because its addresses
// depend on which arena the activation's frame landed on.
//
// ## Host parallelism
//
// The simulator is single-threaded: simulate() walks each shard of `g` on
// its own simulated machine (own cores, caches, Directory, arenas), one
// after the other in shard order, and merges the parts with
// merge_shard_metrics.  Within a machine the walk is inherently
// sequential: every access consults the coherence directory, and any
// finer-grained interleaving would change miss classification and
// transfer counts — exactly the false-sharing effects the simulator exists
// to count.  The unit of host parallelism is therefore an independent
// walk, and the Engine owns it: a run job's main walk and its p = 1
// baseline, and each shard chain of a batch, run side by side on its host
// pool (SimConfig::replay_threads).  Walks share no state, so every
// replay_threads value yields bit-identical Metrics.
//
// ## Batch schedule
//
// The replayer never needs the whole trace resident: its stream cursors
// fault one TraceStore segment at a time.  It does need the whole trace
// *recorded*: start_act charges the activation's frame_words, which the
// recorder only knows at the activation's end, and a store is read only
// after its recorder seals it (trace_store.h).  So the Engine overlaps at
// shard grain: each shard of a batch is one record -> replay chain on a
// host pool, and shard i replays while shard j still records.  Metrics
// are unaffected: every walk consumes the same sealed records.
#pragma once

#include <cstdint>
#include <vector>

#include "ro/core/graph.h"
#include "ro/sim/metrics.h"

namespace ro {

class AddressRemap;       // core/remap.h
class ContentionProfile;  // sim/contention.h

enum class SchedKind : uint8_t { kSeq, kPws, kRws };

struct SimConfig {
  uint32_t p = 4;              // cores, <= 64
  uint64_t M = 1 << 14;        // private cache size, words
  uint32_t B = 64;             // block size, words
  uint32_t miss_latency = 32;  // b, cycles per L2/memory miss
  // s_P / s_C: cycles per steal (attempt).  0 = auto: b * (1 + ceil(log2 p)),
  // the padded-HBP distributed-PWS cost of §4.7.
  uint32_t steal_latency = 0;
  bool inject_frame_traffic = true;  // fork/join stack bookkeeping
  uint64_t seed = 0x5EED;            // RWS victim RNG

  // §5.2 cache hierarchy: when M2 > 0, each core also owns a 1/p partition
  // of a shared level-2 cache of M2 words (the paper's "simple but
  // non-optimal" partitioned use of a shared cache).  An L1 miss that hits
  // the L2 partition costs l2_latency instead of miss_latency.
  uint64_t M2 = 0;
  uint32_t l2_latency = 8;

  // §5.1 2-core block sharing mitigation: after a write, the writer holds
  // the block for `write_hold` cycles; another core fetching it waits until
  // the hold expires, letting the writer finish its run of writes instead
  // of ping-ponging per word.  0 = plain invalidation protocol.
  uint32_t write_hold = 0;

  // Host threads the Engine runs independent walks on (see header
  // comment); simulate() itself ignores it.  1 = one walk after the other
  // (default), 0 = hardware concurrency.  A host knob, not a machine
  // parameter: it never appears in Metrics, and every value produces
  // bit-identical results.
  uint32_t replay_threads = 1;

  // Optional per-line coherence attribution (sim/contention.h): when
  // non-null, replay additionally records every invalidation, coherence
  // miss and block transfer on *data* addresses per (line, word, task)
  // into this profile (accumulated, never cleared).  Every counter is a
  // sum, so the profile of a merged graph equals the merge of its shards'
  // profiles.  The walk writes it unguarded: no two concurrent walks may
  // share one.  A host-side observer: it never changes Metrics.
  ContentionProfile* profile = nullptr;

  // Optional trace transformation (core/remap.h): when non-null, every
  // recorded data address is remapped at cursor read time, before the
  // shard rebase — a repaired layout replays straight off the original
  // stored segments.  Frame/stack addresses are unaffected.  Deliberately
  // *does* change Metrics (that is the point of a repair), but
  // deterministically: same remap, same Metrics, any replay_threads.
  const AddressRemap* remap = nullptr;

  uint32_t effective_steal_latency() const;
};

/// Replays `g` under the given scheduler on the calling thread;
/// deterministic for kSeq/kPws and for kRws at fixed seed.  A merged batch
/// graph walks each shard on its own machine, in shard order, and returns
/// the merge of the parts (merge_shard_metrics).
Metrics simulate(const TaskGraph& g, SchedKind kind, const SimConfig& cfg);

/// Per-tenant share of a capacity-shared replay (simulate_shared): every
/// counter is attributed to the shard span whose task performed the event,
/// so sums over tenants equal the machine-wide Metrics totals.
struct TenantShare {
  uint64_t compute = 0;       // words touched by this tenant's tasks
  uint64_t cache_misses = 0;  // cold + capacity misses (data + stack)
  uint64_t block_misses = 0;  // coherence misses
  uint64_t transfers = 0;     // cache-to-cache transfers this tenant caused
  friend bool operator==(const TenantShare&, const TenantShare&) = default;
};

/// Capacity-shared replay: all shard components of `g` run on ONE simulated
/// machine — shared cores, one set of private caches, one coherence
/// directory — instead of a machine per shard.  Tenants (= shard spans)
/// contend for cache capacity and steal across each other's task trees;
/// per-span offsets keep their address ranges disjoint, so all contention
/// is capacity and scheduling, never aliasing.  Span 0's root starts on
/// core 0; the other roots are seeded round-robin onto core deques before
/// the walk, stealable like any fork.  Deterministic for every SchedKind at
/// fixed seed.  When `shares` is non-null it is resized to the span count
/// and filled with per-tenant attribution.  A single-span graph
/// degenerates to exactly simulate()'s machine and Metrics.
Metrics simulate_shared(const TaskGraph& g, SchedKind kind,
                        const SimConfig& cfg,
                        std::vector<TenantShare>* shares = nullptr);

const char* sched_name(SchedKind k);

}  // namespace ro
