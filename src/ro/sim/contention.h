// Per-cache-line attribution of coherence events — the raw material the
// doctor subsystem turns into a contention graph and a repair plan.
//
// The Directory counts block transfers in aggregate (Def 2.2); a
// ContentionProfile, when attached to a replay via SimConfig::profile,
// additionally records *which words of which lines* the coherence traffic
// flowed between, and on behalf of which activations.  Three event kinds
// are recorded, all on data addresses only (stack frames are already
// padded per arena by Lemma 3.1, so their sharing is intentional):
//
//   * invalidation:   a write by one core knocks the line out of another
//                     holder's cache.  The writer's word and the victim's
//                     last-touched word of that line are compared — a
//                     *different* word is a false-sharing event (an edge
//                     writer-word -> victim-word in the line's contention
//                     graph), the *same* word is true sharing (a repair
//                     cannot remove it).
//   * coherence miss: the victim later refetches the line (MissClass::
//                     kCoherence), attributed to the word it came back for.
//   * transfer:       a cache-to-cache block move (the quantity the
//                     Directory already counts, here kept per line).
//
// Lines are keyed by the *recorded* (global, shard-tagged) address of
// their first word, so profiles of different shards merge without
// collision and a repair rule can quote the key directly as its source
// range.  All containers are ordered maps: iteration order — and hence
// JSON output and merge results — is deterministic.
//
// Profiles are sparse: a line appears only if it participated in at least
// one coherence event, so a well-laid-out program produces an empty
// profile at zero per-access cost beyond a null-pointer test.
#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include "ro/mem/varray.h"  // kNoAct
#include "ro/mem/vspace.h"

namespace ro {

/// Victim-side attribution record: the last (word, task) a core touched in
/// a data block it holds.  The replayer keeps one per (core, block) — in a
/// flat open-addressed table (sim/flat_index.h), updated on every profiled
/// touch — and reads it back when a write by another core invalidates the
/// line: a *different* word than the writer's makes the event false
/// sharing, the same word is true sharing.  Profiling-only state: it never
/// influences Metrics, only what record_invalidation is told.
struct LastTouch {
  uint16_t word = 0;
  uint32_t act = kNoAct;
};

class ContentionProfile {
 public:
  /// Per-(line, word) statistics; `tasks` adds the activation dimension —
  /// events per recorded task touching this word (the (line, word, task)
  /// triple of the contention model).
  struct WordStats {
    uint64_t invalidations_caused = 0;    // writes here that invalidated
    uint64_t invalidations_suffered = 0;  // held line lost while last here
    uint64_t coherence_misses = 0;        // refetches attributed here
    std::map<uint32_t, uint64_t> tasks;   // activation id -> events
    friend bool operator==(const WordStats&, const WordStats&) = default;
  };

  /// One cache line's contention graph: vertices are word offsets within
  /// the line, edges (writer word -> victim word) weighted by
  /// false-sharing invalidations between them.
  struct Line {
    std::map<uint16_t, WordStats> words;
    std::map<std::pair<uint16_t, uint16_t>, uint64_t> edges;
    uint64_t false_events = 0;  // invalidations at distinct words
    uint64_t true_events = 0;   // invalidations at the same word
    uint64_t transfers = 0;     // cache-to-cache moves of this line
    friend bool operator==(const Line&, const Line&) = default;
  };

  /// A write at (line, wword) by activation `wact` invalidated a holder
  /// whose last touch of the line was (vword, vact).
  void record_invalidation(vaddr_t line, uint16_t wword, uint32_t wact,
                           uint16_t vword, uint32_t vact);

  /// A coherence (kCoherence) miss refetching `line` for `word`.
  void record_coherence_miss(vaddr_t line, uint16_t word, uint32_t act);

  /// A cache-to-cache transfer of `line`, fetched for `word`.
  void record_transfer(vaddr_t line, uint16_t word);

  /// Accumulates another profile (e.g. a shard's).  Order-insensitive:
  /// every counter sums, so merging per-shard profiles in any order yields
  /// the same result.
  void merge(const ContentionProfile& o);

  const std::map<vaddr_t, Line>& lines() const { return lines_; }
  bool empty() const { return lines_.empty(); }

  uint64_t false_events() const;
  uint64_t true_events() const;
  uint64_t total_transfers() const;
  /// Lines with at least `min_false` false-sharing events.
  uint64_t hot_lines(uint64_t min_false = 1) const;

  friend bool operator==(const ContentionProfile&,
                         const ContentionProfile&) = default;

 private:
  std::map<vaddr_t, Line> lines_;
};

}  // namespace ro
