// Chunked segment store for the recorded access stream.
//
// The paper's PWS/RWS analyses are defined over *access streams*, not
// resident graphs, and a production-scale trace does not fit in memory.
// TraceStore therefore holds the access records of one recording (one
// shard) as a chain of fixed-capacity *trace segments*: the recorder
// appends records to the open segment, a full segment is sealed, and
// sealed segments beyond a bounded resident window are spilled to an
// anonymous file in `spill_dir`.  Replay reads the stream back through
// Cursor objects that pin one segment at a time, reloading spilled
// segments on demand (LRU window, same bound).
//
// Segment k covers record indices [k*C, (k+1)*C) for capacity C
// (`Options::segment_tasks`, counted in task access records), so index
// lookup is O(1).  Spilled segments are delta/varint compressed
// (trace_codec.h), so their on-disk extent is variable: each sealed
// segment carries its own file offset and byte length, allocated
// append-only.  A task segment whose access run straddles a seal simply
// spans two trace segments — cursors cross the boundary transparently,
// which is what keeps the streaming replay bit-identical to the
// in-memory walk (docs/streaming.md).
//
// Lifecycle: record, seal(), then read.  A single recorder thread
// append()s and seal()s.  Spilling is synchronous — a seal that pushes
// the window past its bound compresses and writes the oldest resident
// segment on the recorder's thread — so the store's byte counts and
// resident high-water depend only on the trace and on the order readers
// fault segments.  A cursor fault before seal() fails.  After seal() the
// store is immutable and any number of replay threads may read it
// concurrently (one mutex serializes window bookkeeping and segment IO;
// cursors touch it only when crossing a segment boundary).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ro/core/access.h"
#include "ro/util/check.h"

namespace ro {

class TraceStore {
 public:
  struct Options {
    /// Capacity of one trace segment, in task access records.
    uint64_t segment_tasks = 1u << 15;
    /// Sealed segments the store keeps resident (the bounded window).
    /// 0 = unbounded: the chunked structure without any spilling.  The
    /// open segment (while recording) and at most one pinned segment per
    /// live Cursor ride on top of the window; peak_resident_bytes counts
    /// them all.
    uint32_t max_resident_segments = 0;
    /// Directory for the spill file ("" = the system temp directory).
    /// The file is unlinked immediately after creation, so spilled bytes
    /// vanish with the store (or the process) and never leak on disk.
    std::string spill_dir;
  };

  struct Stats {
    uint64_t segments = 0;           // sealed + open
    uint64_t records = 0;            // accesses appended
    uint64_t spilled_bytes = 0;      // record bytes ever spilled (raw size)
    uint64_t compressed_bytes = 0;   // physical bytes written to the file
    uint64_t segment_loads = 0;      // spilled-segment reloads at replay
    uint64_t resident_bytes = 0;     // live segment bytes right now
    uint64_t peak_resident_bytes = 0;  // high-water of resident_bytes
  };

  TraceStore() : TraceStore(Options()) {}
  explicit TraceStore(Options opt);
  ~TraceStore();
  TraceStore(const TraceStore&) = delete;
  TraceStore& operator=(const TraceStore&) = delete;

  // ---- record side (one writer) ----

  void append(const Access& a);

  /// Seals the open segment and freezes the store; idempotent.
  void seal();

  // ---- read side (any thread, once sealed) ----

  /// Records appended so far (the recorder's running access count).
  uint64_t size() const { return records_.load(std::memory_order_acquire); }

  bool sealed() const { return sealed_.load(std::memory_order_acquire); }
  const Options& options() const { return opt_; }
  uint64_t segment_count() const;
  Stats stats() const;

  /// Streaming reader with one pinned segment of cache: `at(i)` is a raw
  /// array read while `i` stays inside the pinned segment and a store
  /// fault (possibly a disk reload) when it crosses a boundary.  Each
  /// simulated core of a replayer owns one Cursor, so concurrent cursors
  /// never invalidate each other — eviction only drops the *store's*
  /// reference, the pin keeps the segment alive until the cursor moves.
  /// A fault into a store that is not sealed yet, or past its end, fails.
  /// A cursor over records already in memory has the whole array as its
  /// one pinned segment and no store to fault into.
  class Cursor {
   public:
    Cursor() = default;
    explicit Cursor(TraceStore& s) : store_(&s) {}
    Cursor(const Access* recs, uint64_t n) : recs_(recs), count_(n) {}

    const Access& at(uint64_t i) {
      const uint64_t off = i - first_;  // wraps when i < first_ -> fault
      if (off < count_) return recs_[off];
      return fault(i);
    }

   private:
    const Access& fault(uint64_t i);

    TraceStore* store_ = nullptr;
    std::shared_ptr<const std::vector<Access>> pin_;
    const Access* recs_ = nullptr;
    uint64_t first_ = 0;
    uint64_t count_ = 0;
  };

 private:
  /// State shared by the store and every live segment buffer: resident
  /// accounting (buffers released by cursors after eviction still
  /// decrement the count — their deleter holds a reference) plus a small
  /// free list of record buffers so reload decompression reuses slabs
  /// instead of reallocating per fault.
  struct Shared {
    std::atomic<uint64_t> resident_bytes{0};
    std::atomic<uint64_t> peak_resident_bytes{0};
    std::mutex pool_mu;
    std::vector<std::vector<Access>> pool;
  };

  using SlabPtr = std::shared_ptr<const std::vector<Access>>;

  struct Entry {
    SlabPtr resident;                          // strong ref while in window
    std::weak_ptr<const std::vector<Access>> pinned;  // may outlive eviction
    uint64_t count = 0;       // records in this segment
    uint64_t file_off = 0;    // spill-file extent (valid when spilled)
    uint64_t file_bytes = 0;  // physical bytes on disk
    bool spilled = false;     // contents are on disk
  };

  SlabPtr make_slab(std::vector<Access> recs) const;
  std::vector<Access> take_buffer(uint64_t n) const;  // pooled, sized to n
  void seal_open_locked();
  void evict_excess_locked();
  void spill_locked(uint64_t seg);
  void insert_resident_locked(uint64_t seg, SlabPtr slab);
  SlabPtr segment(uint64_t seg);  // pin segment `seg`, loading if spilled
  SlabPtr load_segment_locked(uint64_t seg);
  void ensure_file_locked();

  Options opt_;
  std::shared_ptr<Shared> shared_ = std::make_shared<Shared>();

  mutable std::mutex mu_;
  std::vector<Entry> entries_;      // sealed segments
  std::vector<uint64_t> window_;    // resident sealed segments, LRU order
  std::vector<Access> open_;        // the segment being recorded
  std::atomic<uint64_t> records_{0};
  std::atomic<bool> sealed_{false};
  uint64_t spilled_bytes_ = 0;      // raw record bytes spilled
  uint64_t compressed_bytes_ = 0;   // physical bytes written
  uint64_t segment_loads_ = 0;
  uint64_t file_end_ = 0;           // append-only spill-file allocator
  int fd_ = -1;                     // anonymous spill file (lazy)

  friend class Cursor;
};

}  // namespace ro
