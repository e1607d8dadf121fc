// Trace capture for workload kernels.
//
// The paper drives its evaluation with MediaBench programs through the
// MPSim full-chip simulator. Our substitution: the workloads in
// hvc::wl are real codec kernels written against *traced memory* — typed
// arrays whose every element access is recorded — plus synthetic code
// blocks that emit instruction-fetch streams with realistic locality
// (small hot loops, larger cold prologues). The resulting trace is what
// the CPU timing model replays against the IL1/DL1 simulators.
//
// Address map: code starts at kCodeBase, data allocations at kDataBase;
// both grow upward and never overlap.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "hvc/common/error.hpp"

namespace hvc::trace {

/// Number of records the replay loops (cpu::Core::run,
/// sim::System::run_mix_sources) pull from a TraceSource per next_batch()
/// call and step as one block.
inline constexpr std::size_t kReplayBlockRecords = 256;

enum class Kind : std::uint8_t {
  kIfetch,  ///< one instruction fetch (one executed instruction)
  kLoad,    ///< data read
  kStore,   ///< data write
  kBranch,  ///< control-flow marker at the end of a block (no cache access)
};

/// Widest address a Record holds: 61 bits, so kind, taken and address
/// pack into one 8-byte word (captures and replay blocks are arrays of
/// these). Decoders reject wider addresses instead of truncating them.
inline constexpr unsigned kRecordAddrBits = 61;

struct Record {
  constexpr Record() noexcept = default;
  constexpr Record(Kind k, bool t, std::uint64_t a) noexcept
      : kind(k), taken(t), addr(a) {}

  Kind kind : 2 = Kind::kIfetch;
  bool taken : 1 = false;  ///< for kBranch: backward/taken branch
  std::uint64_t addr : kRecordAddrBits = 0;
};
static_assert(sizeof(Record) == 8, "Record must pack into one 8-byte word");

/// Aggregate shape of a trace (used by tests and reports).
struct TraceStats {
  std::uint64_t instructions = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t branches = 0;
  std::uint64_t taken_branches = 0;
  std::uint64_t data_footprint_bytes = 0;
  std::uint64_t code_footprint_bytes = 0;
};

class Tracer;

/// Pull interface over a stream of trace records. The CPU timing model
/// (cpu::Core::run, sim::System::run_trace/run_mix) consumes traces
/// through this interface only, one block at a time, so a replay's
/// memory footprint is bounded by the source's own window — an on-disk
/// trace of any length replays without materializing a std::vector of
/// every record (see TraceFileSource in trace_file.hpp).
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Pulls up to `max` records into `out`; returns how many were
  /// delivered. Fewer than `max` (0 once drained) only at end of trace.
  /// One virtual call per block: MemoryTraceSource copies a span,
  /// TraceFileSource decodes a run of varints.
  virtual std::size_t next_batch(Record* out, std::size_t max) = 0;

  /// Exact number of records the source will deliver after a reset(), or
  /// 0 when unknown. Drivers use it for progress/reservation only, never
  /// for termination — an empty next_batch() ends a replay.
  [[nodiscard]] virtual std::uint64_t size_hint() const noexcept = 0;

  /// Rewinds to the first record (replay-many).
  virtual void reset() = 0;
};

// ---------------------------------------------------------------------
// .hvct on-disk trace format, version 1 (implemented in trace_file.hpp)
// ---------------------------------------------------------------------
// A .hvct file is header + payload + footer, all integers little-endian:
//
//   header (12 bytes):
//     bytes 0-3   magic "HVCT"
//     bytes 4-5   u16 format version (currently 1)
//     bytes 6-7   u16 flags (must be 0 in version 1)
//     bytes 8-11  u32 reserved (0)
//
//   payload: one entry per record, in trace order:
//     tag byte:   bits 0-1  kind (0 = ifetch, 1 = load, 2 = store,
//                           3 = branch)
//                 bit 2     taken (branch records only; must be 0 for
//                           every other kind)
//                 bits 3-7  reserved, must be 0
//     address:    LEB128 varint of the zigzag-encoded signed delta from
//                 the previous address of the same stream class. Two
//                 delta chains run through the payload: ifetch/branch
//                 records delta against the last *code* address,
//                 load/store records against the last *data* address;
//                 both chains start at 0. Sequential fetch streams and
//                 strided data streams therefore encode in 2-3 bytes
//                 per record (vs 8 in-memory). A decoded address must
//                 fit kRecordAddrBits (61) bits.
//
//   footer (72 bytes):
//     bytes 0-3   magic "HVCF"
//     bytes 4-7   u32 reserved (0)
//     bytes 8-15  u64 record count
//     bytes 16-71 TraceStats: u64 instructions, loads, stores, branches,
//                 taken_branches, data_footprint_bytes,
//                 code_footprint_bytes — exactly Tracer::stats() of the
//                 recorded stream, so replay tools can report a trace's
//                 shape without decoding the payload.
//
// Integrity: readers validate both magics, the version, zero flags/
// reserved bits, that the payload decodes to exactly `record count`
// records ending exactly at the footer boundary, that every decoded
// address fits kRecordAddrBits (61) bits, and that the stats kind-counts
// sum to the record count. Any mismatch throws ConfigError.
// ---------------------------------------------------------------------

/// TraceSource over an in-memory record vector (or a Tracer's capture).
/// The records are borrowed, not copied — the owner must outlive the
/// source. This is the adapter that keeps every existing workload path
/// working unchanged on the streaming interface.
class MemoryTraceSource final : public TraceSource {
 public:
  explicit MemoryTraceSource(const std::vector<Record>& records) noexcept
      : records_(&records) {}
  explicit MemoryTraceSource(const Tracer& tracer) noexcept;

  std::size_t next_batch(Record* out, std::size_t max) override {
    const std::size_t produced = std::min(max, records_->size() - pos_);
    std::copy_n(records_->data() + pos_, produced, out);
    pos_ += produced;
    return produced;
  }
  [[nodiscard]] std::uint64_t size_hint() const noexcept override {
    return records_->size();
  }
  void reset() override { pos_ = 0; }

 private:
  const std::vector<Record>* records_;
  std::size_t pos_ = 0;
};

/// A synthetic basic block: `instructions` sequential 4-byte instructions
/// ending in a branch slot. Executing it emits its fetch stream.
class Block {
 public:
  Block() = default;

  [[nodiscard]] std::uint64_t base() const noexcept { return base_; }
  [[nodiscard]] std::size_t instructions() const noexcept {
    return instructions_;
  }

 private:
  friend class Tracer;
  Block(std::uint64_t base, std::size_t instructions)
      : base_(base), instructions_(instructions) {}
  std::uint64_t base_ = 0;
  std::size_t instructions_ = 0;
};

/// Records every event of one kernel run.
class Tracer {
 public:
  static constexpr std::uint64_t kCodeBase = 0x0040'0000;
  static constexpr std::uint64_t kDataBase = 0x1000'0000;

  Tracer() = default;

  /// Lays out a new basic block in the synthetic code segment.
  [[nodiscard]] Block block(std::size_t instructions);

  /// Emits the fetch stream of `b` followed by its terminating branch.
  /// `taken` marks loop back-edges (they cost a redirect in the core).
  void exec(const Block& b, bool taken = false);

  /// Raw data-access hooks (used by Array<T>).
  void load(std::uint64_t addr) { records_.push_back({Kind::kLoad, false, addr}); }
  void store(std::uint64_t addr) { records_.push_back({Kind::kStore, false, addr}); }

  /// Reserves `bytes` of data address space aligned to `align`.
  [[nodiscard]] std::uint64_t alloc_data(std::size_t bytes,
                                         std::size_t align = 4);

  [[nodiscard]] const std::vector<Record>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] TraceStats stats() const;

  void reserve(std::size_t records) { records_.reserve(records); }

 private:
  std::vector<Record> records_;
  std::uint64_t next_code_ = kCodeBase;
  std::uint64_t next_data_ = kDataBase;
};

/// Typed array over traced memory: element reads/writes are recorded in
/// the owning Tracer and backed by a real std::vector so kernels stay
/// functionally exact.
template <typename T>
class Array {
 public:
  Array(Tracer& tracer, std::size_t count)
      : tracer_(&tracer),
        base_(tracer.alloc_data(count * sizeof(T), alignof(T) >= 4 ? alignof(T) : 4)),
        storage_(count) {}

  [[nodiscard]] std::size_t size() const noexcept { return storage_.size(); }
  [[nodiscard]] std::uint64_t base() const noexcept { return base_; }
  [[nodiscard]] std::uint64_t addr_of(std::size_t i) const noexcept {
    return base_ + i * sizeof(T);
  }

  /// Recorded read.
  [[nodiscard]] T get(std::size_t i) const {
    expects(i < storage_.size(), "Array read out of range");
    tracer_->load(addr_of(i));
    return storage_[i];
  }

  /// Recorded write.
  void set(std::size_t i, T value) {
    expects(i < storage_.size(), "Array write out of range");
    tracer_->store(addr_of(i));
    storage_[i] = value;
  }

  /// Un-traced access for test assertions / result checks.
  [[nodiscard]] const std::vector<T>& raw() const noexcept { return storage_; }
  void set_raw(std::size_t i, T value) { storage_[i] = value; }
  [[nodiscard]] T get_raw(std::size_t i) const { return storage_[i]; }

 private:
  Tracer* tracer_;
  std::uint64_t base_;
  std::vector<T> storage_;
};

}  // namespace hvc::trace
