// Composable memory-hierarchy levels.
//
// A MemoryLevel is anything a cache can miss into: another cache (the
// shared L2), or main memory wrapped as the terminal level. The interface
// carries the three paths a level must serve — line fill, dirty
// write-back, and single-word fallback (write-through stores and
// detected-uncorrectable reads) — plus the lifecycle operations the
// hybrid-voltage system drives top-down (mode switch, scrub, flush,
// reset) and a uniform per-level stats snapshot for reporting. Demand
// accesses enter the hierarchy at the L1s (cache::Cache), never through
// this interface: an L1 miss reaches the next level only through the
// block and word paths below.
//
// Latency contract (one convention for every entry point):
//   * Every latency this interface returns is the latency of ONE request
//     in cycles, *including* every deeper level the request had to reach
//     — an L1 miss simply adds its next level's return value to its own
//     hit latency, a shared-level arbiter composes its queueing delay the
//     same way.
//   * fetch_block / writeback_block / store_word return that latency
//     directly (Cache::access reports it as AccessResult::latency_cycles).
//   * load_word is the one exception: it is the detected-uncorrectable
//     fallback path, whose latency is already accounted by the request
//     that triggered it, so it returns data only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "hvc/power/cache_power.hpp"

namespace hvc::cache {

class MainMemory;

enum class AccessType { kLoad, kStore, kIfetch };

[[nodiscard]] std::string to_string(AccessType type);

/// Outcome of one demand access through Cache::access. The core's replay
/// path (cpu::Core::step) reads only the hit flag and latency.
struct AccessResult {
  bool hit = false;
  std::size_t way = 0;
  std::size_t latency_cycles = 0;
  std::uint32_t data = 0;       ///< loaded word (loads/ifetch)
  bool writeback = false;       ///< a dirty victim was written back
  std::size_t corrected_bits = 0;
  bool detected_uncorrectable = false;
};

/// Result of one scrub pass over a level (no-op levels report zeros).
struct ScrubReport {
  std::size_t lines_scrubbed = 0;
  std::size_t bits_corrected = 0;
  std::size_t uncorrectable = 0;
  std::size_t data_loss = 0;  ///< dirty lines that could not be recovered
};

/// Uniform per-level counters/energy snapshot for hierarchy reporting.
/// Caches fill every field; the memory terminal reports its traffic with
/// hits == accesses (memory always "hits") and zero energy/leakage.
struct LevelStats {
  std::string name;
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t fills = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t edc_corrections = 0;
  std::uint64_t edc_detected = 0;
  /// Arbitration counters — zero except for shared levels wrapped in an
  /// ArbitratedLevel (see hvc/cache/arbiter.hpp).
  std::uint64_t contended_requests = 0;  ///< requests that queued (delay > 0)
  std::uint64_t contention_cycles = 0;   ///< total queueing delay added
  double dynamic_energy_j = 0.0;  ///< accumulated since last clear
  double edc_energy_j = 0.0;      ///< accumulated since last clear
  double leakage_w = 0.0;         ///< static power at the current mode
  double area_um2 = 0.0;

  [[nodiscard]] double hit_rate() const noexcept {
    return accesses == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(accesses);
  }
};

/// Abstract next-level interface of the memory hierarchy.
class MemoryLevel {
 public:
  virtual ~MemoryLevel() = default;

  [[nodiscard]] virtual const std::string& level_name() const noexcept = 0;

  /// Fill path: reads `count` consecutive aligned 32-bit words starting at
  /// `addr` into `out`. For cache levels the range must not cross one of
  /// this level's lines (callers fetch one line at a time). Returns the
  /// request latency in cycles per the contract above.
  virtual std::size_t fetch_block(std::uint64_t addr, std::uint32_t* out,
                                  std::size_t count) = 0;

  /// Write-back path: writes `count` consecutive aligned words (a dirty
  /// line evicted by the level above). Same one-line constraint as
  /// fetch_block. Returns the request latency in cycles.
  virtual std::size_t writeback_block(std::uint64_t addr,
                                      const std::uint32_t* words,
                                      std::size_t count) = 0;

  /// Single-word read: the detected-uncorrectable fallback path (no
  /// latency return — see the contract above).
  [[nodiscard]] virtual std::uint32_t load_word(std::uint64_t addr) = 0;

  /// Single-word write (write-through stores). Returns latency in cycles.
  virtual std::size_t store_word(std::uint64_t addr, std::uint32_t value) = 0;

  /// Lifecycle, driven top-down by sim::System (L1s first, then L2, ...).
  virtual void set_mode(power::Mode mode) = 0;
  virtual ScrubReport scrub() = 0;
  virtual void flush() = 0;
  virtual void reset() = 0;

  /// Stats/energy snapshot since the last clear_level_counters().
  [[nodiscard]] virtual LevelStats level_stats() const = 0;
  virtual void clear_level_counters() = 0;
};

/// Main memory wrapped as the terminal level of a hierarchy chain: fixed
/// access latency, no energy model (the paper accounts memory energy in
/// the core model), and no mode/scrub behaviour.
class MainMemoryLevel final : public MemoryLevel {
 public:
  MainMemoryLevel(MainMemory& memory, std::size_t latency_cycles,
                  std::string name = "MEM");

  [[nodiscard]] const std::string& level_name() const noexcept override {
    return name_;
  }
  std::size_t fetch_block(std::uint64_t addr, std::uint32_t* out,
                          std::size_t count) override;
  std::size_t writeback_block(std::uint64_t addr, const std::uint32_t* words,
                              std::size_t count) override;
  [[nodiscard]] std::uint32_t load_word(std::uint64_t addr) override;
  std::size_t store_word(std::uint64_t addr, std::uint32_t value) override;

  void set_mode(power::Mode) override {}
  ScrubReport scrub() override { return {}; }
  void flush() override {}
  void reset() override {}

  [[nodiscard]] LevelStats level_stats() const override;
  void clear_level_counters() override;

  [[nodiscard]] std::size_t latency_cycles() const noexcept {
    return latency_cycles_;
  }
  [[nodiscard]] MainMemory& memory() noexcept { return memory_; }

 private:
  MainMemory& memory_;
  std::size_t latency_cycles_;
  std::string name_;
  std::uint64_t fetches_ = 0;
  std::uint64_t writebacks_ = 0;
  std::uint64_t word_reads_ = 0;
  std::uint64_t word_writes_ = 0;
};

}  // namespace hvc::cache
