// Cache-level energy/area/delay model assembled from per-way subarrays.
//
// Mirrors the paper's evaluation setup (Section IV-A): a set-associative
// L1 whose ways can use different bitcells (6T HP ways, 8T/10T ULE ways),
// with EDC check bits stored alongside data/tag words. At HP mode every
// way is active; at ULE mode only ULE ways stay powered and the HP ways
// are gated (gated-Vdd, Powell et al. [18]) leaving a small residual
// leakage. Codes can be enabled per mode ("SECDED is simply turned off at
// HP mode"): disabled check columns are not precharged, so they cost no
// dynamic energy, but they keep leaking because they stay powered.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "hvc/edc/code.hpp"
#include "hvc/edc/cost.hpp"
#include "hvc/power/array.hpp"
#include "hvc/tech/sram_cell.hpp"

namespace hvc::power {

/// Operating mode of the hybrid-Vcc system.
enum class Mode {
  kHp,   ///< high voltage, high frequency, all ways on
  kUle,  ///< near-threshold, low frequency, only ULE ways on
};

[[nodiscard]] const char* to_string(Mode mode);

/// Logical organisation of the cache.
struct CacheOrg {
  std::size_t size_bytes = 8 * 1024;
  std::size_t ways = 8;
  std::size_t line_bytes = 32;
  std::size_t word_bits = 32;
  std::size_t tag_bits = 26;

  [[nodiscard]] std::size_t lines() const noexcept {
    return size_bytes / line_bytes;
  }
  [[nodiscard]] std::size_t sets() const noexcept { return lines() / ways; }
  [[nodiscard]] std::size_t lines_per_way() const noexcept { return sets(); }
  [[nodiscard]] std::size_t words_per_line() const noexcept {
    return line_bytes * 8 / word_bits;
  }

  /// Structural consistency check (throws PreconditionError with the
  /// offending relation): sizes divide into whole lines, lines into whole
  /// sets, lines into whole words. Swept organisations (e.g. an
  /// l2_size_kb axis value) fail here with a real message instead of
  /// building a degenerate cache.
  void validate() const;
};

/// Physical plan for one way: its bitcell and the protection active in
/// each mode (paper Section III-B scenarios).
struct WayPlan {
  tech::CellDesign cell;
  edc::Protection hp_protection = edc::Protection::kNone;
  edc::Protection ule_protection = edc::Protection::kNone;
  bool ule_way = false;  ///< stays powered at ULE mode

  /// The strongest protection this way ever uses: determines how many
  /// check-bit columns are physically built.
  [[nodiscard]] edc::Protection stored_protection() const noexcept;
  [[nodiscard]] edc::Protection protection_at(Mode mode) const noexcept {
    return mode == Mode::kHp ? hp_protection : ule_protection;
  }
};

/// Voltage/frequency of one mode (paper IV-A2: 1V/1GHz HP, 350mV/5MHz ULE).
struct OperatingPoint {
  Mode mode = Mode::kHp;
  double vcc = 1.0;
  double freq_hz = 1e9;
};

/// Per-event energies the cache simulator charges, all in joules.
class CacheEnergyModel {
 public:
  CacheEnergyModel(const CacheOrg& org, std::vector<WayPlan> ways,
                   OperatingPoint op,
                   const tech::TechNode& node = tech::node32());

  [[nodiscard]] const CacheOrg& org() const noexcept { return org_; }
  [[nodiscard]] const OperatingPoint& op() const noexcept { return op_; }
  [[nodiscard]] std::size_t way_count() const noexcept { return ways_.size(); }
  [[nodiscard]] const WayPlan& way(std::size_t w) const;
  [[nodiscard]] bool way_active(std::size_t w) const;

  /// Dynamic energy of one lookup: every active way reads its tag word and
  /// one data word in parallel (way-parallel L1 read). EDC decode energy is
  /// charged separately by the cache via edc_decode_energy().
  [[nodiscard]] double lookup_energy() const noexcept { return lookup_energy_; }

  /// Dynamic energy of writing one data word into way `w` (store hit),
  /// including EDC encoding when that way's code is active.
  [[nodiscard]] double word_write_energy(std::size_t w) const;

  /// Dynamic energy of filling a whole line into way `w` (refill),
  /// including tag write and all EDC encodes.
  [[nodiscard]] double line_fill_energy(std::size_t w) const;

  /// Dynamic energy of reading a whole line from way `w` (writeback).
  [[nodiscard]] double line_read_energy(std::size_t w) const;

  /// EDC decode energy for one word from way `w` (0 if code off).
  [[nodiscard]] double edc_decode_energy(std::size_t w) const;
  /// EDC encode energy for one word into way `w` (0 if code off).
  [[nodiscard]] double edc_encode_energy(std::size_t w) const;

  /// Total static power: active ways leak fully; gated ways retain a
  /// small residual (gated-Vdd).
  [[nodiscard]] double leakage_power() const noexcept { return leakage_w_; }

  /// Leakage attributed to EDC logic blocks (gated off with their way).
  [[nodiscard]] double edc_leakage_power() const noexcept {
    return edc_leakage_w_;
  }

  /// Worst active-way access delay (s), excluding EDC.
  [[nodiscard]] double access_delay() const noexcept { return access_delay_; }
  /// Worst-case EDC decode delay among active coded ways (s).
  [[nodiscard]] double edc_delay() const noexcept { return edc_delay_; }

  /// Whether any active way runs with EDC enabled in this mode (adds the
  /// paper's one-cycle encode/decode latency).
  [[nodiscard]] bool edc_active() const noexcept { return edc_active_; }

  /// Total silicon area of the cache (um^2), including check-bit columns
  /// and EDC logic (mode-independent).
  [[nodiscard]] double total_area_um2() const noexcept { return area_um2_; }

 private:
  struct WayArrays {
    // Physical arrays (all columns, incl. strongest-protection check bits):
    // source of leakage and area.
    std::unique_ptr<ArrayModel> tag_physical;
    std::unique_ptr<ArrayModel> data_physical;
    // Dynamic arrays with only the columns active in this mode.
    std::unique_ptr<ArrayModel> tag_dynamic;
    std::unique_ptr<ArrayModel> data_dynamic;
    // EDC circuitry for the protection active in this mode.
    std::shared_ptr<const edc::Codec> codec;  // nullptr when no code active
    double encode_energy = 0.0;
    double decode_energy = 0.0;
    double edc_leakage = 0.0;
    double edc_delay = 0.0;
    double edc_area_um2 = 0.0;
  };

  CacheOrg org_;
  std::vector<WayPlan> ways_;
  OperatingPoint op_;
  std::vector<WayArrays> arrays_;
  double lookup_energy_ = 0.0;
  double leakage_w_ = 0.0;
  double edc_leakage_w_ = 0.0;
  double access_delay_ = 0.0;
  double edc_delay_ = 0.0;
  bool edc_active_ = false;
  double area_um2_ = 0.0;
};

/// Residual leakage fraction of a gated-Vdd way (Powell et al. report
/// ~97% leakage reduction).
inline constexpr double kGatedLeakageResidual = 0.03;

}  // namespace hvc::power
