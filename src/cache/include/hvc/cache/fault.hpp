// Bit-level fault models for SRAM arrays.
//
// Hard faults are manufacturing defects: each bit is independently
// stuck-at-0/1 with the cell's hard failure probability Pf (evaluated at
// the worst-case operating voltage the array must support). They are
// sampled once per chip instance and never change.
//
// Soft errors are transient radiation-induced flips arriving as a Poisson
// process with the cell's soft-error rate; they corrupt the stored value
// until it is overwritten.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hvc/common/bitvec.hpp"
#include "hvc/common/rng.hpp"

namespace hvc::cache {

/// The stuck bits under one stored word, aligned to the word's bit 0:
/// reading the word gives (stored & ~mask) | value. `value` has no bit
/// outside `mask`.
struct StuckBits {
  std::uint64_t mask = 0;
  std::uint64_t value = 0;
};

/// Stuck-at fault map over a fixed-size bit array.
class FaultMap {
 public:
  /// `bits` array positions; each is faulty with probability `pf`.
  FaultMap(std::size_t bits, double pf, Rng& rng);

  [[nodiscard]] std::size_t size() const noexcept { return stuck_mask_.size(); }
  [[nodiscard]] std::size_t fault_count() const noexcept {
    return stuck_mask_.popcount();
  }
  [[nodiscard]] bool is_stuck(std::size_t bit) const {
    return stuck_mask_.get(bit);
  }
  [[nodiscard]] bool stuck_value(std::size_t bit) const {
    return stuck_values_.get(bit);
  }

  /// Applies the stuck bits to `count` bits of `word` as if they were read
  /// from positions [base, base+count) of the array.
  void apply(BitVec& word, std::size_t base) const;

  /// Word-level fast path of apply(): returns the low `count` bits of
  /// `word` as read through positions [base, base+count) of the array,
  /// with stuck bits forced to their stuck values. Requires count <= 64.
  [[nodiscard]] std::uint64_t apply_word(std::uint64_t word, std::size_t base,
                                         std::size_t count) const;

  /// The stuck bits of positions [base, base+count), as a word-aligned
  /// mask and value. Requires count <= 64.
  [[nodiscard]] StuckBits stuck_word(std::size_t base,
                                     std::size_t count) const;

 private:
  BitVec stuck_mask_;
  BitVec stuck_values_;
};

/// Poisson soft-error arrival process over an array of bits.
class SoftErrorProcess {
 public:
  /// `rate_per_bit` in errors/second.
  SoftErrorProcess(std::size_t bits, double rate_per_bit);

  /// Advances time and returns the positions flipped in this interval.
  [[nodiscard]] std::vector<std::size_t> advance(double seconds, Rng& rng);

  [[nodiscard]] double rate_per_bit() const noexcept { return rate_per_bit_; }
  [[nodiscard]] std::size_t bits() const noexcept { return bits_; }

 private:
  std::size_t bits_;
  double rate_per_bit_;
};

}  // namespace hvc::cache
