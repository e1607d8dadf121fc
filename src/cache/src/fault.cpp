#include "hvc/cache/fault.hpp"

#include <cmath>

#include "hvc/common/error.hpp"

namespace hvc::cache {

FaultMap::FaultMap(std::size_t bits, double pf, Rng& rng)
    : stuck_mask_(bits), stuck_values_(bits) {
  expects(pf >= 0.0 && pf <= 1.0, "Pf must be a probability");
  if (pf <= 0.0 || bits == 0) {
    return;
  }
  // Skip-sampling: draw the gap to the next faulty bit geometrically
  // instead of testing every bit (Pf is typically 1e-6..1e-3).
  std::size_t position = 0;
  for (;;) {
    const std::uint64_t skip = rng.geometric(pf);
    if (skip >= bits - position) {
      break;
    }
    position += static_cast<std::size_t>(skip);
    stuck_mask_.set(position);
    stuck_values_.set(position, rng.bernoulli(0.5));
    ++position;
    if (position >= bits) {
      break;
    }
  }
}

void FaultMap::apply(BitVec& word, std::size_t base) const {
  expects(base + word.size() <= stuck_mask_.size(),
          "FaultMap::apply out of range");
  for (std::size_t i = 0; i < word.size(); ++i) {
    if (stuck_mask_.get_unchecked(base + i)) {
      word.set_unchecked(i, stuck_values_.get_unchecked(base + i));
    }
  }
}

std::uint64_t FaultMap::apply_word(std::uint64_t word, std::size_t base,
                                   std::size_t count) const {
  const StuckBits stuck = stuck_word(base, count);
  return (word & ~stuck.mask) | stuck.value;
}

StuckBits FaultMap::stuck_word(std::size_t base, std::size_t count) const {
  const std::uint64_t mask = stuck_mask_.extract_word(base, count);
  if (mask == 0) {
    return {};  // the common case: no faulty cell under this word
  }
  return {mask, stuck_values_.extract_word(base, count) & mask};
}

SoftErrorProcess::SoftErrorProcess(std::size_t bits, double rate_per_bit)
    : bits_(bits), rate_per_bit_(rate_per_bit) {
  expects(rate_per_bit >= 0.0, "soft error rate must be non-negative");
}

std::vector<std::size_t> SoftErrorProcess::advance(double seconds, Rng& rng) {
  std::vector<std::size_t> flips;
  if (rate_per_bit_ <= 0.0 || bits_ == 0 || seconds <= 0.0) {
    return flips;
  }
  const double mean = rate_per_bit_ * static_cast<double>(bits_) * seconds;
  const std::uint64_t count = rng.poisson(mean);
  flips.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    flips.push_back(static_cast<std::size_t>(rng.below(bits_)));
  }
  return flips;
}

}  // namespace hvc::cache
