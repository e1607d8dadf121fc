#include "hvc/cache/replacement.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "hvc/common/error.hpp"

namespace hvc::cache {

std::string to_string(ReplacementKind kind) {
  switch (kind) {
    case ReplacementKind::kLru: return "LRU";
    case ReplacementKind::kFifo: return "FIFO";
    case ReplacementKind::kRandom: return "random";
  }
  return "?";
}

ReplacementPolicy::ReplacementPolicy(std::size_t sets, std::size_t ways,
                                     std::uint64_t seed)
    : sets_(sets), ways_(ways), rng_(seed) {
  expects(sets > 0 && ways > 0, "replacement needs non-empty geometry");
}

namespace {

/// True LRU via per-way timestamps (8-way sets make this cheap).
class LruPolicy final : public ReplacementPolicy {
 public:
  LruPolicy(std::size_t sets, std::size_t ways, std::uint64_t seed)
      : ReplacementPolicy(sets, ways, seed),
        stamps_(sets * ways, 0) {}

  void touch(std::size_t set, std::size_t way) override {
    expects(set < sets_ && way < ways_, "touch out of range");
    stamps_[set * ways_ + way] = ++clock_;
  }

  TouchSeam touch_seam() noexcept override {
    return {stamps_.data(), &clock_};
  }

  std::size_t victim(std::size_t set,
                     std::span<const std::size_t> candidates) override {
    expects(!candidates.empty(), "victim needs candidates");
    std::size_t best = candidates.front();
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (const auto way : candidates) {
      expects(way < ways_, "candidate out of range");
      const std::uint64_t stamp = stamps_[set * ways_ + way];
      if (stamp < oldest) {
        oldest = stamp;
        best = way;
      }
    }
    return best;
  }

 private:
  std::vector<std::uint64_t> stamps_;
  std::uint64_t clock_ = 0;
};

/// FIFO: order set on fill only (touch on hit is ignored).
class FifoPolicy final : public ReplacementPolicy {
 public:
  FifoPolicy(std::size_t sets, std::size_t ways, std::uint64_t seed)
      : ReplacementPolicy(sets, ways, seed),
        stamps_(sets * ways, 0),
        filled_(sets * ways, false) {}

  void touch(std::size_t set, std::size_t way) override {
    expects(set < sets_ && way < ways_, "touch out of range");
    const std::size_t index = set * ways_ + way;
    if (!filled_[index]) {
      filled_[index] = true;
      stamps_[index] = ++clock_;
    }
  }

  // A hit always lands on a valid line, and every valid line was touched
  // by its fill (fill_line calls touch unconditionally), so filled_ is
  // already true and touch() would change nothing.
  TouchSeam touch_seam() noexcept override { return {nullptr, nullptr, true}; }

  std::size_t victim(std::size_t set,
                     std::span<const std::size_t> candidates) override {
    expects(!candidates.empty(), "victim needs candidates");
    std::size_t best = candidates.front();
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (const auto way : candidates) {
      const std::size_t index = set * ways_ + way;
      const std::uint64_t stamp = filled_[index] ? stamps_[index] : 0;
      if (stamp < oldest) {
        oldest = stamp;
        best = way;
      }
    }
    // The victim slot will be refilled: restart its FIFO stamp.
    filled_[set * ways_ + best] = false;
    return best;
  }

 private:
  std::vector<std::uint64_t> stamps_;
  std::vector<bool> filled_;
  std::uint64_t clock_ = 0;
};

class RandomPolicy final : public ReplacementPolicy {
 public:
  using ReplacementPolicy::ReplacementPolicy;

  void touch(std::size_t, std::size_t) override {}

  TouchSeam touch_seam() noexcept override { return {nullptr, nullptr, true}; }

  std::size_t victim(std::size_t,
                     std::span<const std::size_t> candidates) override {
    expects(!candidates.empty(), "victim needs candidates");
    return candidates[static_cast<std::size_t>(rng_.below(candidates.size()))];
  }
};

}  // namespace

std::unique_ptr<ReplacementPolicy> make_policy(ReplacementKind kind,
                                               std::size_t sets,
                                               std::size_t ways,
                                               std::uint64_t seed) {
  switch (kind) {
    case ReplacementKind::kLru:
      return std::make_unique<LruPolicy>(sets, ways, seed);
    case ReplacementKind::kFifo:
      return std::make_unique<FifoPolicy>(sets, ways, seed);
    case ReplacementKind::kRandom:
      return std::make_unique<RandomPolicy>(sets, ways, seed);
  }
  throw PreconditionError("unknown replacement kind");
}

}  // namespace hvc::cache
