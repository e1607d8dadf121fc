// Replacement policies over the *active* ways of a set (gated ways are
// never candidates).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "hvc/common/rng.hpp"

namespace hvc::cache {

enum class ReplacementKind { kLru, kFifo, kRandom };

[[nodiscard]] std::string to_string(ReplacementKind kind);

/// Per-set replacement state shared by all policies.
class ReplacementPolicy {
 public:
  ReplacementPolicy(std::size_t sets, std::size_t ways, std::uint64_t seed);
  virtual ~ReplacementPolicy() = default;

  /// Called on every hit/fill so the policy can update recency state.
  virtual void touch(std::size_t set, std::size_t way) = 0;

  /// Hit-path seam for Cache::access: a policy whose touch() reduces to
  /// one timestamp store (LRU) exposes its stamp array (sets * ways,
  /// row-major) and clock so the cache's inline hit path can update
  /// recency without a virtual call. The store performed through the seam
  /// must be exactly `stamps[set * ways + way] = ++*clock` — the same
  /// state transition touch() makes. A policy whose touch() is provably a
  /// no-op *on hits* (FIFO: every valid line is already filled; random:
  /// touch is empty) sets `noop` instead, and the hit path skips the
  /// call entirely. Policies with any other touch() behaviour return
  /// the default seam and keep taking the virtual call.
  struct TouchSeam {
    std::uint64_t* stamps = nullptr;
    std::uint64_t* clock = nullptr;
    bool noop = false;  ///< touch() has no effect on a hit to a valid line
  };
  [[nodiscard]] virtual TouchSeam touch_seam() noexcept { return {}; }
  /// Picks a victim among `candidates` (indices of active, valid ways are
  /// passed by the cache; invalid ways are chosen by the cache first).
  [[nodiscard]] virtual std::size_t victim(
      std::size_t set, std::span<const std::size_t> candidates) = 0;

  [[nodiscard]] std::size_t sets() const noexcept { return sets_; }
  [[nodiscard]] std::size_t ways() const noexcept { return ways_; }

 protected:
  std::size_t sets_;
  std::size_t ways_;
  Rng rng_;
};

[[nodiscard]] std::unique_ptr<ReplacementPolicy> make_policy(
    ReplacementKind kind, std::size_t sets, std::size_t ways,
    std::uint64_t seed);

}  // namespace hvc::cache
