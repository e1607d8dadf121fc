// Replacement policy tests.
#include <gtest/gtest.h>

#include "hvc/cache/replacement.hpp"
#include "hvc/common/error.hpp"

namespace hvc::cache {
namespace {

// victim() takes a span: `{{0, 1}}` is an array of candidates it views.

TEST(Replacement, FactoryNames) {
  EXPECT_EQ(to_string(ReplacementKind::kLru), "LRU");
  EXPECT_EQ(to_string(ReplacementKind::kFifo), "FIFO");
  EXPECT_EQ(to_string(ReplacementKind::kRandom), "random");
}

TEST(Lru, EvictsLeastRecentlyUsed) {
  auto policy = make_policy(ReplacementKind::kLru, 4, 4, 1);
  policy->touch(0, 0);
  policy->touch(0, 1);
  policy->touch(0, 2);
  policy->touch(0, 3);
  policy->touch(0, 0);  // 0 becomes most recent; 1 is now oldest
  EXPECT_EQ(policy->victim(0, {{0, 1, 2, 3}}), 1u);
}

TEST(Lru, HitPromotes) {
  auto policy = make_policy(ReplacementKind::kLru, 1, 3, 1);
  policy->touch(0, 0);
  policy->touch(0, 1);
  policy->touch(0, 2);
  policy->touch(0, 0);  // re-reference way 0
  EXPECT_EQ(policy->victim(0, {{0, 1, 2}}), 1u);
}

TEST(Lru, SetsAreIndependent) {
  auto policy = make_policy(ReplacementKind::kLru, 2, 2, 1);
  policy->touch(0, 0);
  policy->touch(1, 1);
  policy->touch(0, 1);
  // Set 0: way 0 older than way 1. Set 1: way 0 untouched (stamp 0).
  EXPECT_EQ(policy->victim(0, {{0, 1}}), 0u);
  EXPECT_EQ(policy->victim(1, {{0, 1}}), 0u);
}

TEST(Lru, RestrictedCandidates) {
  // Gated ways are excluded by the cache: the policy must respect the
  // candidate list even if another way is older.
  auto policy = make_policy(ReplacementKind::kLru, 1, 4, 1);
  policy->touch(0, 0);
  policy->touch(0, 1);
  policy->touch(0, 2);
  policy->touch(0, 3);
  EXPECT_EQ(policy->victim(0, {{2, 3}}), 2u);
}

TEST(Fifo, IgnoresHits) {
  auto policy = make_policy(ReplacementKind::kFifo, 1, 3, 1);
  policy->touch(0, 0);  // fill order: 0, 1, 2
  policy->touch(0, 1);
  policy->touch(0, 2);
  policy->touch(0, 0);  // hit on 0: FIFO order unchanged
  EXPECT_EQ(policy->victim(0, {{0, 1, 2}}), 0u);
}

TEST(Random, OnlyPicksCandidates) {
  auto policy = make_policy(ReplacementKind::kRandom, 1, 8, 7);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t victim = policy->victim(0, {{3, 5}});
    EXPECT_TRUE(victim == 3 || victim == 5);
  }
}

TEST(Random, EventuallyPicksAll) {
  auto policy = make_policy(ReplacementKind::kRandom, 1, 4, 9);
  std::array<bool, 4> seen{};
  for (int trial = 0; trial < 200; ++trial) {
    seen[policy->victim(0, {{0, 1, 2, 3}})] = true;
  }
  EXPECT_TRUE(seen[0] && seen[1] && seen[2] && seen[3]);
}

TEST(Replacement, EmptyCandidatesThrow) {
  auto policy = make_policy(ReplacementKind::kLru, 1, 2, 1);
  EXPECT_THROW((void)policy->victim(0, {}), PreconditionError);
}

}  // namespace
}  // namespace hvc::cache
