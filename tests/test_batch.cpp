// Differential pins of the replay path, at two levels:
//   * cache: every op issued through Cache::access (the one demand path
//     the core drives) must be bit-identical — all stats, every energy
//     category as an exact double, every per-op result — to a twin
//     testref::ReferenceCache (tests/reference_cache.hpp), a deliberately
//     simple model of the same datapath;
//   * system: Core::run and System::run_mix_sources (block-pulled
//     sources, one-live-core tail) must match a test-local reference
//     driver built from the public incremental API — one Core::step per
//     record straight off the capture, one record per core per round.
// FP accumulation is order-sensitive, so these tests use EXPECT_EQ on
// doubles throughout: "close" means a different arithmetic route.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "hvc/cache/cache.hpp"
#include "hvc/common/rng.hpp"
#include "hvc/sim/system.hpp"
#include "hvc/trace/trace.hpp"
#include "hvc/workloads/workload.hpp"
#include "reference_cache.hpp"

namespace hvc {
namespace {

using cache::AccessType;

// ---------------------------------------------------------------------
// Cache-level differential: the library cache against the reference.
// ---------------------------------------------------------------------

struct CacheVariant {
  cache::CacheConfig config;
  const char* label = "";
};

/// Paper-shaped 8KB 7+1 cache, parameterized over the axes the demand
/// path special-cases: EDC codecs, hard faults (tag faults send a set
/// through the decoding tag probe), and the write policy.
[[nodiscard]] cache::CacheConfig shaped_config(edc::Protection hp_protection,
                                               edc::Protection ule_protection,
                                               double ule_pf,
                                               cache::WritePolicy policy) {
  cache::CacheConfig config;
  config.ways.resize(8);
  for (std::size_t w = 0; w < 7; ++w) {
    config.ways[w].cell = {tech::CellKind::k6T, 1.9};
    config.ways[w].hp_protection = hp_protection;
  }
  config.ways[7].ule_way = true;
  config.ways[7].cell = {tech::CellKind::k8T, 2.8};
  config.ways[7].hp_protection = hp_protection;
  config.ways[7].ule_protection = ule_protection;
  config.way_hard_pf.assign(8, 0.0);
  config.way_hard_pf[7] = ule_pf;
  config.write_policy = policy;
  return config;
}

struct Op {
  std::uint64_t addr = 0;
  AccessType type = AccessType::kLoad;
  std::uint32_t store_value = 0;
};

/// Mixed op stream over `footprint` bytes (2x the cache): hits, misses,
/// evictions, 1 store per 4 ops, 1 ifetch per 7.
[[nodiscard]] std::vector<Op> op_stream(std::size_t count,
                                        std::uint64_t footprint,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Op> ops(count);
  for (std::size_t i = 0; i < count; ++i) {
    ops[i].addr = (rng.below(footprint) / 4) * 4;
    ops[i].type = (i % 4 == 3)   ? AccessType::kStore
                  : (i % 7 == 0) ? AccessType::kIfetch
                                 : AccessType::kLoad;
    ops[i].store_value = static_cast<std::uint32_t>(i * 2654435761ULL);
  }
  return ops;
}

void expect_stats_equal(const testref::ReferenceCache& reference,
                        const cache::Cache& cache, const char* what) {
  const cache::CacheStats& a = reference.stats();
  const cache::CacheStats& b = cache.stats();
  EXPECT_EQ(a.accesses, b.accesses) << what;
  EXPECT_EQ(a.hits, b.hits) << what;
  EXPECT_EQ(a.misses, b.misses) << what;
  EXPECT_EQ(a.loads, b.loads) << what;
  EXPECT_EQ(a.stores, b.stores) << what;
  EXPECT_EQ(a.ifetches, b.ifetches) << what;
  EXPECT_EQ(a.fills, b.fills) << what;
  EXPECT_EQ(a.writebacks, b.writebacks) << what;
  EXPECT_EQ(a.edc_corrections, b.edc_corrections) << what;
  EXPECT_EQ(a.edc_detected, b.edc_detected) << what;
  EXPECT_EQ(a.mode_switch_writebacks, b.mode_switch_writebacks) << what;
  EXPECT_EQ(a.soft_errors_injected, b.soft_errors_injected) << what;
  // The pin that matters most: FP energy, exactly.
  EXPECT_EQ(reference.dynamic_energy_j(), cache.dynamic_energy_j()) << what;
  EXPECT_EQ(reference.edc_energy_j(), cache.edc_energy_j()) << what;
}

/// Soft errors and scrubs laid over a differential run (all off by
/// default). Flips and scrubs go to both caches at the same points.
struct Perturb {
  /// After every `flip_every`-th op: flip 1 or 2 bits of one codeword of
  /// the line that op touched, store to another word of that line half
  /// the time (a one-word store must not hide the flip), then load the
  /// flipped word; and flip one bit anywhere in the cache.
  std::size_t flip_every = 0;
  /// Scrub both caches before every `scrub_every`-th op.
  std::size_t scrub_every = 0;
  /// Toggle HP<->ULE before each of these ops.
  std::vector<std::size_t> switches;
};

void expect_results_equal(const cache::AccessResult& want,
                          const cache::AccessResult& got, const char* what,
                          std::size_t j) {
  ASSERT_EQ(want.hit, got.hit) << what << " op " << j;
  ASSERT_EQ(want.way, got.way) << what << " op " << j;
  ASSERT_EQ(want.latency_cycles, got.latency_cycles) << what << " op " << j;
  ASSERT_EQ(want.data, got.data) << what << " op " << j;
  ASSERT_EQ(want.writeback, got.writeback) << what << " op " << j;
  ASSERT_EQ(want.corrected_bits, got.corrected_bits) << what << " op " << j;
  ASSERT_EQ(want.detected_uncorrectable, got.detected_uncorrectable)
      << what << " op " << j;
}

/// Drives the same op stream through the library cache and the
/// reference, one op at a time (exactly how cpu::Core issues them),
/// switching both to `switch_mode` before op `switch_at` when set, and
/// applying `perturb`. Compares every per-op result and scrub report,
/// and the final stats, energy and memory image. Returns the library
/// cache's stats.
cache::CacheStats run_differential(const cache::CacheConfig& config, power::Mode mode,
                      const char* what, std::size_t switch_at = 0,
                      power::Mode switch_mode = power::Mode::kHp,
                      const Perturb& perturb = {}) {
  cache::MainMemory mem_a, mem_b;
  Rng rng(7);
  cache::MainMemoryLevel term_a(mem_a, config.memory_latency_cycles);
  cache::MainMemoryLevel term_b(mem_b, config.memory_latency_cycles);
  testref::ReferenceCache reference(config, term_a);
  cache::Cache cache(config, term_b, rng);
  reference.set_mode(mode);
  cache.set_mode(mode);

  const power::CacheOrg& org = config.org;
  const auto codeword_bits = [&](std::size_t way) {
    return org.word_bits +
           edc::check_bits_for(config.ways[way].stored_protection());
  };
  // Issues one op to both caches and compares the results.
  const auto issue = [&](const Op& op, std::size_t j) {
    const auto got = cache.access(op.addr, op.type, op.store_value);
    const auto want = reference.access(op.addr, op.type, op.store_value);
    expect_results_equal(want, got, what, j);
    return want;
  };
  const auto flip = [&](std::size_t way, std::size_t set, std::size_t bit) {
    reference.inject_bit_flip(way, set, bit);
    cache.inject_bit_flip(way, set, bit);
  };

  Rng events(99);
  std::size_t scrubbed_bits = 0;
  const std::uint64_t footprint = 2 * org.size_bytes;
  const auto ops = op_stream(4096, footprint, 42);
  for (std::size_t j = 0; j < ops.size(); ++j) {
    if (switch_at != 0 && j == switch_at) {
      reference.set_mode(switch_mode);
      cache.set_mode(switch_mode);
    }
    if (std::find(perturb.switches.begin(), perturb.switches.end(), j) !=
        perturb.switches.end()) {
      const power::Mode next = cache.mode() == power::Mode::kHp
                                   ? power::Mode::kUle
                                   : power::Mode::kHp;
      reference.set_mode(next);
      cache.set_mode(next);
    }
    if (perturb.scrub_every != 0 && j % perturb.scrub_every == 0) {
      const cache::ScrubReport want = reference.scrub();
      const cache::ScrubReport got = cache.scrub();
      EXPECT_EQ(want.lines_scrubbed, got.lines_scrubbed) << what << " op " << j;
      EXPECT_EQ(want.bits_corrected, got.bits_corrected) << what << " op " << j;
      EXPECT_EQ(want.uncorrectable, got.uncorrectable) << what << " op " << j;
      EXPECT_EQ(want.data_loss, got.data_loss) << what << " op " << j;
      scrubbed_bits += got.bits_corrected;
    }
    const Op& op = ops[j];
    const cache::AccessResult result = issue(op, j);
    if (::testing::Test::HasFatalFailure()) {
      return cache.stats();
    }
    if (perturb.flip_every == 0 || j % perturb.flip_every != 0) {
      continue;
    }
    // A line the op left in the cache (a write-through store miss
    // allocates nothing): flip one codeword of it, then read that word.
    const bool resident =
        result.hit || op.type != AccessType::kStore ||
        config.write_policy != cache::WritePolicy::kWriteThroughNoAllocate;
    if (resident) {
      const std::uint64_t line_base = op.addr - op.addr % org.line_bytes;
      const std::size_t set =
          static_cast<std::size_t>((op.addr / org.line_bytes) % org.sets());
      const std::size_t wpl = org.words_per_line();
      const std::size_t cw = codeword_bits(result.way);
      const std::size_t word = events.below(wpl);
      const std::size_t first = events.below(cw);
      flip(result.way, set, word * cw + first);
      if (events.below(2) == 0) {
        const std::size_t second = (first + 1 + events.below(cw - 1)) % cw;
        flip(result.way, set, word * cw + second);
      }
      if (events.below(2) == 0) {
        const std::size_t other = (word + 1 + events.below(wpl - 1)) % wpl;
        issue({line_base + 4 * other, AccessType::kStore,
               static_cast<std::uint32_t>(events.next())},
              j);
      }
      issue({line_base + 4 * word, AccessType::kLoad, 0}, j);
      if (::testing::Test::HasFatalFailure()) {
        return cache.stats();
      }
    }
    const std::size_t way = events.below(org.ways);
    flip(way, events.below(org.sets()),
         events.below(org.words_per_line() * codeword_bits(way)));
  }
  expect_stats_equal(reference, cache, what);
  // The stored memory images must agree too (stores/writebacks).
  for (std::uint64_t a = 0; a < footprint; a += 4) {
    EXPECT_EQ(mem_a.read_word(a), mem_b.read_word(a)) << what << " @" << a;
  }
  if (perturb.scrub_every != 0) {
    // The scrubs must have had something to correct.
    EXPECT_GT(scrubbed_bits, 0u) << what;
  }
  return cache.stats();
}

TEST(BatchTwin, HpUncodedBitIdentical) {
  run_differential(shaped_config(edc::Protection::kNone,
                                 edc::Protection::kSecded, 0.0,
                                 cache::WritePolicy::kWriteBackAllocate),
                   power::Mode::kHp, "hp-uncoded");
}

TEST(BatchTwin, HpCodedBitIdentical) {
  // SECDED on every way at HP: lookup tag-decode charges, per-load data
  // decode and per-store encode on every hit.
  run_differential(shaped_config(edc::Protection::kSecded,
                                 edc::Protection::kSecded, 0.0,
                                 cache::WritePolicy::kWriteBackAllocate),
                   power::Mode::kHp, "hp-coded");
}

TEST(BatchTwin, UleFaultyBitIdentical) {
  // Exaggerated Pf: stuck tag bits send sets through the decoding tag
  // probe and stuck data bits feed the live correction path — both must
  // land on exactly the reference counters.
  run_differential(shaped_config(edc::Protection::kNone,
                                 edc::Protection::kSecded, 3e-3,
                                 cache::WritePolicy::kWriteBackAllocate),
                   power::Mode::kUle, "ule-faulty");
  // Uncoded at ULE: stuck data bits reach the loaded word as they are.
  run_differential(shaped_config(edc::Protection::kNone,
                                 edc::Protection::kNone, 3e-3,
                                 cache::WritePolicy::kWriteBackAllocate),
                   power::Mode::kUle, "ule-faulty-uncoded");
}

// Soft flips, scrubs and mode switches against the reference's full
// decode: the oracle for the library's skip of clean-word decodes. The
// flipped words are clean (pf 0) or sit among stuck bits (pf 3e-3),
// under SECDED (hp none / ule SECDED) and DECTED (hp SECDED / ule
// DECTED) ULE ways; the switches re-encode the retained ULE-way lines.
TEST(BatchTwin, SoftFlipsAndScrubsBitIdentical) {
  struct Case {
    edc::Protection hp;
    edc::Protection ule;
    double pf;
    power::Mode mode;
    const char* what;
  };
  const Case cases[] = {
      {edc::Protection::kNone, edc::Protection::kSecded, 0.0,
       power::Mode::kUle, "flips-secded-clean"},
      {edc::Protection::kNone, edc::Protection::kSecded, 3e-3,
       power::Mode::kUle, "flips-secded-stuck"},
      {edc::Protection::kSecded, edc::Protection::kDected, 0.0,
       power::Mode::kUle, "flips-dected-clean"},
      {edc::Protection::kSecded, edc::Protection::kDected, 3e-3,
       power::Mode::kUle, "flips-dected-stuck"},
      {edc::Protection::kSecded, edc::Protection::kDected, 3e-3,
       power::Mode::kHp, "flips-hp-secded"},
  };
  Perturb perturb;
  perturb.flip_every = 5;
  perturb.scrub_every = 700;
  perturb.switches = {1300, 2600, 3300};
  for (const Case& c : cases) {
    for (const auto policy : {cache::WritePolicy::kWriteBackAllocate,
                              cache::WritePolicy::kWriteThroughNoAllocate}) {
      const cache::CacheStats stats =
          run_differential(shaped_config(c.hp, c.ule, c.pf, policy), c.mode,
                           c.what, 0, power::Mode::kHp, perturb);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
      // The flips reached the decoders: corrected single and double
      // errors, and SECDED's detected doubles (refetched loads).
      EXPECT_GT(stats.soft_errors_injected, 0u) << c.what;
      EXPECT_GT(stats.edc_corrections, 0u) << c.what;
      if (c.ule == edc::Protection::kSecded) {
        EXPECT_GT(stats.edc_detected, 0u) << c.what;
      }
    }
  }
}

TEST(BatchTwin, WriteThroughBitIdentical) {
  run_differential(shaped_config(edc::Protection::kNone,
                                 edc::Protection::kSecded, 0.0,
                                 cache::WritePolicy::kWriteThroughNoAllocate),
                   power::Mode::kHp, "write-through");
}

TEST(BatchTwin, MidStreamModeSwitchBitIdentical) {
  // HP -> ULE at op 1000: the drain writebacks, the mode-context
  // invalidation and the post-switch ULE accounting must all replay
  // exactly.
  run_differential(shaped_config(edc::Protection::kNone,
                                 edc::Protection::kSecded, 1e-3,
                                 cache::WritePolicy::kWriteBackAllocate),
                   power::Mode::kHp, "mode-switch", 1000,
                   power::Mode::kUle);
}

// ---------------------------------------------------------------------
// Geometry sweep: the lookup scans one probe-key row of `ways` keys, and
// address decode takes shift/mask for power-of-two geometry and divides
// otherwise. Every shape must replay the reference bit-identically —
// same hits, same exact-double energy — across the codec, fault and
// write-policy axes.
// ---------------------------------------------------------------------

struct Geometry {
  std::size_t size_bytes = 8 * 1024;
  std::size_t ways = 8;
};

/// A `geometry`-shaped cache, last way always the ULE way.
[[nodiscard]] cache::CacheConfig ways_config(const Geometry& geometry,
                                             edc::Protection hp_protection,
                                             edc::Protection ule_protection,
                                             double ule_pf,
                                             cache::WritePolicy policy) {
  const std::size_t ways = geometry.ways;
  cache::CacheConfig config;
  config.org.size_bytes = geometry.size_bytes;
  config.org.ways = ways;
  config.ways.resize(ways);
  for (std::size_t w = 0; w + 1 < ways; ++w) {
    config.ways[w].cell = {tech::CellKind::k6T, 1.9};
    config.ways[w].hp_protection = hp_protection;
  }
  config.ways[ways - 1].ule_way = true;
  config.ways[ways - 1].cell = {tech::CellKind::k8T, 2.8};
  config.ways[ways - 1].hp_protection = hp_protection;
  config.ways[ways - 1].ule_protection = ule_protection;
  config.way_hard_pf.assign(ways, 0.0);
  config.way_hard_pf[ways - 1] = ule_pf;
  config.write_policy = policy;
  return config;
}

class BatchWays : public ::testing::TestWithParam<Geometry> {};

TEST_P(BatchWays, HpUncodedBitIdentical) {
  // The probe-row shortcut's home shape: uncoded HP, every set clean.
  run_differential(ways_config(GetParam(), edc::Protection::kNone,
                               edc::Protection::kSecded, 0.0,
                               cache::WritePolicy::kWriteBackAllocate),
                   power::Mode::kHp, "ways-hp-uncoded");
}

TEST_P(BatchWays, HpCodedBitIdentical) {
  run_differential(ways_config(GetParam(), edc::Protection::kSecded,
                               edc::Protection::kSecded, 0.0,
                               cache::WritePolicy::kWriteBackAllocate),
                   power::Mode::kHp, "ways-hp-coded");
}

TEST_P(BatchWays, UleFaultyBitIdentical) {
  run_differential(ways_config(GetParam(), edc::Protection::kNone,
                               edc::Protection::kSecded, 3e-3,
                               cache::WritePolicy::kWriteBackAllocate),
                   power::Mode::kUle, "ways-ule-faulty");
}

TEST_P(BatchWays, WriteThroughBitIdentical) {
  run_differential(ways_config(GetParam(), edc::Protection::kNone,
                               edc::Protection::kSecded, 0.0,
                               cache::WritePolicy::kWriteThroughNoAllocate),
                   power::Mode::kHp, "ways-write-through");
}

// 8 KB at 1/2/4/8 ways, and 12 KB 4-way: 96 sets, the divide branch of
// the address decode.
INSTANTIATE_TEST_SUITE_P(Ways, BatchWays,
                         ::testing::Values(Geometry{8 * 1024, 1},
                                           Geometry{8 * 1024, 2},
                                           Geometry{8 * 1024, 4},
                                           Geometry{8 * 1024, 8},
                                           Geometry{12 * 1024, 4}));

// ---------------------------------------------------------------------
// System-level differential: the replay loops against a reference driver.
// ---------------------------------------------------------------------

/// Bit-identical comparison of two run results (same contract as
/// test_multicore's pin: EXPECT_EQ on every double).
void expect_run_identical(const cpu::RunResult& a, const cpu::RunResult& b,
                          const char* what) {
  EXPECT_EQ(a.instructions, b.instructions) << what;
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.seconds, b.seconds) << what;
  const auto& items_a = a.energy.items();
  ASSERT_EQ(items_a.size(), b.energy.items().size()) << what;
  for (const auto& [key, value] : items_a) {
    EXPECT_EQ(value, b.energy.get(key)) << what << " category " << key;
  }
  EXPECT_EQ(a.il1.accesses, b.il1.accesses) << what;
  EXPECT_EQ(a.il1.hits, b.il1.hits) << what;
  EXPECT_EQ(a.dl1.accesses, b.dl1.accesses) << what;
  EXPECT_EQ(a.dl1.hits, b.dl1.hits) << what;
  EXPECT_EQ(a.il1.writebacks, b.il1.writebacks) << what;
  EXPECT_EQ(a.dl1.writebacks, b.dl1.writebacks) << what;
  ASSERT_EQ(a.levels.size(), b.levels.size()) << what;
  for (std::size_t i = 0; i < a.levels.size(); ++i) {
    EXPECT_EQ(a.levels[i].name, b.levels[i].name) << what;
    EXPECT_EQ(a.levels[i].accesses, b.levels[i].accesses) << what;
    EXPECT_EQ(a.levels[i].hits, b.levels[i].hits) << what;
    EXPECT_EQ(a.levels[i].contention_cycles, b.levels[i].contention_cycles)
        << what;
    EXPECT_EQ(a.levels[i].dynamic_energy_j, b.levels[i].dynamic_energy_j)
        << what;
    EXPECT_EQ(a.levels[i].edc_energy_j, b.levels[i].edc_energy_j) << what;
  }
}

[[nodiscard]] sim::SystemConfig system_config(yield::Scenario scenario,
                                              power::Mode mode,
                                              std::size_t num_cores = 1,
                                              bool with_l2 = false) {
  sim::SystemConfig config;
  config.design.scenario = scenario;
  config.design.proposed = true;
  config.mode = mode;
  config.num_cores = num_cores;
  if (with_l2) {
    config.hierarchy.l2 = sim::L2Spec{};
  }
  return config;
}

/// Reference single-core replay on a fresh System: begin_run, one
/// Core::step per record straight off the capture's vector, finish_run —
/// no TraceSource, no blocks.
[[nodiscard]] cpu::RunResult reference_run(const sim::SystemConfig& config,
                                           const trace::Tracer& tracer) {
  sim::System system(config, sim::cell_plan_for(config.design.scenario));
  cpu::Core& core = system.core();
  core.begin_run();
  cpu::Core::RunState state;
  for (const trace::Record& record : tracer.records()) {
    core.step(record, state);
  }
  return core.finish_run(state);
}

/// Core::run through a block-pulling source must equal the reference.
void expect_run_matches_reference(const sim::SystemConfig& config,
                                  const char* workload, const char* what) {
  const auto captured = wl::find_workload(workload).run(1, 1);
  const cpu::RunResult reference = reference_run(config, captured.tracer);
  trace::MemoryTraceSource source(captured.tracer);
  sim::System system(config, sim::cell_plan_for(config.design.scenario));
  expect_run_identical(reference, system.run_trace(source), what);
}

TEST(SystemReplay, RunTraceMatchesReferenceFig3) {
  // Fig. 3 shape: HP BigBench through the single-core replay loop.
  expect_run_matches_reference(
      system_config(yield::Scenario::kA, power::Mode::kHp), "gsm_c", "fig3");
}

TEST(SystemReplay, RunTraceMatchesReferenceFig4) {
  // Fig. 4 shape: ULE SmallBench (scenario B exercises DECTED at ULE).
  expect_run_matches_reference(
      system_config(yield::Scenario::kB, power::Mode::kUle), "adpcm_c",
      "fig4");
}

TEST(SystemReplay, RunTraceWithL2MatchesReference) {
  expect_run_matches_reference(
      system_config(yield::Scenario::kA, power::Mode::kHp, 1, true), "epic_c",
      "l2");
}

/// Reference multi-core replay on a fresh System: one record per core per
/// round, the start core rotating every round, and the arbiter told the
/// requester before each step and closed after each round. Returns the
/// per-core results (shared levels excluded, as run_mix_sources reports
/// them for N > 1) and leaves the system for shared-level inspection.
[[nodiscard]] std::vector<cpu::RunResult> reference_mix(
    sim::System& system, const std::vector<const trace::Tracer*>& traces) {
  const std::size_t n = system.core_count();
  cache::ArbitratedLevel* const arb = system.arbiter();
  std::vector<cpu::Core::RunState> states(n);
  std::vector<std::size_t> pos(n, 0);
  for (std::size_t c = 0; c < n; ++c) {
    system.core(c).begin_run();
  }
  for (std::size_t start = 0;; start = (start + 1) % n) {
    bool stepped = false;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t c = (start + k) % n;
      const std::vector<trace::Record>& records = traces[c]->records();
      if (pos[c] == records.size()) {
        continue;
      }
      if (arb != nullptr) {
        arb->begin_request(c);
      }
      system.core(c).step(records[pos[c]++], states[c]);
      stepped = true;
    }
    if (!stepped) {
      break;
    }
    if (arb != nullptr) {
      arb->new_round();
    }
  }
  std::vector<cpu::RunResult> per_core;
  for (std::size_t c = 0; c < n; ++c) {
    per_core.push_back(system.core(c).finish_run(states[c], false));
  }
  return per_core;
}

/// run_mix_sources (block refills, round-major stepping, one-live-core
/// tail) against reference_mix on the same two captures. Returns the
/// shared front level's contention cycles.
std::uint64_t expect_mix_matches_reference(const sim::SystemConfig& config,
                                           const char* workload_a,
                                           const char* workload_b,
                                           const char* what) {
  const auto wl_a = wl::find_workload(workload_a).run(1, 1);
  const auto wl_b = wl::find_workload(workload_b).run(1, 1);

  sim::System reference(config, sim::cell_plan_for(config.design.scenario));
  const std::vector<cpu::RunResult> expected =
      reference_mix(reference, {&wl_a.tracer, &wl_b.tracer});

  trace::MemoryTraceSource src_a(wl_a.tracer);
  trace::MemoryTraceSource src_b(wl_b.tracer);
  sim::System system(config, sim::cell_plan_for(config.design.scenario));
  const sim::MulticoreResult mix =
      system.run_mix_sources({&src_a, &src_b}, {workload_a, workload_b});

  EXPECT_NE(wl_a.tracer.records().size(), wl_b.tracer.records().size())
      << what << ": unequal lengths exercise the one-live-core tail";
  EXPECT_EQ(mix.aggregate.instructions,
            expected[0].instructions + expected[1].instructions)
      << what;
  EXPECT_EQ(mix.aggregate.cycles,
            std::max(expected[0].cycles, expected[1].cycles))
      << what;
  [&] {
    ASSERT_EQ(mix.per_core.size(), expected.size()) << what;
    for (std::size_t c = 0; c < expected.size(); ++c) {
      expect_run_identical(expected[c], mix.per_core[c], what);
    }
  }();

  // The shared front level, contention counters included.
  const cache::LevelStats want = reference.arbiter()->level_stats();
  const cache::LevelStats* got = mix.aggregate.level(want.name);
  EXPECT_NE(got, nullptr) << what;
  if (got == nullptr) {
    return 0;
  }
  EXPECT_EQ(got->accesses, want.accesses) << what;
  EXPECT_EQ(got->hits, want.hits) << what;
  EXPECT_EQ(got->contended_requests, want.contended_requests) << what;
  EXPECT_EQ(got->contention_cycles, want.contention_cycles) << what;
  EXPECT_EQ(got->dynamic_energy_j, want.dynamic_energy_j) << what;
  EXPECT_EQ(got->edc_energy_j, want.edc_energy_j) << what;
  EXPECT_EQ(system.arbiter()->arbitration_energy_j(),
            reference.arbiter()->arbitration_energy_j())
      << what;
  return want.contention_cycles;
}

TEST(SystemReplay, RunMixArbiterMatchesReference) {
  // 2 cores contending for the shared memory port through the arbiter:
  // the blocked interleaver must reproduce the reference round order,
  // and with it every contention cycle.
  const std::uint64_t contention = expect_mix_matches_reference(
      system_config(yield::Scenario::kA, power::Mode::kHp, 2, false),
      "gsm_c", "adpcm_c", "arbiter");
  EXPECT_GT(contention, 0u);
}

TEST(SystemReplay, RunMixSharedL2MatchesReference) {
  // 2 cores in front of a shared L2 (arbiter + stateful shared level):
  // the strictest interleaving pin — L2 set state depends on the exact
  // cross-core record order.
  const std::uint64_t contention = expect_mix_matches_reference(
      system_config(yield::Scenario::kA, power::Mode::kHp, 2, true),
      "epic_c", "adpcm_d", "shared-l2");
  EXPECT_GT(contention, 0u);
}

}  // namespace
}  // namespace hvc
