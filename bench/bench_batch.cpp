// BATCH — per-op cost of Cache::access, the one demand path cpu::Core
// drives once per trace record, on four op-stream shapes
// (BM_CacheAccessBatch): the resident uncoded-HP shape is the inline
// probe-key hit in replay steady state, the other shapes price the miss,
// codec and fault tails. End-to-end replay throughput lives in
// bench_trace_replay.
#include "bench_common.hpp"

#include <memory>

#include "hvc/cache/cache.hpp"
#include "hvc/common/rng.hpp"

namespace {

using namespace hvc;
using namespace hvc::bench;

/// Stream/cache shapes, the bench's argument. The streaming
/// shape alone (a ~50% miss mix) would hide the hit probe, so the
/// resident shape keeps every timed op a hit.
enum Shape : std::int64_t {
  kResident = 0,   ///< uncoded HP, working set fits: all-hit fast path
  kStreaming = 1,  ///< uncoded HP, ~2x footprint: miss/evict mix
  kCoded = 2,      ///< SECDED on every way at HP: per-access codec tail
  kFaulty = 3,     ///< ULE with exaggerated Pf, working set = the ULE
                   ///< way: fault-perturbed hits (decoding tag probe)
};

[[nodiscard]] const char* shape_name(std::int64_t shape) {
  switch (shape) {
    case kResident:
      return "resident";
    case kStreaming:
      return "streaming";
    case kCoded:
      return "coded";
    case kFaulty:
      return "faulty";
  }
  return "?";
}

/// Paper-shaped 8KB 7+1 cache for one stream shape.
[[nodiscard]] cache::CacheConfig shape_config(std::int64_t shape) {
  cache::CacheConfig config;
  config.ways.resize(8);
  for (std::size_t w = 0; w < 8; ++w) {
    config.ways[w].cell = {tech::CellKind::k6T, 1.9};
    if (shape == kCoded) {
      config.ways[w].hp_protection = edc::Protection::kSecded;
    }
  }
  config.ways[7].cell = {tech::CellKind::k8T, 2.8};
  config.ways[7].ule_way = true;
  config.ways[7].ule_protection = edc::Protection::kSecded;
  if (shape == kFaulty) {
    config.way_hard_pf.assign(8, 0.0);
    config.way_hard_pf[7] = 3e-3;
  }
  return config;
}

struct Op {
  std::uint64_t addr = 0;
  cache::AccessType type = cache::AccessType::kLoad;
  std::uint32_t store_value = 0;
};

/// Mixed op stream over `footprint` bytes; 1 store per 4 ops, 1 ifetch
/// per 7 (same mix shape as bench_cache_access).
[[nodiscard]] std::vector<Op> op_stream(std::size_t count,
                                        std::size_t footprint) {
  Rng rng(42);
  std::vector<Op> ops(count);
  for (std::size_t i = 0; i < count; ++i) {
    ops[i].addr = (rng.below(footprint) / 4) * 4;
    ops[i].type = (i % 4 == 3)   ? cache::AccessType::kStore
                  : (i % 7 == 0) ? cache::AccessType::kIfetch
                                 : cache::AccessType::kLoad;
    ops[i].store_value = static_cast<std::uint32_t>(i);
  }
  return ops;
}

/// The resident shape keeps the working set at half the cache so that,
/// after one warmup pass, every timed access is an inline-probe hit. The
/// faulty shape runs at ULE, where only the 1 KB ULE way is active, so
/// its working set is that way: it prices hits perturbed by faults
/// rather than the miss path.
[[nodiscard]] std::size_t shape_footprint(std::int64_t shape) {
  switch (shape) {
    case kResident:
      return 4 * 1024;
    case kFaulty:
      return 1024;
    default:
      return 2 * 8 * 1024;
  }
}

/// One cache of `shape`, warmed by one pass over `ops` so the timed
/// loop starts in steady state (the resident shape then only hits).
[[nodiscard]] std::unique_ptr<cache::Cache> warm_cache(
    std::int64_t shape, cache::MemoryLevel& terminal, Rng& rng,
    const std::vector<Op>& ops) {
  auto cache = std::make_unique<cache::Cache>(shape_config(shape), terminal,
                                              rng);
  if (shape == kFaulty) {
    cache->set_mode(power::Mode::kUle);
  }
  for (const Op& op : ops) {
    (void)cache->access(op.addr, op.type, op.store_value);
  }
  return cache;
}

void BM_CacheAccessBatch(benchmark::State& state) {
  const std::int64_t shape = state.range(0);
  cache::MainMemory memory;
  cache::MainMemoryLevel terminal(memory,
                                  shape_config(shape).memory_latency_cycles);
  Rng rng(7);
  const auto ops = op_stream(4096, shape_footprint(shape));
  const auto cache = warm_cache(shape, terminal, rng, ops);
  std::size_t i = 0;
  for (auto _ : state) {
    const Op& op = ops[i];
    benchmark::DoNotOptimize(cache->access(op.addr, op.type, op.store_value));
    i = (i + 1) % ops.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(shape_name(shape));
  state.counters["hit_rate"] = cache->stats().hit_rate();
}
BENCHMARK(BM_CacheAccessBatch)
    ->Arg(kResident)
    ->Arg(kStreaming)
    ->Arg(kCoded)
    ->Arg(kFaulty)
    ->ArgName("shape");

}  // namespace

int main(int argc, char** argv) {
  hvc::bench::print_header(
      "BATCH", "per-op cost of the demand path, Cache::access()");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
