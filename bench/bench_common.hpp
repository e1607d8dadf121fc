// Shared helpers for the benchmark harnesses.
//
// The bench_fig* binaries regenerate one table/figure of the paper: each
// first prints the reproduced rows/series, then runs google-benchmark
// microbenchmarks of the primitives involved. The other binaries time
// the simulator's hot paths (cache access, replay, store, arbiter).
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "hvc/sim/report.hpp"
#include "hvc/sim/system.hpp"

namespace hvc::bench {

/// Builds the paper's default system config for one design point.
[[nodiscard]] inline sim::SystemConfig paper_system(yield::Scenario scenario,
                                                    bool proposed,
                                                    power::Mode mode) {
  sim::SystemConfig config;
  config.design.scenario = scenario;
  config.design.proposed = proposed;
  config.mode = mode;
  return config;
}

/// Runs one workload on one design point (shared methodology plan).
[[nodiscard]] inline cpu::RunResult run_point(yield::Scenario scenario,
                                              bool proposed, power::Mode mode,
                                              const std::string& workload) {
  return sim::run_one(paper_system(scenario, proposed, mode), workload);
}

inline void print_header(const char* figure, const char* description) {
  std::printf("=====================================================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("=====================================================\n");
}

struct NormalizedRow {
  std::string label;
  sim::EpiBreakdown breakdown;  ///< already normalized to the baseline total
  double cpi = 0.0;
};

/// Prints rows whose breakdown columns are normalized to a baseline total
/// of 1.0 — the exact format of the paper's Fig. 3/4 stacked bars.
inline void print_normalized_rows(const std::vector<NormalizedRow>& rows) {
  std::printf("%-34s %8s %8s %8s %8s %8s %7s\n", "config", "L1.dyn", "L1.leak",
              "EDC", "core+ot", "total", "CPI");
  for (const auto& row : rows) {
    std::printf("%-34s %8.3f %8.3f %8.3f %8.3f %8.3f %7.3f\n",
                row.label.c_str(), row.breakdown.l1_dynamic,
                row.breakdown.l1_leakage, row.breakdown.l1_edc,
                row.breakdown.core_other, row.breakdown.total(), row.cpi);
  }
}

/// Normalizes a run's breakdown against a baseline EPI.
[[nodiscard]] inline NormalizedRow normalized_row(const std::string& label,
                                                  const cpu::RunResult& result,
                                                  double baseline_epi) {
  NormalizedRow row;
  row.label = label;
  row.breakdown = sim::epi_breakdown(result);
  if (baseline_epi > 0.0) {
    row.breakdown /= baseline_epi;
  }
  row.cpi = result.cpi();
  return row;
}

}  // namespace hvc::bench
