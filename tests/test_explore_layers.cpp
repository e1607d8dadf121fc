// The layered sweep engine's seams: GridPointSource must enumerate the
// documented nested-loop order (reference_points below) at any batch
// size (point index == RNG stream identity, so this is a determinism
// pin, not a style check), ListPointSource preserves given indices, the
// sinks format/tally rows faithfully, and an Executor fed a subset of a
// grid reproduces the matching rows of a full run_sweep byte-for-byte.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hvc/common/error.hpp"
#include "hvc/explore/engine.hpp"
#include "hvc/explore/executor.hpp"
#include "hvc/explore/point_source.hpp"
#include "hvc/explore/sink.hpp"

namespace hvc::explore {
namespace {

// Every normalization rule at once: an l2 axis whose "none" entry
// collapses the size axis, multiple cores, both modes, and a scrub axis.
constexpr const char* kGridSpec = R"({
  "name": "layers",
  "kind": "simulation",
  "seed": 7,
  "axes": {
    "scenario": ["A", "B"],
    "design": ["baseline", "proposed"],
    "l2": ["none", "baseline"],
    "l2_size_kb": [64, 128],
    "mode": ["hp", "ule"],
    "workload": ["adpcm_c", "gsm_c"],
    "scrub_interval_s": [0, 0.5]
  }
})";

constexpr const char* kMixSpec = R"({
  "name": "mixes",
  "kind": "simulation",
  "axes": {
    "scenario": ["A"],
    "design": ["proposed"],
    "cores": [1, 2],
    "mode": ["hp"],
    "workload_mix": ["adpcm_c+gsm_c", "epic_d"]
  }
})";

constexpr const char* kMethodologySpec = R"({
  "name": "methodology",
  "kind": "methodology",
  "axes": {
    "scenario": ["A", "B"],
    "ule_vcc": {"from": 0.3, "to": 0.4, "step": 0.05}
  }
})";

/// Independent reference for the grid order: the documented axis order as
/// one plain nested loop. GridPointSource's odometer (and expand_points,
/// which drains it) must reproduce it point for point.
[[nodiscard]] std::vector<SweepPoint> reference_points(const SweepSpec& spec) {
  std::vector<SweepPoint> points;
  points.reserve(spec.point_count());
  const bool simulation = spec.kind == SweepKind::kSimulation;
  // Single nested loop in the documented order; the degenerate axes of a
  // methodology sweep collapse to one iteration each.
  const std::vector<bool> designs = simulation ? spec.designs
                                               : std::vector<bool>{false};
  const std::vector<std::string> l2_designs =
      simulation ? spec.l2_designs : std::vector<std::string>{"none"};
  const std::vector<double> l2_sizes =
      simulation ? spec.l2_size_kbs : std::vector<double>{64.0};
  const std::vector<std::size_t> cores =
      simulation ? spec.cores : std::vector<std::size_t>{1};
  const std::vector<power::Mode> modes =
      simulation ? spec.modes : std::vector<power::Mode>{power::Mode::kHp};
  // The workload slot iterates over plain names or over per-core mixes,
  // whichever the spec declares.
  const bool mixes = simulation && !spec.workload_mixes.empty();
  const std::vector<std::string> workloads =
      !simulation ? std::vector<std::string>{""}
      : mixes     ? spec.workload_mixes
                  : spec.workloads;
  const std::vector<double> scrubs =
      simulation ? spec.scrub_intervals_s : std::vector<double>{0.0};
  for (const auto scenario : spec.scenarios) {
    for (const bool proposed : designs) {
      for (const auto& l2_design : l2_designs) {
        // The "none" shape has no L2 to size: one point, not one per size.
        const std::size_t size_count =
            l2_design == "none" ? 1 : l2_sizes.size();
        for (std::size_t si = 0; si < size_count; ++si) {
          const double l2_size_kb = l2_sizes[si];
          for (const std::size_t core_count : cores) {
            for (const auto mode : modes) {
              for (const double hp_vcc : spec.hp_vccs) {
                for (const double ule_vcc : spec.ule_vccs) {
                  for (const auto& workload : workloads) {
                    for (const double scrub : scrubs) {
                      SweepPoint point;
                      point.index = points.size();
                      point.scenario = scenario;
                      point.proposed = proposed;
                      point.l2_design = l2_design;
                      point.l2_size_kb = l2_size_kb;
                      point.cores = core_count;
                      point.mode = mode;
                      point.hp_vcc = hp_vcc;
                      point.ule_vcc = ule_vcc;
                      (mixes ? point.workload_mix : point.workload) =
                          workload;
                      point.scrub_interval_s = scrub;
                      points.push_back(std::move(point));
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return points;
}

[[nodiscard]] std::vector<SweepPoint> drain(PointSource& source,
                                            std::size_t batch) {
  std::vector<SweepPoint> points;
  while (source.next_batch(batch, points) > 0) {
  }
  return points;
}

void expect_same_points(const std::vector<SweepPoint>& actual,
                        const std::vector<SweepPoint>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const SweepPoint& a = actual[i];
    const SweepPoint& e = expected[i];
    EXPECT_EQ(a.index, e.index) << "point " << i;
    EXPECT_EQ(a.scenario, e.scenario) << "point " << i;
    EXPECT_EQ(a.proposed, e.proposed) << "point " << i;
    EXPECT_EQ(a.l2_design, e.l2_design) << "point " << i;
    EXPECT_EQ(a.l2_size_kb, e.l2_size_kb) << "point " << i;
    EXPECT_EQ(a.cores, e.cores) << "point " << i;
    EXPECT_EQ(a.mode, e.mode) << "point " << i;
    EXPECT_EQ(a.hp_vcc, e.hp_vcc) << "point " << i;
    EXPECT_EQ(a.ule_vcc, e.ule_vcc) << "point " << i;
    EXPECT_EQ(a.workload, e.workload) << "point " << i;
    EXPECT_EQ(a.workload_mix, e.workload_mix) << "point " << i;
    EXPECT_EQ(a.scrub_interval_s, e.scrub_interval_s) << "point " << i;
  }
}

TEST(GridPointSourceTest, MatchesReferenceLoopAtEveryBatchSize) {
  for (const char* text : {kGridSpec, kMixSpec, kMethodologySpec}) {
    const SweepSpec spec = SweepSpec::parse(text);
    const std::vector<SweepPoint> expected = reference_points(spec);
    expect_same_points(expand_points(spec), expected);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{3},
                                    std::size_t{7}, std::size_t{1000}}) {
      GridPointSource source(spec);
      EXPECT_EQ(source.estimated_remaining(), expected.size());
      EXPECT_FALSE(source.done());
      expect_same_points(drain(source, batch), expected);
      EXPECT_TRUE(source.done());
      EXPECT_EQ(source.estimated_remaining(), 0u);
      // An exhausted source stays exhausted.
      std::vector<SweepPoint> extra;
      EXPECT_EQ(source.next_batch(batch, extra), 0u);
    }
  }
}

TEST(GridPointSourceTest, L2NoneCollapsesTheSizeAxis) {
  const SweepSpec spec = SweepSpec::parse(kGridSpec);
  // l2="none" contributes 1 (not 2) size variants, so the lazy count and
  // the reference loop must both see the collapse.
  GridPointSource source(spec);
  EXPECT_EQ(source.estimated_remaining(), spec.point_count());
  EXPECT_EQ(source.estimated_remaining(), reference_points(spec).size());
}

TEST(GridPointSourceTest, CountMatchesAcrossPartialDrain) {
  const SweepSpec spec = SweepSpec::parse(kGridSpec);
  GridPointSource source(spec);
  const std::size_t total = source.estimated_remaining();
  std::vector<SweepPoint> points;
  ASSERT_EQ(source.next_batch(5, points), 5u);
  EXPECT_EQ(source.estimated_remaining(), total - 5);
  // next_batch appends without clearing.
  ASSERT_EQ(source.next_batch(5, points), 5u);
  EXPECT_EQ(points.size(), 10u);
  EXPECT_EQ(points[7].index, 7u);
}

TEST(ListPointSourceTest, PreservesGivenIndicesAndOrder) {
  const SweepSpec spec = SweepSpec::parse(kGridSpec);
  const std::vector<SweepPoint> all = expand_points(spec);
  // A non-contiguous subset, deliberately out of grid order.
  std::vector<SweepPoint> subset{all[9], all[2], all[31]};
  ListPointSource source(subset);
  EXPECT_EQ(source.estimated_remaining(), 3u);
  const std::vector<SweepPoint> drained = drain(source, 2);
  expect_same_points(drained, subset);
  EXPECT_EQ(drained[0].index, 9u);
  EXPECT_EQ(drained[1].index, 2u);
  EXPECT_EQ(drained[2].index, 31u);
}

TEST(SinkTest, CsvSinkMatchesSweepResultToCsv) {
  const SweepSpec spec = SweepSpec::parse(kMethodologySpec);
  const SweepResult reference = run_sweep(spec, 1);

  std::string csv;
  CsvSink sink(&csv);
  sink.begin(spec, reference.columns);
  for (std::size_t i = 0; i < reference.rows.size(); ++i) {
    sink.row(i, SweepPoint{}, reference.rows[i], false);
  }
  sink.end();
  EXPECT_EQ(csv, reference.to_csv());
}

TEST(SinkTest, JsonSinkMatchesSweepResultToJson) {
  const SweepSpec spec = SweepSpec::parse(kMethodologySpec);
  const SweepResult reference = run_sweep(spec, 1);

  Json json;
  JsonSink sink(&json);
  sink.begin(spec, reference.columns);
  for (std::size_t i = 0; i < reference.rows.size(); ++i) {
    sink.row(i, SweepPoint{}, reference.rows[i], false);
  }
  sink.end();
  EXPECT_EQ(json.dump(2), reference.to_json().dump(2));
}

TEST(SinkTest, TeeFansOutInOrderAndIgnoresNull) {
  const SweepSpec spec = SweepSpec::parse(kMethodologySpec);
  const SweepResult reference = run_sweep(spec, 1);

  std::string csv;
  CsvSink csv_sink(&csv);
  SweepResult collected;
  CollectSink collect(&collected);
  TeeSink tee;
  tee.add(&csv_sink);
  tee.add(nullptr);  // optional sinks compose without branching
  tee.add(&collect);

  tee.begin(spec, reference.columns);
  for (std::size_t i = 0; i < reference.rows.size(); ++i) {
    tee.row(i, SweepPoint{}, reference.rows[i], i % 2 == 0);
  }
  tee.end();

  EXPECT_EQ(csv, reference.to_csv());
  EXPECT_EQ(collected.rows, reference.rows);
  EXPECT_EQ(collected.warm_points + collected.cold_points,
            reference.rows.size());
}

TEST(ExecutorTest, SubsetViaListSourceReproducesFullSweepRows) {
  // The executor must derive each point's randomness from its index, not
  // its arrival order: replaying points {5, 0, 11} through a list source
  // must reproduce exactly rows 5, 0, 11 of the full sweep.
  const SweepSpec spec = SweepSpec::parse(R"({
    "name": "subset",
    "kind": "simulation",
    "seed": 13,
    "axes": {
      "scenario": ["A"],
      "design": ["baseline", "proposed"],
      "mode": ["hp", "ule"],
      "workload": ["adpcm_c", "gsm_c", "epic_d"]
    }
  })");
  const SweepResult full = run_sweep(spec, 4);
  const std::vector<SweepPoint> all = expand_points(spec);
  ASSERT_EQ(all.size(), 12u);

  ListPointSource source({all[5], all[0], all[11]});
  Executor executor(2);
  SweepResult subset;
  CollectSink collect(&subset);
  const ExecStats stats = executor.run(spec, source, collect);
  EXPECT_EQ(stats.points, 3u);
  ASSERT_EQ(subset.rows.size(), 3u);
  EXPECT_EQ(subset.rows[0], full.rows[5]);
  EXPECT_EQ(subset.rows[1], full.rows[0]);
  EXPECT_EQ(subset.rows[2], full.rows[11]);
}

TEST(ExecutorTest, CancelledExecutorRefusesNewRuns) {
  const SweepSpec spec = SweepSpec::parse(kMethodologySpec);
  Executor executor(1);
  executor.cancel();
  GridPointSource source(spec);
  SweepResult result;
  CollectSink collect(&result);
  EXPECT_THROW(executor.run(spec, source, collect), SweepCancelled);
}

TEST(ExecutorTest, SweepColumnsMatchRunSweep) {
  const SweepSpec sim = SweepSpec::parse(kMixSpec);
  EXPECT_EQ(sweep_columns(SweepKind::kSimulation),
            run_sweep(sim, 1).columns);
  const SweepSpec meth = SweepSpec::parse(kMethodologySpec);
  EXPECT_EQ(sweep_columns(SweepKind::kMethodology),
            run_sweep(meth, 1).columns);
}

}  // namespace
}  // namespace hvc::explore
