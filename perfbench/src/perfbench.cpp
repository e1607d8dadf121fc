// hvc_perfbench — the benchmark's in-process helper. perfbench/run.py
// drives it; every timing here is taken by benchmark code around public
// library calls, never inside the library.
//
//   hvc_perfbench layers --spec FILE --out FILE --spans FILE --csv FILE
//       Traced per-layer pass: repeats the Executor's per-point sequence
//       (cell plan, System build, workload generation, replay) through
//       public calls with one span per layer, alternating point by point
//       with the real Executor::run (1 thread) over the same point,
//       kLayerRepeats times each; the fastest run of each side counts.
//       Checks that the simulated counts equal the Executor's CSV columns.
//   hvc_perfbench store --store FILE --requests FILE --scratch FILE
//                       --out FILE --spans FILE
//       Serve-side layers without a socket: request parse, result key,
//       store get/put/open, row decode, and warm Executor::run with the
//       daemon's pool size.
//   hvc_perfbench client --socket PATH --requests FILE --out FILE
//                        --start-ns T --stop-ns T [--connections C]
//                        [--limit N]
//       Closed-loop daemon client: sends the request lines in turn from
//       start to stop (CLOCK_MONOTONIC ns), reconnecting every
//       kReconnectEvery queries for its first C connections, and records
//       each query's latency and rows.
//   hvc_perfbench calibrate
//       Times a fixed integer loop (run context only).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "hvc/common/error.hpp"
#include "hvc/common/io.hpp"
#include "hvc/common/json.hpp"
#include "hvc/common/socket.hpp"
#include "hvc/explore/engine.hpp"
#include "hvc/explore/executor.hpp"
#include "hvc/explore/point_source.hpp"
#include "hvc/explore/result_store.hpp"
#include "hvc/explore/sink.hpp"
#include "hvc/explore/spec.hpp"
#include "hvc/sim/system.hpp"
#include "hvc/store/store.hpp"
#include "hvc/trace/trace.hpp"
#include "hvc/trace/trace_file.hpp"
#include "hvc/workloads/workload.hpp"
#include "hvc/yield/methodology.hpp"

namespace {

using namespace hvc;

/// Pool size of the benchmark's daemon (`serve --threads` in run.py).
constexpr std::size_t kServeThreads = 1;
/// Queries per connection, like a client that connects per call.
constexpr std::size_t kReconnectEvery = 50;
/// Traced and untraced runs of each point in the layers pass; the fastest
/// of each side is kept, so a slow moment of the host on one side does
/// not skew the pair.
constexpr int kLayerRepeats = 3;

[[nodiscard]] std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span log: spans nest strictly (one thread), so a span's
/// parent is whatever span was open when it began.
class SpanLog {
 public:
  std::size_t begin(const char* name, std::string id = {}) {
    const int parent = open_.empty() ? -1 : static_cast<int>(open_.back());
    spans_.push_back({name, std::move(id), parent, now_ns(), 0});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void end(std::size_t span) {
    spans_[span].end = now_ns();
    open_.pop_back();
  }

  /// Seconds of `name` spans not covered by their child spans.
  [[nodiscard]] double self_s(const std::string& name) const {
    std::vector<std::int64_t> child(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child[static_cast<std::size_t>(span.parent)] += span.end - span.start;
      }
    }
    std::int64_t total = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) {
        total += spans_[i].end - spans_[i].start - child[i];
      }
    }
    return static_cast<double>(total) * 1e-9;
  }
  [[nodiscard]] std::size_t count(const std::string& name) const {
    return static_cast<std::size_t>(
        std::count_if(spans_.begin(), spans_.end(),
                      [&](const Span& s) { return s.name == name; }));
  }
  [[nodiscard]] double duration_s(std::size_t span) const {
    return static_cast<double>(spans_[span].end - spans_[span].start) * 1e-9;
  }

  /// One JSON object per line: name, id, parent index, start, end (ns).
  void write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& span : spans_) {
      Json line;
      line.set("name", Json(span.name));
      line.set("id", Json(span.id));
      line.set("parent", Json(static_cast<double>(span.parent)));
      line.set("start_ns", Json(static_cast<double>(span.start)));
      line.set("end_ns", Json(static_cast<double>(span.end)));
      out << line.dump() << '\n';
    }
  }

 private:
  struct Span {
    std::string name;
    std::string id;
    int parent;
    std::int64_t start;
    std::int64_t end;
  };
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

struct Args {
  std::map<std::string, std::string> values;

  [[nodiscard]] const std::string& get(const std::string& key) const {
    const auto it = values.find(key);
    if (it == values.end()) {
      throw ConfigError("missing --" + key);
    }
    return it->second;
  }
  [[nodiscard]] std::int64_t number(const std::string& key,
                                    std::int64_t fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : std::stoll(it->second);
  }
};

[[nodiscard]] Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      throw ConfigError(std::string("unexpected argument: ") + argv[i]);
    }
    args.values[argv[i] + 2] = argv[i + 1];
  }
  return args;
}

[[nodiscard]] std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  if (lines.empty()) {
    throw ConfigError("no request lines in " + path);
  }
  return lines;
}

[[nodiscard]] std::vector<explore::SweepPoint> all_points(
    const explore::SweepSpec& spec) {
  explore::GridPointSource source(spec);
  std::vector<explore::SweepPoint> points;
  while (!source.done()) {
    source.next_batch(64, points);
  }
  return points;
}

[[nodiscard]] double p50(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values.empty() ? 0.0 : values[values.size() / 2];
}

void write_json(const std::string& path, const Json& json) {
  std::ofstream out(path);
  out << json.dump(2) << '\n';
}

/// The SystemConfig simulate_point() builds for a simulation point.
[[nodiscard]] sim::SystemConfig system_config(const explore::SweepSpec& spec,
                                              const explore::SweepPoint& point) {
  sim::SystemConfig config;
  config.design.scenario = point.scenario;
  config.design.proposed = point.proposed;
  config.mode = point.mode;
  config.hp.vcc = point.hp_vcc;
  config.ule.vcc = point.ule_vcc;
  if (point.l2_design != "none") {
    sim::L2Spec l2;
    l2.org.size_bytes =
        static_cast<std::size_t>(point.l2_size_kb) * std::size_t{1024};
    l2.proposed = point.l2_design == "proposed";
    config.hierarchy.l2 = l2;
  }
  config.num_cores = point.cores;
  config.seed = spec.system_seed ? *spec.system_seed
                                 : Rng::mix64(spec.seed, point.index);
  return config;
}

struct Counts {
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_accesses = 0;
  std::uint64_t contention_cycles = 0;
  std::uint64_t edc_corrections = 0;
};

int cmd_layers(const Args& args) {
  const explore::SweepSpec spec =
      explore::SweepSpec::parse(read_text_file(args.get("spec")));
  expects(spec.kind == explore::SweepKind::kSimulation,
          "layers needs a simulation spec");
  const std::vector<explore::SweepPoint> points = all_points(spec);

  SpanLog log;
  std::map<std::tuple<int, double, double>, yield::CacheCellPlan> plans;
  std::set<std::tuple<std::string, std::uint64_t, std::size_t>> traces;
  std::size_t generations = 0;
  std::uint64_t records = 0;
  Counts total;
  std::size_t mismatches = 0;

  // The untraced reference is the real Executor, run point by point
  // beside the traced sequence so that host drift hits both alike.
  explore::Executor executor(1);
  explore::SweepResult rows;
  const auto untraced = [&](const explore::SweepPoint& point, bool keep) {
    explore::ListPointSource source({point});
    explore::SweepResult one;
    explore::CollectSink sink(&one);
    const std::int64_t start = now_ns();
    (void)executor.run(spec, source, sink);
    const double seconds = static_cast<double>(now_ns() - start) * 1e-9;
    if (keep) {
      rows.columns = one.columns;
      rows.rows.push_back(one.rows.front());
    }
    return seconds;
  };

  // Sums over points of the fastest repetition of each side. The plan is
  // taken from the first repetition, the only one that computes a key.
  double executor_s = 0.0;
  double traced_s = 0.0;
  double glue_s = 0.0;
  double plan_s = 0.0;
  double build_s = 0.0;
  double generate_s = 0.0;
  double replay_s = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const explore::SweepPoint& point = points[i];
    double best_executor = 1e300;
    double best_point = 1e300;
    double best_glue = 0.0;
    double best_build = 0.0;
    double best_generate = 0.0;
    double best_replay = 0.0;
    for (int rep = 0; rep < kLayerRepeats; ++rep) {
      // Alternate the order so neither side always finds warm caches.
      const bool untraced_first = (i + static_cast<std::size_t>(rep)) % 2 == 0;
      if (untraced_first) {
        best_executor = std::min(best_executor, untraced(point, rep == 0));
      }
      const std::size_t point_span =
          log.begin("explore.point", std::to_string(point.index));

      const std::size_t plan_span = log.begin("yield.plan");
      const auto key = std::make_tuple(static_cast<int>(point.scenario),
                                       point.hp_vcc, point.ule_vcc);
      auto plan = plans.find(key);
      if (plan == plans.end()) {
        yield::MethodologyConfig methodology;
        methodology.target_yield = spec.target_yield;
        plan = plans
                   .emplace(key, yield::run_methodology(
                                     point.scenario, point.hp_vcc,
                                     point.ule_vcc, methodology))
                   .first;
      }
      log.end(plan_span);

      const std::size_t build_span = log.begin("sim.build");
      sim::System system(system_config(spec, point), plan->second);
      log.end(build_span);

      // Same generation order and seeds as System::run_workload/run_mix.
      const bool multicore = point.cores > 1 || !point.workload_mix.empty();
      const std::vector<std::string> names =
          multicore ? point.core_workloads()
                    : std::vector<std::string>{point.workload};
      const std::size_t generate_span = log.begin("workloads.generate");
      std::vector<wl::WorkloadResult> runs;
      runs.reserve(system.core_count());
      std::vector<std::string> core_names;
      const std::size_t cores = multicore ? system.core_count() : 1;
      for (std::size_t c = 0; c < cores; ++c) {
        const std::string& name = names[c % names.size()];
        expects(!trace::is_trace_ref(name), "recorded traces are not timed");
        const std::uint64_t seed =
            sim::System::core_workload_seed(spec.workload_seed, c);
        runs.push_back(wl::find_workload(name).run(seed, spec.scale));
        ensure(runs.back().self_check, "workload self-check failed: " + name);
        if (rep == 0) {
          traces.emplace(name, seed, spec.scale);
          ++generations;
          records += runs.back().tracer.records().size();
        }
        core_names.push_back(name);
      }
      log.end(generate_span);

      const std::size_t replay_span = log.begin("sim.replay");
      cpu::RunResult result;
      if (multicore) {
        std::vector<std::unique_ptr<trace::MemoryTraceSource>> owned;
        std::vector<trace::TraceSource*> sources;
        for (const wl::WorkloadResult& run : runs) {
          owned.push_back(
              std::make_unique<trace::MemoryTraceSource>(run.tracer));
          sources.push_back(owned.back().get());
        }
        result = system.run_mix_sources(sources, core_names).aggregate;
      } else {
        result = system.run_trace(runs.front().tracer);
      }
      log.end(replay_span);
      log.end(point_span);
      if (!untraced_first) {
        best_executor = std::min(best_executor, untraced(point, rep == 0));
      }

      const double layers_s =
          log.duration_s(plan_span) + log.duration_s(build_span) +
          log.duration_s(generate_span) + log.duration_s(replay_span);
      if (rep == 0) {
        plan_s += log.duration_s(plan_span);
      }
      if (log.duration_s(point_span) < best_point) {
        best_point = log.duration_s(point_span);
        best_glue = best_point - layers_s;
        best_build = log.duration_s(build_span);
        best_generate = log.duration_s(generate_span);
        best_replay = log.duration_s(replay_span);
      }
      if (rep != 0) {
        continue;
      }

      Counts counts;
      counts.instructions = result.instructions;
      counts.cycles = result.cycles;
      counts.l1_misses = result.il1.misses + result.dl1.misses;
      counts.edc_corrections =
          result.il1.edc_corrections + result.dl1.edc_corrections;
      std::string l2_accesses;
      if (const cache::LevelStats* l2 = result.level("L2")) {
        counts.l2_accesses = l2->accesses;
        counts.edc_corrections += l2->edc_corrections;
        l2_accesses = format_number(l2->accesses);
      }
      for (const cache::LevelStats& level : result.levels) {
        counts.contention_cycles += level.contention_cycles;
      }
      total.instructions += counts.instructions;
      total.cycles += counts.cycles;
      total.l1_misses += counts.l1_misses;
      total.l2_accesses += counts.l2_accesses;
      total.contention_cycles += counts.contention_cycles;
      total.edc_corrections += counts.edc_corrections;

      const std::vector<std::string>& row = rows.rows[i];
      const auto column = [&rows](const char* name) {
        return rows.column(name);
      };
      const std::vector<std::pair<const char*, std::string>> expected = {
          {"instructions", format_number(counts.instructions)},
          {"cycles", format_number(counts.cycles)},
          {"il1_hit_rate", format_number(result.il1.hit_rate())},
          {"dl1_hit_rate", format_number(result.dl1.hit_rate())},
          {"l2_accesses", l2_accesses},
          {"contention_cycles", format_number(counts.contention_cycles)},
          {"edc_corrections", format_number(counts.edc_corrections)},
      };
      for (const auto& [name, value] : expected) {
        if (row[column(name)] != value) {
          ++mismatches;
          std::fprintf(stderr, "point %zu: %s traced %s, executor %s\n",
                       point.index, name, value.c_str(),
                       row[column(name)].c_str());
        }
      }
    }
    executor_s += best_executor;
    traced_s += best_point;
    glue_s += best_glue;
    build_s += best_build;
    generate_s += best_generate;
    replay_s += best_replay;
  }
  log.write(args.get("spans"));
  {
    std::ofstream csv(args.get("csv"), std::ios::binary);
    csv << rows.to_csv();
  }

  Json out;
  out.set("points", Json(points.size()));
  out.set("executor_s", Json(executor_s));
  out.set("traced_s", Json(traced_s));
  out.set("glue_s", Json(glue_s));
  out.set("plan_s", Json(plan_s));
  out.set("plan_keys", Json(plans.size()));
  out.set("build_s", Json(build_s));
  out.set("builds", Json(points.size()));
  out.set("generate_s", Json(generate_s));
  out.set("generations", Json(generations));
  out.set("distinct_traces", Json(traces.size()));
  out.set("records", Json(static_cast<double>(records)));
  out.set("replay_s", Json(replay_s));
  out.set("instructions", Json(static_cast<double>(total.instructions)));
  out.set("cycles", Json(static_cast<double>(total.cycles)));
  out.set("l1_misses", Json(static_cast<double>(total.l1_misses)));
  out.set("l2_accesses", Json(static_cast<double>(total.l2_accesses)));
  out.set("contention_cycles",
          Json(static_cast<double>(total.contention_cycles)));
  out.set("edc_corrections", Json(static_cast<double>(total.edc_corrections)));
  out.set("mismatches", Json(mismatches));
  write_json(args.get("out"), out);
  return mismatches == 0 ? 0 : 1;
}

int cmd_store(const Args& args) {
  const std::string path = args.get("store");
  store::OpenOptions options;
  options.read_only = true;
  options.create = false;
  options.app_tag = explore::result_store_app_tag();

  SpanLog log;
  const std::size_t root = log.begin("bench.store_pass");
  std::vector<double> open_s;
  std::unique_ptr<store::ResultStore> store;
  for (int i = 0; i < 5; ++i) {
    store.reset();
    const std::size_t span = log.begin("store.open");
    store = std::make_unique<store::ResultStore>(path, options);
    log.end(span);
    open_s.push_back(log.duration_s(span));
  }

  std::vector<std::pair<store::Key, std::vector<std::uint8_t>>> payloads;
  std::size_t gets = 0;
  std::size_t hits = 0;
  std::vector<explore::SweepSpec> specs;
  const std::vector<std::string> lines = read_lines(args.get("requests"));
  for (std::size_t q = 0; q < lines.size(); ++q) {
    const std::size_t request = log.begin("serve.request", std::to_string(q));
    std::size_t span = log.begin("common.request_parse");
    const Json json = Json::parse(lines[q]);
    specs.push_back(explore::SweepSpec::from_json(json.at("spec")));
    log.end(span);
    const explore::SweepSpec& spec = specs.back();
    const std::vector<std::string> columns = explore::sweep_columns(spec.kind);
    for (const explore::SweepPoint& point : all_points(spec)) {
      span = log.begin("explore.result_key");
      const store::Key key = explore::result_key(spec, point, columns);
      log.end(span);
      span = log.begin("store.get");
      const auto payload = store->get(key);
      log.end(span);
      ++gets;
      if (!payload) {
        continue;
      }
      ++hits;
      span = log.begin("explore.decode_row");
      const std::vector<std::string> cells =
          explore::decode_row(payload->data(), payload->size());
      log.end(span);
      if (cells.size() + 1 != columns.size()) {
        throw ConfigError("stored row width does not match the schema");
      }
      payloads.emplace_back(key, *payload);
    }
    log.end(request);
  }

  // Warm Executor::run over the same requests, store attached, no socket.
  std::vector<double> warm_ms;
  std::size_t cold = 0;
  {
    explore::Executor executor(kServeThreads);
    for (std::size_t q = 0; q < specs.size(); ++q) {
      explore::GridPointSource source(specs[q]);
      explore::SweepResult rows;
      explore::CollectSink sink(&rows);
      const std::size_t span = log.begin("explore.warm_run", std::to_string(q));
      cold += executor.run(specs[q], source, sink, store.get()).cold;
      log.end(span);
      warm_ms.push_back(log.duration_s(span) * 1e3);
    }
  }
  const std::size_t records = store->records();
  store.reset();

  // Commit cost into a scratch store of the same rows.
  {
    const std::string scratch = args.get("scratch");
    std::remove(scratch.c_str());
    auto sink = explore::open_result_store(scratch, false);
    for (const auto& [key, payload] : payloads) {
      const std::size_t span = log.begin("store.put");
      (void)sink->put(key, payload.data(), payload.size());
      log.end(span);
    }
    sink->close();
    sink.reset();
    std::remove(scratch.c_str());
  }
  log.end(root);
  log.write(args.get("spans"));

  const auto mean_us = [&log](const char* name) {
    const std::size_t n = log.count(name);
    return n == 0 ? 0.0 : log.self_s(name) * 1e6 / static_cast<double>(n);
  };
  Json out;
  out.set("open_s", Json(*std::min_element(open_s.begin(), open_s.end())));
  out.set("records", Json(records));
  out.set("request_parse_us", Json(mean_us("common.request_parse")));
  out.set("result_key_us", Json(mean_us("explore.result_key")));
  out.set("get_us", Json(mean_us("store.get")));
  out.set("decode_row_us", Json(mean_us("explore.decode_row")));
  out.set("put_us", Json(mean_us("store.put")));
  out.set("warm_run_ms", Json(p50(warm_ms)));
  out.set("gets", Json(gets));
  out.set("hits", Json(hits));
  out.set("warm_run_cold", Json(cold));
  write_json(args.get("out"), out);
  return hits == gets && cold == 0 ? 0 : 1;
}

/// One query's outcome, as the client records it.
struct Query {
  std::size_t script = 0;  ///< request line index
  std::int64_t sent = 0;
  std::int64_t first_row = 0;
  std::int64_t ended = 0;
  std::size_t warm = 0;
  std::size_t cold = 0;
  std::uint64_t instructions = 0;  ///< sum of the rows' instructions
  bool ok = false;
};

int cmd_client(const Args& args) {
  const std::string socket_path = args.get("socket");
  const std::vector<std::string> lines = read_lines(args.get("requests"));
  const std::int64_t start = args.number("start-ns", 0);
  const std::int64_t stop = args.number("stop-ns", 0);
  const std::size_t limit = static_cast<std::size_t>(args.number("limit", 0));
  const std::size_t max_connections =
      static_cast<std::size_t>(args.number("connections", 1));

  std::vector<Query> queries;
  std::vector<std::string> failures;
  std::map<std::size_t, std::vector<std::string>> first_rows;
  UnixStream conn;
  std::size_t on_conn = 0;
  std::size_t connections = 0;

  while (now_ns() < start) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (std::size_t i = 0; now_ns() < stop && (limit == 0 || i < limit); ++i) {
    Query query;
    query.script = i % lines.size();
    std::vector<std::string> rows;
    std::string failure;
    if (!conn.valid() || (on_conn == kReconnectEvery &&
                          connections < max_connections)) {
      conn.close();
      on_conn = 0;
      ++connections;
      try {
        conn = UnixStream::connect(socket_path);
      } catch (const std::exception& error) {
        failures.push_back("query " + std::to_string(i) + ": " + error.what());
        queries.push_back(query);
        break;  // nothing listens any more
      }
    }
    try {
      ++on_conn;
      const std::string& line = lines[query.script];
      query.sent = now_ns();
      if (!conn.send_line("{\"id\":" + std::to_string(i) + "," +
                          line.substr(1))) {
        throw ConfigError("daemon hung up on send");
      }
      std::size_t expected = 0;
      std::size_t instructions_col = 0;
      for (std::string event_line;;) {
        if (conn.read_line(event_line) != UnixStream::ReadStatus::kLine) {
          throw ConfigError("daemon hung up mid-query");
        }
        const Json event = Json::parse(event_line);
        const std::string& kind = event.at("event").as_string();
        if (kind == "begin") {
          expected = static_cast<std::size_t>(event.at("points").as_number());
          rows.push_back(event.at("csv_header").as_string());
          const Json::Array& columns = event.at("columns").as_array();
          for (std::size_t c = 0; c < columns.size(); ++c) {
            if (columns[c].as_string() == "instructions") {
              instructions_col = c;
            }
          }
        } else if (kind == "row") {
          if (query.first_row == 0) {
            query.first_row = now_ns();
          }
          rows.push_back(event.at("csv").as_string());
          if (instructions_col != 0) {
            std::size_t pos = 0;
            const std::string& csv = rows.back();
            for (std::size_t c = 0; c < instructions_col; ++c) {
              pos = csv.find(',', pos) + 1;
            }
            query.instructions += std::stoull(csv.substr(pos));
          }
        } else if (kind == "end") {
          query.ended = now_ns();
          query.warm = static_cast<std::size_t>(event.at("warm").as_number());
          query.cold = static_cast<std::size_t>(event.at("cold").as_number());
          if (rows.size() != expected + 1 ||
              query.warm + query.cold != expected) {
            throw ConfigError("short row stream");
          }
          break;
        } else {
          throw ConfigError("error event: " + event_line);
        }
      }
      query.ok = true;
    } catch (const std::exception& error) {
      failure = "query " + std::to_string(i) + ": " + error.what();
      conn.close();
    }
    if (query.ok) {
      const auto [it, inserted] = first_rows.emplace(query.script, rows);
      if (!inserted && it->second != rows) {
        query.ok = false;
        failure = "query " + std::to_string(i) +
                  ": rows differ from the first answer to the same request";
      }
    }
    if (!failure.empty()) {
      failures.push_back(failure);
    }
    queries.push_back(query);
  }
  conn.close();

  // Text output: "q" lines per query, "f" failures, "r" first-answer rows.
  std::ofstream out(args.get("out"));
  for (const Query& q : queries) {
    out << "q " << q.script << ' ' << q.sent << ' ' << q.first_row << ' '
        << q.ended << ' ' << q.warm << ' ' << q.cold << ' ' << q.instructions
        << ' ' << (q.ok ? 1 : 0) << '\n';
  }
  for (const std::string& failure : failures) {
    out << "f " << failure << '\n';
  }
  for (const auto& [script, rows] : first_rows) {
    for (const std::string& row : rows) {
      out << "r " << script << ' ' << row << '\n';
    }
  }
  return 0;
}

int cmd_calibrate() {
  // A fixed integer loop: its time tracks the host's speed at the moment
  // of the run, nothing of the simulator.
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t acc = 0;
  const std::int64_t start = now_ns();
  for (int i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x >> 60;
  }
  const double seconds = static_cast<double>(now_ns() - start) * 1e-9;
  std::printf("%.6f %llu\n", seconds, static_cast<unsigned long long>(acc));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: hvc_perfbench layers|store|client|calibrate ...\n");
    return 2;
  }
  try {
    const std::string command = argv[1];
    if (command == "calibrate") {
      return cmd_calibrate();
    }
    const Args args = parse_args(argc, argv);
    if (command == "layers") {
      return cmd_layers(args);
    }
    if (command == "store") {
      return cmd_store(args);
    }
    if (command == "client") {
      return cmd_client(args);
    }
    std::fprintf(stderr, "unknown command: %s\n", command.c_str());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "hvc_perfbench: %s\n", error.what());
    return 1;
  }
}
