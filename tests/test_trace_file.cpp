// Streaming .hvct trace capture/replay: format round-trip, corruption
// and truncation error paths (including addresses past the 61 bits a
// Record holds), bounded-window reading, the differential
// pin that replaying a recorded trace from disk is bit-identical to the
// in-memory run on 1- and 2-core systems, and the profiled replay
// (hvc_trace replay --profile) matching the plain one.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "hvc/common/error.hpp"
#include "hvc/explore/spec.hpp"
#include "hvc/sim/system.hpp"
#include "hvc/trace/trace.hpp"
#include "hvc/trace/trace_file.hpp"
#include "hvc/workloads/workload.hpp"

namespace hvc::trace {
namespace {

[[nodiscard]] std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "hvc_" + name;
}

/// Records one registry workload into `path`; returns its capture.
wl::WorkloadResult record_workload(const std::string& name,
                                   const std::string& path,
                                   std::uint64_t seed = 1) {
  wl::WorkloadResult result = wl::find_workload(name).run(seed, 1);
  EXPECT_TRUE(result.self_check);
  (void)write_trace(path, result.tracer);
  return result;
}

[[nodiscard]] std::vector<Record> drain(TraceSource& source) {
  std::vector<Record> records;
  Record record;
  while (source.next_batch(&record, 1) == 1) {
    records.push_back(record);
  }
  return records;
}

void expect_same_records(const std::vector<Record>& a,
                         const std::vector<Record>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].kind, b[i].kind) << "record " << i;
    ASSERT_EQ(a[i].taken, b[i].taken) << "record " << i;
    ASSERT_EQ(a[i].addr, b[i].addr) << "record " << i;
  }
}

void expect_same_stats(const TraceStats& a, const TraceStats& b) {
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_EQ(a.stores, b.stores);
  EXPECT_EQ(a.branches, b.branches);
  EXPECT_EQ(a.taken_branches, b.taken_branches);
  EXPECT_EQ(a.data_footprint_bytes, b.data_footprint_bytes);
  EXPECT_EQ(a.code_footprint_bytes, b.code_footprint_bytes);
}

/// Reads the raw bytes of a file (for corruption tests).
[[nodiscard]] std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void patch_u64(std::vector<char>& bytes, std::size_t offset,
               std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    bytes[offset + static_cast<std::size_t>(i)] =
        static_cast<char>(value >> (8 * i));
  }
}

// ---------------------------------------------------------------------
// Round-trip
// ---------------------------------------------------------------------

TEST(TraceFile, RoundTripRecordsAndStats) {
  const std::string path = temp_path("roundtrip.hvct");
  const wl::WorkloadResult workload = record_workload("adpcm_c", path);

  TraceFileSource source(path);
  EXPECT_EQ(source.size_hint(), workload.tracer.records().size());
  const std::vector<Record> from_disk = drain(source);
  expect_same_records(from_disk, workload.tracer.records());
  // The footer stats are exactly Tracer::stats() of the recorded stream.
  expect_same_stats(source.info().stats, workload.tracer.stats());
  // Compact: the whole point of delta/varint encoding.
  EXPECT_LT(source.info().payload_bytes,
            4 * workload.tracer.records().size());
}

TEST(TraceFile, WriterStatsMatchTracerStats) {
  const std::string path = temp_path("writer_stats.hvct");
  const wl::WorkloadResult workload =
      wl::find_workload("epic_c").run(3, 1);
  TraceWriter writer(path);
  for (const Record& record : workload.tracer.records()) {
    writer.append(record);
  }
  writer.finish();
  expect_same_stats(writer.stats(), workload.tracer.stats());
  EXPECT_EQ(writer.records_written(), workload.tracer.records().size());
}

TEST(TraceFile, TinyReadWindowDecodesIdentically) {
  // A 3-byte window forces refills inside varints — the reader must be
  // correct for any window size, not just ones that align with records.
  const std::string path = temp_path("tiny_window.hvct");
  const wl::WorkloadResult workload = record_workload("adpcm_d", path);
  TraceFileSource tiny(path, /*buffer_bytes=*/3);
  expect_same_records(drain(tiny), workload.tracer.records());
}

TEST(TraceFile, ResetReplaysIdentically) {
  const std::string path = temp_path("reset.hvct");
  (void)record_workload("adpcm_c", path);
  TraceFileSource source(path);
  const std::vector<Record> first = drain(source);
  source.reset();
  const std::vector<Record> second = drain(source);
  expect_same_records(first, second);
}

TEST(TraceFile, ReadTraceInfoMatchesSource) {
  const std::string path = temp_path("info.hvct");
  const wl::WorkloadResult workload = record_workload("adpcm_c", path);
  const TraceInfo info = read_trace_info(path);
  EXPECT_EQ(info.version, kTraceFormatVersion);
  EXPECT_EQ(info.flags, 0u);
  EXPECT_EQ(info.records, workload.tracer.records().size());
  expect_same_stats(info.stats, workload.tracer.stats());
  EXPECT_EQ(info.file_bytes,
            kTraceHeaderBytes + info.payload_bytes + kTraceFooterBytes);
}

// ---------------------------------------------------------------------
// Corruption / truncation error paths
// ---------------------------------------------------------------------

class TraceFileErrors : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_path("errors.hvct");
    (void)record_workload("adpcm_c", path_);
    bytes_ = slurp(path_);
  }

  std::string path_;
  std::vector<char> bytes_;
};

TEST_F(TraceFileErrors, MissingFileThrows) {
  EXPECT_THROW(TraceFileSource(temp_path("no_such_file.hvct")), ConfigError);
}

TEST_F(TraceFileErrors, TooShortFileThrows) {
  spit(path_, std::vector<char>(bytes_.begin(), bytes_.begin() + 10));
  EXPECT_THROW(TraceFileSource{path_}, ConfigError);
}

TEST_F(TraceFileErrors, BadMagicThrows) {
  bytes_[0] = 'X';
  spit(path_, bytes_);
  EXPECT_THROW(TraceFileSource{path_}, ConfigError);
}

TEST_F(TraceFileErrors, UnsupportedVersionThrows) {
  bytes_[4] = 99;
  spit(path_, bytes_);
  EXPECT_THROW(TraceFileSource{path_}, ConfigError);
}

TEST_F(TraceFileErrors, NonZeroFlagsThrow) {
  bytes_[6] = 1;
  spit(path_, bytes_);
  EXPECT_THROW(TraceFileSource{path_}, ConfigError);
}

TEST_F(TraceFileErrors, TruncatedFooterThrows) {
  // Chopping the tail removes the footer: an unfinished or cut-off write
  // must never parse as a valid (shorter) trace.
  spit(path_, std::vector<char>(bytes_.begin(), bytes_.end() - 40));
  EXPECT_THROW(TraceFileSource{path_}, ConfigError);
}

TEST_F(TraceFileErrors, ReservedTagBitsThrow) {
  // The first payload byte is always a record tag; its reserved bits
  // must be zero.
  bytes_[kTraceHeaderBytes] = static_cast<char>(0xF8);
  spit(path_, bytes_);
  TraceFileSource source(path_);
  Record record;
  EXPECT_THROW((void)source.next_batch(&record, 1), ConfigError);
}

TEST_F(TraceFileErrors, RecordCountBeyondPayloadThrows) {
  const std::size_t footer = bytes_.size() - kTraceFooterBytes;
  const TraceInfo info = read_trace_info(path_);
  // Claim one more record (and one more instruction, keeping the footer
  // kind-counts consistent): the payload must run dry mid-decode.
  patch_u64(bytes_, footer + 8, info.records + 1);
  patch_u64(bytes_, footer + 16, info.stats.instructions + 1);
  spit(path_, bytes_);
  TraceFileSource source(path_);
  Record record;
  EXPECT_THROW(
      {
        while (source.next_batch(&record, 1) == 1) {
        }
      },
      ConfigError);
}

TEST_F(TraceFileErrors, LeftoverPayloadThrows) {
  const std::size_t footer = bytes_.size() - kTraceFooterBytes;
  const TraceInfo info = read_trace_info(path_);
  patch_u64(bytes_, footer + 8, info.records - 1);
  patch_u64(bytes_, footer + 16, info.stats.instructions - 1);
  spit(path_, bytes_);
  TraceFileSource source(path_);
  Record record;
  EXPECT_THROW(
      {
        while (source.next_batch(&record, 1) == 1) {
        }
      },
      ConfigError);
}

TEST_F(TraceFileErrors, InconsistentFooterCountsThrow) {
  const std::size_t footer = bytes_.size() - kTraceFooterBytes;
  const TraceInfo info = read_trace_info(path_);
  patch_u64(bytes_, footer + 8, info.records + 7);  // stats no longer sum
  spit(path_, bytes_);
  EXPECT_THROW(TraceFileSource{path_}, ConfigError);
}

/// Appends the low `bytes` bytes of `value`, little-endian.
void put_le(std::vector<char>& out, std::uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>(value >> (8 * i)));
  }
}

/// A hand-built .hvct of ifetch records with the given code-address
/// deltas (header, zigzag-varint payload, footer counting them all).
[[nodiscard]] std::vector<char> ifetch_trace(
    const std::vector<std::int64_t>& deltas) {
  std::vector<char> out = {'H', 'V', 'C', 'T'};
  put_le(out, 1, 2);  // version
  put_le(out, 0, 2);  // flags
  put_le(out, 0, 4);  // reserved
  for (const std::int64_t delta : deltas) {
    out.push_back(0);  // tag: ifetch
    std::uint64_t zigzag = (static_cast<std::uint64_t>(delta) << 1) ^
                           static_cast<std::uint64_t>(delta >> 63);
    while (zigzag >= 0x80) {
      out.push_back(static_cast<char>((zigzag & 0x7F) | 0x80));
      zigzag >>= 7;
    }
    out.push_back(static_cast<char>(zigzag));
  }
  out.insert(out.end(), {'H', 'V', 'C', 'F'});
  put_le(out, 0, 4);               // reserved
  put_le(out, deltas.size(), 8);   // record count
  put_le(out, deltas.size(), 8);   // instructions
  for (int i = 0; i < 6; ++i) {    // loads .. code footprint
    put_le(out, 0, 8);
  }
  return out;
}

TEST_F(TraceFileErrors, AddressPastSixtyOneBitsThrows) {
  // The delta chain reaches 2^61 - 4 (the last word a Record holds),
  // then steps to 2^61: decoding must reject it, not truncate it.
  constexpr std::int64_t kTop = (std::int64_t{1} << kRecordAddrBits) - 4;
  spit(path_, ifetch_trace({kTop, 4}));
  TraceFileSource source(path_);
  Record record;
  ASSERT_EQ(source.next_batch(&record, 1), 1u);
  EXPECT_EQ(record.kind, Kind::kIfetch);
  EXPECT_EQ(record.addr, static_cast<std::uint64_t>(kTop));
  EXPECT_THROW((void)source.next_batch(&record, 1), ConfigError);

  // fsck agrees: only the first record is decodable.
  const TraceFsckReport report = fsck_trace(path_);
  EXPECT_EQ(report.status, TraceFsckStatus::kRecoverable);
  EXPECT_EQ(report.records, 1u);
}

// ---------------------------------------------------------------------
// fsck / repair (hostile-input classification and salvage)
// ---------------------------------------------------------------------

class TraceFsck : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_path("fsck.hvct");
    capture_ = record_workload("adpcm_c", path_);
    bytes_ = slurp(path_);
    info_ = read_trace_info(path_);
  }

  std::string path_;
  wl::WorkloadResult capture_;
  std::vector<char> bytes_;
  TraceInfo info_;
};

TEST_F(TraceFsck, CleanFileReportsCleanAndRepairIsANoOp) {
  const TraceFsckReport report = fsck_trace(path_);
  EXPECT_EQ(report.status, TraceFsckStatus::kClean);
  EXPECT_EQ(report.records, info_.records);
  EXPECT_EQ(report.payload_bytes, info_.payload_bytes);
  EXPECT_EQ(report.file_bytes, info_.file_bytes);
  expect_same_stats(report.stats, info_.stats);

  EXPECT_EQ(repair_trace(path_).status, TraceFsckStatus::kClean);
  EXPECT_EQ(slurp(path_), bytes_) << "repair modified a clean file";
}

TEST_F(TraceFsck, TruncatedTailIsRecoverableAndRepairSalvagesThePrefix) {
  // Cut the footer plus a payload tail: the image a killed writer (or a
  // cut-short copy) leaves behind, with the last record likely torn
  // mid-varint. The strict reader must reject it, fsck must classify it,
  // and repair must hand back a file every reader accepts.
  spit(path_, std::vector<char>(
                  bytes_.begin(),
                  bytes_.end() - static_cast<std::ptrdiff_t>(
                                     kTraceFooterBytes + 25)));
  EXPECT_THROW(TraceFileSource{path_}, ConfigError);

  const TraceFsckReport report = fsck_trace(path_);
  EXPECT_EQ(report.status, TraceFsckStatus::kRecoverable);
  EXPECT_GT(report.records, 0u);
  EXPECT_LT(report.records, info_.records);

  const TraceFsckReport repaired = repair_trace(path_);
  EXPECT_EQ(repaired.status, TraceFsckStatus::kClean);
  EXPECT_EQ(repaired.records, report.records);
  EXPECT_EQ(fsck_trace(path_).status, TraceFsckStatus::kClean);

  // The salvaged file replays exactly the first N records of the
  // original capture — same kinds, taken flags and absolute addresses.
  TraceFileSource source(path_);
  const std::vector<Record> kept = drain(source);
  const std::vector<Record>& original = capture_.tracer.records();
  ASSERT_EQ(kept.size(), report.records);
  expect_same_records(
      kept, {original.begin(),
             original.begin() + static_cast<std::ptrdiff_t>(kept.size())});
}

TEST_F(TraceFsck, LyingFooterIsRecoverableAndRepairRestoresTheTruth) {
  // A footer whose counts disagree with the payload (here: record count
  // inflated, so the kind-sum check fails). The payload itself is fully
  // decodable, so repair recomputes the original footer bit-for-bit.
  const std::size_t footer = bytes_.size() - kTraceFooterBytes;
  patch_u64(bytes_, footer + 8, info_.records + 7);
  spit(path_, bytes_);

  const TraceFsckReport report = fsck_trace(path_);
  EXPECT_EQ(report.status, TraceFsckStatus::kRecoverable);
  EXPECT_EQ(report.records, info_.records);

  EXPECT_EQ(repair_trace(path_).status, TraceFsckStatus::kClean);
  const std::vector<char> repaired = slurp(path_);
  patch_u64(bytes_, footer + 8, info_.records);  // undo the lie
  EXPECT_EQ(repaired, bytes_);
}

TEST_F(TraceFsck, BadHeaderIsCorruptAndUnrepairable) {
  bytes_[0] = 'X';
  spit(path_, bytes_);
  EXPECT_EQ(fsck_trace(path_).status, TraceFsckStatus::kCorrupt);
  EXPECT_THROW((void)repair_trace(path_), ConfigError);

  // Sub-header files are corrupt too (there is nothing to classify).
  spit(path_, std::vector<char>(8, 'x'));
  EXPECT_EQ(fsck_trace(path_).status, TraceFsckStatus::kCorrupt);
}

TEST_F(TraceFsck, HeaderOnlyFileRepairsToAValidEmptyTrace) {
  // A writer killed right after creation: 12 header bytes, no payload,
  // no footer. Recoverable with zero records; repair yields a minimal
  // valid trace.
  spit(path_, std::vector<char>(bytes_.begin(),
                                bytes_.begin() + kTraceHeaderBytes));
  const TraceFsckReport report = fsck_trace(path_);
  EXPECT_EQ(report.status, TraceFsckStatus::kRecoverable);
  EXPECT_EQ(report.records, 0u);

  EXPECT_EQ(repair_trace(path_).status, TraceFsckStatus::kClean);
  TraceFileSource source(path_);
  EXPECT_TRUE(drain(source).empty());
}

// ---------------------------------------------------------------------
// Writer durability (injected write failures)
// ---------------------------------------------------------------------

TEST(TraceWriterDurability, EnospcSurfacesAsConfigErrorWithErrnoText) {
  // /dev/full fails every kernel-level write with ENOSPC — the classic
  // full-disk crash. The writer must surface that as ConfigError carrying
  // the errno text, never report success over a torn file.
  if (!std::ifstream("/dev/full").good()) {
    GTEST_SKIP() << "/dev/full not available";
  }
  bool threw = false;
  std::string message;
  try {
    TraceWriter writer("/dev/full");
    Record record;
    record.kind = Kind::kIfetch;
    record.taken = false;
    // Enough records to overflow the writer's window and stdio's buffer,
    // forcing a real write() whatever the buffering; if every layer soaks
    // it up, finish()'s fflush/fsync must still hit the wall.
    for (std::uint64_t i = 0; i < 300000; ++i) {
      record.addr = 0x1000 + 4 * i;
      writer.append(record);
    }
    writer.finish();
  } catch (const ConfigError& error) {
    threw = true;
    message = error.what();
  }
  EXPECT_TRUE(threw) << "full-device write reported success";
  EXPECT_NE(message.find("No space left"), std::string::npos) << message;
}

// ---------------------------------------------------------------------
// Trace reference helpers (explore axis syntax)
// ---------------------------------------------------------------------

TEST(TraceRef, SpecAxesAcceptTraceRefs) {
  // Parse-time validation only checks the syntax — the file is opened
  // when a point runs, so specs can be written before the trace exists.
  const explore::SweepSpec plain = explore::SweepSpec::parse(R"({
    "kind": "simulation",
    "axes": {"workload": ["gsm_c", "trace:/tmp/foreign.hvct"]}
  })");
  ASSERT_EQ(plain.workloads.size(), 2u);
  EXPECT_EQ(plain.workloads[1], "trace:/tmp/foreign.hvct");

  const explore::SweepSpec mix = explore::SweepSpec::parse(R"({
    "kind": "simulation",
    "axes": {"cores": [2], "workload_mix": ["gsm_c+trace:/tmp/a.hvct"]}
  })");
  ASSERT_EQ(mix.workload_mixes.size(), 1u);

  // Unknown plain names and empty refs still fail fast.
  EXPECT_THROW((void)explore::SweepSpec::parse(R"({
    "kind": "simulation", "axes": {"workload": ["nope"]}
  })"),
               ConfigError);
  EXPECT_THROW((void)explore::SweepSpec::parse(R"({
    "kind": "simulation", "axes": {"workload_mix": ["gsm_c+nope"]}
  })"),
               ConfigError);
}

TEST(TraceRef, PrefixParsing) {
  EXPECT_TRUE(is_trace_ref("trace:/tmp/a.hvct"));
  EXPECT_TRUE(is_trace_ref("trace:rel/path.hvct"));
  EXPECT_FALSE(is_trace_ref("trace:"));
  EXPECT_FALSE(is_trace_ref("gsm_c"));
  EXPECT_FALSE(is_trace_ref("tracer:x"));
  EXPECT_EQ(trace_ref_path("trace:/tmp/a.hvct"), "/tmp/a.hvct");
  EXPECT_THROW((void)trace_ref_path("gsm_c"), ConfigError);
  EXPECT_THROW((void)trace_ref_path("trace:"), ConfigError);
}

// ---------------------------------------------------------------------
// Differential pins: disk replay == in-memory replay, bit for bit
// ---------------------------------------------------------------------

/// Every timing field, every energy category, every level stat.
void expect_bit_identical(const cpu::RunResult& a, const cpu::RunResult& b) {
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.seconds, b.seconds);
  const auto& items_a = a.energy.items();
  const auto& items_b = b.energy.items();
  ASSERT_EQ(items_a.size(), items_b.size());
  for (const auto& [key, value] : items_a) {
    EXPECT_EQ(value, b.energy.get(key)) << "category " << key;
  }
  EXPECT_EQ(a.il1.accesses, b.il1.accesses);
  EXPECT_EQ(a.il1.hits, b.il1.hits);
  EXPECT_EQ(a.dl1.accesses, b.dl1.accesses);
  EXPECT_EQ(a.dl1.hits, b.dl1.hits);
  ASSERT_EQ(a.levels.size(), b.levels.size());
  for (std::size_t i = 0; i < a.levels.size(); ++i) {
    EXPECT_EQ(a.levels[i].name, b.levels[i].name);
    EXPECT_EQ(a.levels[i].accesses, b.levels[i].accesses);
    EXPECT_EQ(a.levels[i].hits, b.levels[i].hits);
    EXPECT_EQ(a.levels[i].fills, b.levels[i].fills);
    EXPECT_EQ(a.levels[i].writebacks, b.levels[i].writebacks);
    EXPECT_EQ(a.levels[i].dynamic_energy_j, b.levels[i].dynamic_energy_j);
  }
}

TEST(TraceReplayDifferential, SingleCoreDiskReplayBitIdentical) {
  const std::string path = temp_path("diff_gsm.hvct");
  (void)record_workload("gsm_c", path);

  sim::SystemConfig config;
  const cpu::RunResult live =
      sim::run_one(config, "gsm_c", /*workload_seed=*/1);

  sim::System system(config, sim::cell_plan_for(config.design.scenario));
  TraceFileSource source(path);
  const cpu::RunResult replayed = system.run_trace(source);
  expect_bit_identical(replayed, live);

  // The trace:<path> spelling drives the same replay.
  sim::System by_ref(config, sim::cell_plan_for(config.design.scenario));
  expect_bit_identical(by_ref.run_workload("trace:" + path), live);
}

TEST(TraceReplayDifferential, TwoCoreDiskReplayBitIdentical) {
  // Record each core's trace at the seed run_mix derives for that core,
  // then stream both from disk through the interleaver: the whole
  // MulticoreResult must match the in-memory mix bit for bit.
  const std::string gsm_path = temp_path("diff_mix_gsm.hvct");
  const std::string adpcm_path = temp_path("diff_mix_adpcm.hvct");
  (void)record_workload("gsm_c", gsm_path,
                        sim::System::core_workload_seed(1, 0));
  (void)record_workload("adpcm_c", adpcm_path,
                        sim::System::core_workload_seed(1, 1));

  sim::SystemConfig config;
  config.num_cores = 2;

  sim::System live_system(config,
                          sim::cell_plan_for(config.design.scenario));
  const sim::MulticoreResult live =
      live_system.run_mix({"gsm_c", "adpcm_c"}, /*seed=*/1);

  sim::System replay_system(config,
                            sim::cell_plan_for(config.design.scenario));
  const sim::MulticoreResult replayed = replay_system.run_mix(
      {"trace:" + gsm_path, "trace:" + adpcm_path}, /*seed=*/1);

  ASSERT_EQ(replayed.per_core.size(), live.per_core.size());
  for (std::size_t c = 0; c < live.per_core.size(); ++c) {
    expect_bit_identical(replayed.per_core[c], live.per_core[c]);
  }
  expect_bit_identical(replayed.aggregate, live.aggregate);
}

TEST(TraceReplayDifferential, UleSmallBenchDiskReplayBitIdentical) {
  // Fig. 4 shape: proposed design at ULE over a SmallBench kernel.
  const std::string path = temp_path("diff_ule.hvct");
  (void)record_workload("adpcm_c", path);

  sim::SystemConfig config;
  config.design.proposed = true;
  config.mode = power::Mode::kUle;
  const cpu::RunResult live = sim::run_one(config, "adpcm_c", 1);

  sim::System system(config, sim::cell_plan_for(config.design.scenario));
  TraceFileSource source(path);
  expect_bit_identical(system.run_trace(source), live);
}

TEST(TraceReplayProfile, ProfiledRunMatchesPlainRunFromMemoryAndDisk) {
  // The profile timers sit in the one replay loop; asking for them must
  // not change a single result field, from either kind of source, and
  // the record/block tallies must describe the run exactly.
  const std::string path = temp_path("profile_adpcm.hvct");
  const wl::WorkloadResult workload = record_workload("adpcm_c", path);
  const std::uint64_t records = workload.tracer.records().size();
  const std::uint64_t blocks =
      (records + kReplayBlockRecords - 1) / kReplayBlockRecords;
  ASSERT_GT(blocks, 1u);

  sim::SystemConfig config;
  config.design.scenario = yield::Scenario::kB;
  config.design.proposed = true;
  config.mode = power::Mode::kUle;
  const yield::CacheCellPlan& plan =
      sim::cell_plan_for(config.design.scenario);

  MemoryTraceSource memory(workload.tracer);
  TraceFileSource file(path);
  for (TraceSource* source : {static_cast<TraceSource*>(&memory),
                              static_cast<TraceSource*>(&file)}) {
    sim::System plain(config, plan);
    const cpu::RunResult expected = plain.run_trace(*source);

    sim::System profiled(config, plan);
    cpu::ReplayProfile profile;
    expect_bit_identical(profiled.run_trace(*source, &profile), expected);
    EXPECT_EQ(profile.records, records);
    EXPECT_EQ(profile.blocks, blocks);
    EXPECT_GT(profile.access_s, 0.0);
    EXPECT_GE(profile.decode_s, 0.0);
    EXPECT_GE(profile.retire_s, 0.0);

    // A profile accumulates across runs.
    sim::System again(config, plan);
    expect_bit_identical(again.run_trace(*source, &profile), expected);
    EXPECT_EQ(profile.records, 2 * records);
    EXPECT_EQ(profile.blocks, 2 * blocks);
  }
}

}  // namespace
}  // namespace hvc::trace
