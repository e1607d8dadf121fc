// The store's headline guarantee, tested the hard way: kill the writer
// at every write boundary (deterministically, via FaultInjectingFile)
// and at hundreds of randomized wall-clock points (via fork + SIGKILL),
// then prove that every record committed before the fault survives
// byte-for-byte, nothing uncommitted surfaces, and a resumed writer
// completes the store byte-identically to one that was never killed.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "hvc/common/error.hpp"
#include "hvc/store/file.hpp"
#include "hvc/store/store.hpp"

namespace hvc::store {
namespace {

constexpr std::uint64_t kAppTag = 7;
constexpr std::uint64_t kScriptRecords = 8;

[[nodiscard]] std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "hvc_fault_" + name;
  std::remove(path.c_str());
  return path;
}

[[nodiscard]] std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

[[nodiscard]] Key key_for(std::uint64_t i) {
  return Key{i + 1, (i + 1) * 0x9e3779b97f4a7c15ULL};
}

/// Deterministic, size-varying payloads so torn tails land at different
/// alignments across records.
[[nodiscard]] std::string payload_for(std::uint64_t i) {
  return "record " + std::to_string(i) +
         std::string(static_cast<std::size_t>(3 * i + 1),
                     static_cast<char>('a' + i % 26));
}

/// The scripted writer session the deterministic sweep interrupts:
/// create, commit kScriptRecords records, close cleanly.
struct ScriptOutcome {
  std::size_t committed = 0;  ///< puts that returned before the fault
  bool completed = false;     ///< close() succeeded (no fault fired)
};

ScriptOutcome run_script(const std::string& path, std::uint64_t fail_after,
                         FaultInjectingFile::Mode mode,
                         std::size_t short_bytes) {
  ScriptOutcome outcome;
  try {
    auto file = std::make_unique<FaultInjectingFile>(
        std::make_unique<PosixFile>(path, /*writable=*/true,
                                    /*create=*/true),
        fail_after, mode, short_bytes);
    ResultStore store(std::move(file), path, OpenOptions{.app_tag = kAppTag});
    for (std::uint64_t i = 0; i < kScriptRecords; ++i) {
      const std::string payload = payload_for(i);
      if (store.put(key_for(i), payload.data(), payload.size())) {
        ++outcome.committed;
      }
    }
    store.close();
    outcome.completed = true;
  } catch (const ConfigError&) {
    // The injected fault. Everything after it is the recovery path.
  }
  return outcome;
}

/// Counts the script's mutating operations (the sweep's kill points).
[[nodiscard]] std::uint64_t count_script_ops(const std::string& path) {
  auto file = std::make_unique<FaultInjectingFile>(
      std::make_unique<PosixFile>(path, true, true), /*fail_after=*/0);
  FaultInjectingFile* raw = file.get();
  std::uint64_t ops = 0;
  {
    ResultStore store(std::move(file), path, OpenOptions{.app_tag = kAppTag});
    for (std::uint64_t i = 0; i < kScriptRecords; ++i) {
      const std::string payload = payload_for(i);
      EXPECT_TRUE(store.put(key_for(i), payload.data(), payload.size()));
    }
    store.close();
    ops = raw->mutations_attempted();
  }
  return ops;
}

/// Post-crash invariant check + resume: the recovered store holds
/// exactly the first `committed` records byte-for-byte, nothing else;
/// completing the script and closing makes the file byte-identical to
/// `reference` (a never-interrupted session).
void recover_and_verify(const std::string& path, std::size_t committed,
                        const std::vector<char>& reference) {
  {
    ResultStore store(path, OpenOptions{.recover = true, .app_tag = kAppTag});
    ASSERT_EQ(store.records(), committed);
    for (std::uint64_t i = 0; i < kScriptRecords; ++i) {
      const auto got = store.get(key_for(i));
      if (i < committed) {
        ASSERT_TRUE(got.has_value()) << "lost committed record " << i;
        const std::string want = payload_for(i);
        EXPECT_EQ(*got, std::vector<std::uint8_t>(want.begin(), want.end()))
            << "record " << i;
      } else {
        EXPECT_FALSE(got.has_value())
            << "uncommitted record " << i << " surfaced";
      }
    }
    for (std::uint64_t i = 0; i < kScriptRecords; ++i) {
      const std::string payload = payload_for(i);
      const bool fresh =
          store.put(key_for(i), payload.data(), payload.size());
      EXPECT_EQ(fresh, i >= committed) << "record " << i;
    }
    store.close();
  }
  EXPECT_EQ(slurp(path), reference) << "resumed store differs from an "
                                       "uninterrupted one";
}

// ---------------------------------------------------------------------
// Deterministic sweep over every write boundary
// ---------------------------------------------------------------------

TEST(StoreFault, EveryWriteBoundaryLeavesARecoverableStore) {
  // Uninterrupted reference run: the bytes every recovered-and-resumed
  // store must converge to.
  const std::string ref_path = temp_path("reference.hvcs");
  ASSERT_TRUE(run_script(ref_path, 0, FaultInjectingFile::Mode::kFailCleanly,
                         0)
                  .completed);
  const std::vector<char> reference = slurp(ref_path);

  const std::uint64_t ops = count_script_ops(temp_path("count.hvcs"));
  ASSERT_GE(ops, kScriptRecords * 2) << "script shorter than expected";

  int kill_points = 0;
  for (const auto mode : {FaultInjectingFile::Mode::kFailCleanly,
                          FaultInjectingFile::Mode::kShortWrite}) {
    for (std::uint64_t fail = 1; fail <= ops; ++fail) {
      const std::string path = temp_path(
          "sweep_" + std::to_string(static_cast<int>(mode)) + "_" +
          std::to_string(fail) + ".hvcs");
      // Short-write prefixes vary with the kill point but stay below the
      // 28-byte record-header CRC offset, so a torn header can never
      // masquerade as a committed record.
      const std::size_t short_bytes = (fail * 7) % 13;
      const ScriptOutcome outcome = run_script(path, fail, mode, short_bytes);
      ASSERT_FALSE(outcome.completed)
          << "fault " << fail << " never fired (ops=" << ops << ")";
      ++kill_points;

      // The crash image is never corrupt: at worst a dirty store with a
      // torn tail; at best (fault in close()'s final sync) already clean.
      // The one exception is a fault inside the very first header write,
      // whose sub-header file fsck calls corrupt (nothing was committed;
      // recovery and repair both rebuild it).
      const FsckReport report = ResultStore::fsck(path);
      if (report.file_bytes >= kStoreHeaderBytes) {
        EXPECT_NE(report.status, FsckStatus::kCorrupt)
            << "mode " << static_cast<int>(mode) << " fail " << fail << ": "
            << report.detail;
      } else {
        EXPECT_EQ(outcome.committed, 0u);
      }

      recover_and_verify(path, outcome.committed, reference);
      std::remove(path.c_str());
    }
  }
  // Both modes exercised every mutating op of the session.
  EXPECT_EQ(kill_points, static_cast<int>(2 * ops));
}

TEST(StoreFault, EnospcSurfacesAsConfigErrorWithTheStoreIntact) {
  const std::string path = temp_path("enospc.hvcs");
  auto file = std::make_unique<FaultInjectingFile>(
      std::make_unique<PosixFile>(path, true, true),
      /*fail_after=*/5, FaultInjectingFile::Mode::kFailCleanly);
  ResultStore store(std::move(file), path, OpenOptions{.app_tag = kAppTag});
  const std::string first = payload_for(0);
  ASSERT_TRUE(store.put(key_for(0), first.data(), first.size()));
  // Ops so far: header write (1), header sync (2), payload (3), record
  // header (4). This put's payload write is op 5 — the injected ENOSPC.
  const std::string second = payload_for(1);
  EXPECT_THROW((void)store.put(key_for(1), second.data(), second.size()),
               ConfigError);
  // The failed put did not disturb the committed record in memory...
  EXPECT_TRUE(store.contains(key_for(0)));
  EXPECT_FALSE(store.contains(key_for(1)));
}

// ---------------------------------------------------------------------
// Randomized fork + SIGKILL
// ---------------------------------------------------------------------

/// The child's infinite writer loop: deterministic records forever,
/// writing one byte to `commits_fd` after each commit, until SIGKILL
/// lands somewhere inside a pwrite or between them.
[[noreturn]] void writer_child(const std::string& path, int commits_fd) {
  try {
    ResultStore store(path, OpenOptions{.app_tag = kAppTag});
    for (std::uint64_t i = 0;; ++i) {
      const std::string payload = payload_for(i % 64);
      (void)store.put(key_for(i), payload.data(), payload.size());
      const char committed = 1;
      if (::write(commits_fd, &committed, 1) != 1) {
        ::_exit(4);  // the parent closed the pipe: nothing to test
      }
    }
  } catch (...) {
    ::_exit(3);  // only reachable on a real I/O error, not the kill
  }
}

/// Blocks until `count` commit reports arrived on `fd`; false on EOF or
/// a read error (the child died on its own).
[[nodiscard]] bool await_commits(int fd, std::size_t count) {
  char buffer[64];
  while (count > 0) {
    const ssize_t got =
        ::read(fd, buffer, std::min(count, sizeof buffer));
    if (got < 0 && errno == EINTR) {
      continue;
    }
    if (got <= 0) {
      return false;
    }
    count -= static_cast<std::size_t>(got);
  }
  return true;
}

TEST(StoreFault, RandomizedSigkillNeverLosesACommittedRecord) {
  constexpr int kIterations = 200;
  // Fixed seed: failures reproduce. The randomness only moves the kill
  // point around; correctness must hold wherever it lands. The kill
  // comes a random delay after a random number (at least one) of
  // reported commits, so on a loaded machine it still lands mid-stream,
  // never before the first commit.
  std::mt19937_64 rng(0x5eedULL);
  std::uniform_int_distribution<std::size_t> commits_before_kill(1, 16);
  std::uniform_int_distribution<int> delay_us(0, 300);

  int recovered_with_records = 0;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    const std::string path = temp_path("sigkill.hvcs");
    int commits[2];
    ASSERT_EQ(::pipe(commits), 0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::close(commits[0]);
      writer_child(path, commits[1]);  // never returns
    }
    ::close(commits[1]);
    const std::size_t reported = commits_before_kill(rng);
    const bool reports_arrived = await_commits(commits[0], reported);
    ::usleep(static_cast<useconds_t>(delay_us(rng)));
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    ::close(commits[0]);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(reports_arrived && WIFSIGNALED(status) &&
                WTERMSIG(status) == SIGKILL)
        << "child exited on its own (status " << status
        << ") before reporting " << reported << " commits";

    {
      // Recovery must accept whatever the kill left behind and serve
      // every committed record intact: at least the ones the child
      // reported, and any it committed after them.
      ResultStore store(path,
                        OpenOptions{.recover = true, .app_tag = kAppTag});
      const std::size_t committed = store.records();
      ASSERT_GE(committed, reported)
          << "iteration " << iteration << ": reported commits lost";
      recovered_with_records += committed > 0 ? 1 : 0;
      for (std::uint64_t i = 0; i < committed; ++i) {
        const auto got = store.get(key_for(i));
        ASSERT_TRUE(got.has_value())
            << "iteration " << iteration << ": lost record " << i << " of "
            << committed;
        const std::string want = payload_for(i % 64);
        ASSERT_EQ(*got, std::vector<std::uint8_t>(want.begin(), want.end()))
            << "iteration " << iteration << ": record " << i << " mangled";
      }
      EXPECT_FALSE(store.contains(key_for(committed)));
      // The recovered store is a fully usable writer.
      const std::string extra = "post-recovery";
      EXPECT_TRUE(store.put(Key{~0ULL, ~0ULL}, extra.data(), extra.size()));
      store.close();
    }  // fsck below takes a shared flock; release the writer's first
    EXPECT_EQ(ResultStore::fsck(path).status, FsckStatus::kClean);
    std::remove(path.c_str());
  }
  // Sanity that the harness kills mid-stream, not always instantly: most
  // iterations should have committed at least one record first.
  EXPECT_GT(recovered_with_records, kIterations / 4);
}

}  // namespace
}  // namespace hvc::store
