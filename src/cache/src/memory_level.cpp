#include "hvc/cache/memory_level.hpp"

#include <utility>

#include "hvc/cache/memory.hpp"

namespace hvc::cache {

std::string to_string(AccessType type) {
  switch (type) {
    case AccessType::kLoad: return "load";
    case AccessType::kStore: return "store";
    case AccessType::kIfetch: return "ifetch";
  }
  return "?";
}

MainMemoryLevel::MainMemoryLevel(MainMemory& memory,
                                 std::size_t latency_cycles, std::string name)
    : memory_(memory),
      latency_cycles_(latency_cycles),
      name_(std::move(name)) {}

std::size_t MainMemoryLevel::fetch_block(std::uint64_t addr,
                                         std::uint32_t* out,
                                         std::size_t count) {
  memory_.read_block_into(addr, out, count);
  ++fetches_;
  return latency_cycles_;
}

std::size_t MainMemoryLevel::writeback_block(std::uint64_t addr,
                                             const std::uint32_t* words,
                                             std::size_t count) {
  memory_.write_block(addr, words, count);
  ++writebacks_;
  return latency_cycles_;
}

std::uint32_t MainMemoryLevel::load_word(std::uint64_t addr) {
  ++word_reads_;
  return memory_.read_word(addr);
}

std::size_t MainMemoryLevel::store_word(std::uint64_t addr,
                                        std::uint32_t value) {
  memory_.write_word(addr, value);
  ++word_writes_;
  return latency_cycles_;
}

LevelStats MainMemoryLevel::level_stats() const {
  LevelStats out;
  out.name = name_;
  out.accesses = fetches_ + writebacks_ + word_reads_ + word_writes_;
  out.hits = out.accesses;  // memory always hits
  out.fills = fetches_;
  out.writebacks = writebacks_;
  return out;
}

void MainMemoryLevel::clear_level_counters() {
  fetches_ = 0;
  writebacks_ = 0;
  word_reads_ = 0;
  word_writes_ = 0;
}

}  // namespace hvc::cache
