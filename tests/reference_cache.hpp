// Reference model of the hybrid-voltage cache's demand datapath, for
// differential tests.
//
// Deliberately simple: every access divides the address, decodes every
// active way's tag through the fault map and the codec, and looks up
// every energy through the mode's CacheEnergyModel. It shares no code
// with cache::Cache's access path, only the public building blocks both
// are made of: FaultMap (sampled in Cache's init order, so both see the
// same chip), edc::make_codec, power::CacheEnergyModel and make_policy.
// It covers what the twins drive: demand accesses, mode switches, single
// soft flips and scrubs. It decodes every coded word it reads, so it is
// the oracle for the library's skip of clean-word decodes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "hvc/cache/cache.hpp"
#include "hvc/common/bitvec.hpp"
#include "hvc/common/rng.hpp"
#include "hvc/edc/code.hpp"
#include "hvc/power/cache_power.hpp"

namespace hvc::testref {

class ReferenceCache {
 public:
  ReferenceCache(cache::CacheConfig config, cache::MemoryLevel& next_level)
      : config_(std::move(config)), next_level_(&next_level) {
    const power::CacheOrg& org = config_.org;
    hp_model_ = std::make_unique<power::CacheEnergyModel>(org, config_.ways,
                                                          config_.hp);
    ule_model_ = std::make_unique<power::CacheEnergyModel>(org, config_.ways,
                                                           config_.ule);
    const std::size_t sets = org.sets();
    const std::size_t wpl = org.words_per_line();
    policy_ = cache::make_policy(config_.replacement, sets, org.ways,
                                 config_.fault_seed ^ 0x9E37);
    Rng fault_rng(config_.fault_seed);
    ways_.resize(org.ways);
    for (std::size_t w = 0; w < org.ways; ++w) {
      const power::WayPlan& plan = config_.ways[w];
      Way& way = ways_[w];
      way.data_codec_hp = codec_or_null(plan.hp_protection, org.word_bits);
      way.data_codec_ule = codec_or_null(plan.ule_protection, org.word_bits);
      way.tag_codec_hp = codec_or_null(plan.hp_protection, org.tag_bits);
      way.tag_codec_ule = codec_or_null(plan.ule_protection, org.tag_bits);
      const std::size_t check = edc::check_bits_for(plan.stored_protection());
      way.data_cw_bits = org.word_bits + check;
      way.tag_cw_bits = org.tag_bits + check;
      way.lines.resize(sets);
      way.data_words.assign(sets * wpl, 0);
      way.tag_words.assign(sets, 0);
      const double pf =
          config_.way_hard_pf.empty() ? 0.0 : config_.way_hard_pf[w];
      way.data_faults = std::make_unique<cache::FaultMap>(
          sets * wpl * way.data_cw_bits, pf, fault_rng);
      way.tag_faults = std::make_unique<cache::FaultMap>(
          sets * way.tag_cw_bits, pf, fault_rng);
    }
  }

  cache::AccessResult access(std::uint64_t addr, cache::AccessType type,
                             std::uint32_t store_value = 0) {
    cache::AccessResult result;
    ++stats_.accesses;
    switch (type) {
      case cache::AccessType::kLoad: ++stats_.loads; break;
      case cache::AccessType::kStore: ++stats_.stores; break;
      case cache::AccessType::kIfetch: ++stats_.ifetches; break;
    }
    const std::uint64_t line_addr = addr / config_.org.line_bytes;
    const std::size_t set =
        static_cast<std::size_t>(line_addr % config_.org.sets());
    const std::size_t word =
        static_cast<std::size_t>(addr % config_.org.line_bytes) / 4;
    const power::CacheEnergyModel& m = model();

    dynamic_j_ += m.lookup_energy();
    for (std::size_t w = 0; w < config_.org.ways; ++w) {
      if (way_active(w) && tag_codec(w) != nullptr) {
        edc_j_ += m.edc_decode_energy(w);
      }
    }
    result.latency_cycles = config_.hit_latency_cycles +
                            (m.edc_active() ? config_.edc_latency_cycles : 0);

    std::size_t way = find_way(line_addr, set, result);
    if (way != config_.org.ways) {
      result.hit = true;
      ++stats_.hits;
      policy_->touch(set, way);
    } else {
      ++stats_.misses;
      if (type == cache::AccessType::kStore && write_through()) {
        result.latency_cycles += next_level_->store_word(addr, store_value);
        return result;
      }
      way = fill_line(line_addr, set, result);
    }
    result.way = way;
    if (type == cache::AccessType::kStore) {
      write_data_word(way, set, word, store_value);
      dynamic_j_ += m.word_write_energy(way);
      edc_j_ += m.edc_encode_energy(way);
      if (write_through()) {
        (void)next_level_->store_word(addr, store_value);
      } else {
        ways_[way].lines[set].dirty = true;
      }
    } else {
      edc_j_ += m.edc_decode_energy(way);
      const auto value = read_data_word(way, set, word, result);
      result.data = value ? *value : next_level_->load_word(addr);
    }
    return result;
  }

  /// HP->ULE writes back and invalidates the HP ways; both directions
  /// re-encode the retained ULE-way lines for the new mode's protection.
  void set_mode(power::Mode mode) {
    if (mode == mode_) {
      return;
    }
    const std::size_t sets = config_.org.sets();
    const std::size_t wpl = config_.org.words_per_line();
    for (std::size_t w = 0; w < config_.org.ways; ++w) {
      if (mode != power::Mode::kUle || config_.ways[w].ule_way) {
        continue;
      }
      for (std::size_t set = 0; set < sets; ++set) {
        Line& line = ways_[w].lines[set];
        if (line.valid && line.dirty && !write_through()) {
          writeback_line(w, set);
          ++stats_.mode_switch_writebacks;
        }
        line = Line{};
      }
    }
    for (std::size_t w = 0; w < config_.org.ways; ++w) {
      const power::WayPlan& plan = config_.ways[w];
      if (!plan.ule_way || plan.hp_protection == plan.ule_protection) {
        continue;
      }
      for (std::size_t set = 0; set < sets; ++set) {
        Line& line = ways_[w].lines[set];
        if (!line.valid) {
          continue;
        }
        cache::AccessResult scratch;
        std::vector<std::uint32_t> words(wpl, 0);
        bool lost = false;
        for (std::size_t word = 0; word < wpl && !lost; ++word) {
          const auto value = read_data_word(w, set, word, scratch);
          lost = !value;
          words[word] = value.value_or(0);
        }
        const auto old_tag = read_tag(w, set, scratch);
        if (lost || !old_tag) {
          line = Line{};
          continue;
        }
        const power::Mode old_mode = mode_;
        mode_ = mode;  // encode with the new mode's codecs
        write_tag(w, set, *old_tag);
        for (std::size_t word = 0; word < wpl; ++word) {
          write_data_word(w, set, word, words[word]);
        }
        mode_ = old_mode;
        dynamic_j_ += (mode == power::Mode::kHp ? *hp_model_ : *ule_model_)
                          .line_fill_energy(w);
      }
    }
    mode_ = mode;
  }

  /// Flips one stored data bit of (way, set), as Cache::inject_bit_flip.
  void inject_bit_flip(std::size_t way, std::size_t set,
                       std::size_t bit_in_line) {
    Way& target = ways_[way];
    const std::size_t word = bit_in_line / target.data_cw_bits;
    const std::size_t bit = bit_in_line % target.data_cw_bits;
    target.data_words[set * config_.org.words_per_line() + word] ^= 1ULL
                                                                    << bit;
    ++stats_.soft_errors_injected;
  }

  /// Reads and decodes every valid line of the active coded ways and
  /// rewrites the lines that needed a correction; lines with an
  /// uncorrectable word are invalidated (Cache::scrub's contract).
  cache::ScrubReport scrub() {
    cache::ScrubReport report;
    const std::size_t wpl = config_.org.words_per_line();
    const power::CacheEnergyModel& m = model();
    for (std::size_t w = 0; w < config_.org.ways; ++w) {
      if (!way_active(w) || data_codec(w) == nullptr) {
        continue;
      }
      for (std::size_t set = 0; set < config_.org.sets(); ++set) {
        Line& line = ways_[w].lines[set];
        if (!line.valid) {
          continue;
        }
        ++report.lines_scrubbed;
        dynamic_j_ += m.line_read_energy(w) + m.line_fill_energy(w);
        edc_j_ += static_cast<double>(wpl) *
                  (m.edc_decode_energy(w) + m.edc_encode_energy(w));
        cache::AccessResult scratch;
        std::vector<std::uint32_t> words(wpl, 0);
        bool lost = false;
        for (std::size_t word = 0; word < wpl && !lost; ++word) {
          const auto value = read_data_word(w, set, word, scratch);
          lost = !value;
          words[word] = value.value_or(0);
        }
        if (lost) {
          ++report.uncorrectable;
          report.data_loss += line.dirty ? 1 : 0;
          line = Line{};
          continue;
        }
        report.bits_corrected += scratch.corrected_bits;
        if (scratch.corrected_bits > 0) {
          for (std::size_t word = 0; word < wpl; ++word) {
            write_data_word(w, set, word, words[word]);
          }
        }
      }
    }
    return report;
  }

  [[nodiscard]] const cache::CacheStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] double dynamic_energy_j() const noexcept { return dynamic_j_; }
  [[nodiscard]] double edc_energy_j() const noexcept { return edc_j_; }

 private:
  struct Line {
    bool valid = false;
    bool dirty = false;
    std::uint64_t line_addr = 0;
  };

  struct Way {
    std::vector<Line> lines;
    std::vector<std::uint64_t> data_words;
    std::vector<std::uint64_t> tag_words;
    std::size_t data_cw_bits = 0;
    std::size_t tag_cw_bits = 0;
    std::shared_ptr<const edc::Codec> data_codec_hp;
    std::shared_ptr<const edc::Codec> data_codec_ule;
    std::shared_ptr<const edc::Codec> tag_codec_hp;
    std::shared_ptr<const edc::Codec> tag_codec_ule;
    std::unique_ptr<cache::FaultMap> data_faults;
    std::unique_ptr<cache::FaultMap> tag_faults;
  };

  static std::shared_ptr<const edc::Codec> codec_or_null(
      edc::Protection protection, std::size_t bits) {
    return protection == edc::Protection::kNone
               ? nullptr
               : edc::make_codec(protection, bits);
  }

  [[nodiscard]] const power::CacheEnergyModel& model() const noexcept {
    return mode_ == power::Mode::kHp ? *hp_model_ : *ule_model_;
  }
  [[nodiscard]] bool write_through() const noexcept {
    return config_.write_policy ==
           cache::WritePolicy::kWriteThroughNoAllocate;
  }
  [[nodiscard]] bool way_active(std::size_t w) const noexcept {
    return mode_ == power::Mode::kHp || config_.ways[w].ule_way;
  }
  [[nodiscard]] const edc::Codec* data_codec(std::size_t w) const noexcept {
    return mode_ == power::Mode::kHp ? ways_[w].data_codec_hp.get()
                                     : ways_[w].data_codec_ule.get();
  }
  [[nodiscard]] const edc::Codec* tag_codec(std::size_t w) const noexcept {
    return mode_ == power::Mode::kHp ? ways_[w].tag_codec_hp.get()
                                     : ways_[w].tag_codec_ule.get();
  }
  [[nodiscard]] std::uint64_t tag_of(std::uint64_t line_addr) const noexcept {
    return (line_addr / config_.org.sets()) & low_mask(config_.org.tag_bits);
  }

  /// Reads `raw` through the way's fault map (stuck bits show at ULE
  /// only), masks it to the active codeword and decodes it; nullopt when
  /// the codec detects an uncorrectable word.
  std::optional<std::uint64_t> decode(const edc::Codec* codec,
                                      std::size_t data_bits, std::uint64_t raw,
                                      const cache::FaultMap& faults,
                                      std::size_t base, std::size_t cw_bits,
                                      cache::AccessResult& result) {
    if (mode_ == power::Mode::kUle) {
      raw = faults.apply_word(raw, base, cw_bits);
    }
    raw &= low_mask(codec ? codec->codeword_bits() : data_bits);
    if (codec == nullptr) {
      return raw;
    }
    const edc::WordDecodeResult decoded = codec->decode_word(raw);
    if (decoded.status == edc::DecodeStatus::kDetected) {
      ++stats_.edc_detected;
      result.detected_uncorrectable = true;
      return std::nullopt;
    }
    if (decoded.status == edc::DecodeStatus::kCorrected) {
      stats_.edc_corrections += decoded.corrected_bits;
      result.corrected_bits += decoded.corrected_bits;
    }
    return decoded.data;
  }

  std::optional<std::uint64_t> read_tag(std::size_t w, std::size_t set,
                                        cache::AccessResult& result) {
    const Way& way = ways_[w];
    if (!way.lines[set].valid) {
      return std::nullopt;
    }
    return decode(tag_codec(w), config_.org.tag_bits, way.tag_words[set],
                  *way.tag_faults, set * way.tag_cw_bits, way.tag_cw_bits,
                  result);
  }

  std::optional<std::uint32_t> read_data_word(std::size_t w, std::size_t set,
                                              std::size_t word,
                                              cache::AccessResult& result) {
    const Way& way = ways_[w];
    const std::size_t index = set * config_.org.words_per_line() + word;
    const auto value =
        decode(data_codec(w), config_.org.word_bits, way.data_words[index],
               *way.data_faults, index * way.data_cw_bits, way.data_cw_bits,
               result);
    if (!value) {
      return std::nullopt;
    }
    return static_cast<std::uint32_t>(*value);
  }

  void write_data_word(std::size_t w, std::size_t set, std::size_t word,
                       std::uint32_t value) {
    const edc::Codec* codec = data_codec(w);
    const std::uint64_t data = value & low_mask(config_.org.word_bits);
    ways_[w].data_words[set * config_.org.words_per_line() + word] =
        codec ? codec->encode_word(data) : data;
  }

  void write_tag(std::size_t w, std::size_t set, std::uint64_t tag) {
    const edc::Codec* codec = tag_codec(w);
    const std::uint64_t data = tag & low_mask(config_.org.tag_bits);
    ways_[w].tag_words[set] = codec ? codec->encode_word(data) : data;
  }

  std::size_t find_way(std::uint64_t line_addr, std::size_t set,
                       cache::AccessResult& result) {
    for (std::size_t w = 0; w < config_.org.ways; ++w) {
      if (!way_active(w)) {
        continue;
      }
      const auto stored_tag = read_tag(w, set, result);
      if (stored_tag && *stored_tag == tag_of(line_addr) &&
          ways_[w].lines[set].line_addr == line_addr) {
        return w;
      }
    }
    return config_.org.ways;
  }

  void writeback_line(std::size_t w, std::size_t set) {
    Line& line = ways_[w].lines[set];
    const std::size_t wpl = config_.org.words_per_line();
    dynamic_j_ += model().line_read_energy(w);
    edc_j_ += static_cast<double>(wpl) * model().edc_decode_energy(w);
    cache::AccessResult scratch;
    const std::uint64_t base = line.line_addr * config_.org.line_bytes;
    std::vector<std::optional<std::uint32_t>> words(wpl);
    bool all_valid = true;
    std::vector<std::uint32_t> block(wpl, 0);
    for (std::size_t word = 0; word < wpl; ++word) {
      words[word] = read_data_word(w, set, word, scratch);
      all_valid = all_valid && words[word].has_value();
      block[word] = words[word].value_or(0);
    }
    if (all_valid) {
      (void)next_level_->writeback_block(base, block.data(), wpl);
    } else {
      // Unrecoverable words are skipped: the next level keeps its copy.
      for (std::size_t word = 0; word < wpl; ++word) {
        if (words[word]) {
          (void)next_level_->store_word(base + 4 * word, *words[word]);
        }
      }
    }
    line.dirty = false;
    ++stats_.writebacks;
  }

  std::size_t fill_line(std::uint64_t line_addr, std::size_t set,
                        cache::AccessResult& result) {
    std::size_t victim = config_.org.ways;
    std::vector<std::size_t> candidates;
    for (std::size_t w = 0; w < config_.org.ways && victim == config_.org.ways;
         ++w) {
      if (!way_active(w)) {
        continue;
      }
      if (!ways_[w].lines[set].valid) {
        victim = w;
      } else {
        candidates.push_back(w);
      }
    }
    if (victim == config_.org.ways) {
      victim = policy_->victim(set, candidates);
    }
    Line& line = ways_[victim].lines[set];
    if (line.valid && line.dirty && !write_through()) {
      writeback_line(victim, set);
      result.writeback = true;
    }
    const std::size_t wpl = config_.org.words_per_line();
    std::vector<std::uint32_t> words(wpl, 0);
    result.latency_cycles += next_level_->fetch_block(
        line_addr * config_.org.line_bytes, words.data(), wpl);
    line = Line{true, false, line_addr};
    write_tag(victim, set, tag_of(line_addr));
    for (std::size_t word = 0; word < wpl; ++word) {
      write_data_word(victim, set, word, words[word]);
    }
    dynamic_j_ += model().line_fill_energy(victim);
    edc_j_ += static_cast<double>(wpl + 1) * model().edc_encode_energy(victim);
    ++stats_.fills;
    policy_->touch(set, victim);
    return victim;
  }

  cache::CacheConfig config_;
  cache::MemoryLevel* next_level_;
  power::Mode mode_ = power::Mode::kHp;
  std::vector<Way> ways_;
  std::unique_ptr<cache::ReplacementPolicy> policy_;
  std::unique_ptr<power::CacheEnergyModel> hp_model_;
  std::unique_ptr<power::CacheEnergyModel> ule_model_;
  cache::CacheStats stats_;
  double dynamic_j_ = 0.0;
  double edc_j_ = 0.0;
};

}  // namespace hvc::testref
