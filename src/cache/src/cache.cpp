#include "hvc/cache/cache.hpp"

#include <algorithm>
#include <bit>
#include <span>

#include "hvc/common/error.hpp"

namespace hvc::cache {

namespace {
[[nodiscard]] std::shared_ptr<const edc::Codec> codec_or_null(
    edc::Protection protection, std::size_t bits) {
  if (protection == edc::Protection::kNone) {
    return nullptr;
  }
  return edc::make_codec(protection, bits);
}
}  // namespace

Cache::Cache(CacheConfig config, MemoryLevel& next_level, Rng& rng)
    : config_(std::move(config)),
      next_level_(&next_level),
      rng_(rng.fork(0xCACE)) {
  init();
}

void Cache::init() {
  config_.org.validate();
  expects(config_.ways.size() == config_.org.ways,
          "one WayPlan per way required");
  expects(config_.way_hard_pf.empty() ||
              config_.way_hard_pf.size() == config_.org.ways,
          "way_hard_pf must be empty or one entry per way");

  hp_model_ = std::make_unique<power::CacheEnergyModel>(
      config_.org, config_.ways, config_.hp);
  ule_model_ = std::make_unique<power::CacheEnergyModel>(
      config_.org, config_.ways, config_.ule);

  const std::size_t sets = config_.org.sets();
  const std::size_t wpl = config_.org.words_per_line();
  policy_ = make_policy(config_.replacement, sets, config_.org.ways,
                        config_.fault_seed ^ 0x9E37);

  Rng fault_rng(config_.fault_seed);
  ways_.resize(config_.org.ways);
  stored_data_cw_bits_.resize(config_.org.ways);
  stored_tag_cw_bits_.resize(config_.org.ways);
  for (std::size_t w = 0; w < config_.org.ways; ++w) {
    const power::WayPlan& plan = config_.ways[w];
    Way& way = ways_[w];
    way.data_codec_hp = codec_or_null(plan.hp_protection, config_.org.word_bits);
    way.data_codec_ule =
        codec_or_null(plan.ule_protection, config_.org.word_bits);
    way.tag_codec_hp = codec_or_null(plan.hp_protection, config_.org.tag_bits);
    way.tag_codec_ule = codec_or_null(plan.ule_protection, config_.org.tag_bits);

    const std::size_t stored_check =
        edc::check_bits_for(plan.stored_protection());
    stored_data_cw_bits_[w] = config_.org.word_bits + stored_check;
    stored_tag_cw_bits_[w] = config_.org.tag_bits + stored_check;
    expects(stored_data_cw_bits_[w] <= 64 && stored_tag_cw_bits_[w] <= 64,
            "packed line storage requires codewords of <= 64 bits");

    way.lines.resize(sets);
    way.data_words.assign(sets * wpl, 0);
    way.tag_words.assign(sets, 0);

    const double pf =
        config_.way_hard_pf.empty() ? 0.0 : config_.way_hard_pf[w];
    const std::size_t data_cw = stored_data_cw_bits_[w];
    const std::size_t tag_cw = stored_tag_cw_bits_[w];
    const FaultMap data_faults(sets * wpl * data_cw, pf, fault_rng);
    const FaultMap tag_faults(sets * tag_cw, pf, fault_rng);
    way.word_state.assign(sets * wpl, 0);
    if (data_faults.fault_count() != 0) {
      way.data_stuck.resize(sets * wpl);
      for (std::size_t i = 0; i < way.data_stuck.size(); ++i) {
        way.data_stuck[i] = data_faults.stuck_word(i * data_cw, data_cw);
        if (way.data_stuck[i].mask != 0) {
          way.word_state[i] = kWordStuck;
        }
      }
    }
    if (tag_faults.fault_count() != 0) {
      way.tag_stuck.resize(sets);
      for (std::size_t set = 0; set < sets; ++set) {
        way.tag_stuck[set] = tag_faults.stuck_word(set * tag_cw, tag_cw);
      }
    }
  }
  line_buf_.assign(wpl, 0);
  line_word_ok_.assign(wpl, 1);
  victim_candidates_.assign(config_.org.ways, 0);
  probe_keys_.assign(sets * config_.org.ways, kProbeInvalid);
}

bool Cache::way_active(std::size_t w) const noexcept {
  return mode_ == power::Mode::kHp || config_.ways[w].ule_way;
}

const edc::Codec* Cache::data_codec(std::size_t w) const noexcept {
  return mode_ == power::Mode::kHp ? ways_[w].data_codec_hp.get()
                                   : ways_[w].data_codec_ule.get();
}

const edc::Codec* Cache::tag_codec(std::size_t w) const noexcept {
  return mode_ == power::Mode::kHp ? ways_[w].tag_codec_hp.get()
                                   : ways_[w].tag_codec_ule.get();
}

std::uint64_t Cache::tag_of(std::uint64_t line_addr) const noexcept {
  const std::uint64_t tag = line_addr / config_.org.sets();
  return tag & ((1ULL << config_.org.tag_bits) - 1);
}

const power::CacheEnergyModel& Cache::energy_model() const noexcept {
  return mode_ == power::Mode::kHp ? *hp_model_ : *ule_model_;
}

double Cache::total_area_um2() const noexcept {
  return hp_model_->total_area_um2();
}

double Cache::leakage_power() const noexcept {
  return energy_model().leakage_power();
}

double Cache::edc_leakage_power() const noexcept {
  return energy_model().edc_leakage_power();
}

std::size_t Cache::hit_latency() const noexcept {
  return config_.hit_latency_cycles +
         (energy_model().edc_active() ? config_.edc_latency_cycles : 0);
}

bool Cache::line_valid(std::size_t way, std::size_t set) const {
  expects(way < ways_.size(), "way out of range");
  expects(set < config_.org.sets(), "set out of range");
  return ways_[way].lines[set].valid;
}

Breakdown Cache::energy() const {
  Breakdown out;
  out.add("dynamic", energy_j_[kEnergyDynamic]);
  out.add("edc", energy_j_[kEnergyEdc]);
  return out;
}

void Cache::find_way(std::uint64_t line_addr, std::size_t set,
                     AccessResult& result) {
  const std::uint64_t tag = tag_of(line_addr);
  for (std::size_t w = 0; w < config_.org.ways; ++w) {
    if (!way_active(w)) {
      continue;
    }
    const auto stored_tag = read_tag(w, set, result);
    if (stored_tag && *stored_tag == tag &&
        ways_[w].lines[set].line_addr == line_addr) {
      result.hit = true;
      result.way = w;
      return;
    }
  }
}

std::optional<std::uint64_t> Cache::decode(const edc::Codec& codec,
                                           std::uint64_t received,
                                           AccessResult& result) {
  const edc::WordDecodeResult decoded = codec.decode_word(received);
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

std::optional<std::uint64_t> Cache::read_tag(std::size_t w, std::size_t set,
                                             AccessResult& result) {
  const Way& way = ways_[w];
  if (!way.lines[set].valid) {
    return std::nullopt;
  }
  const StuckBits stuck = mode_ == power::Mode::kUle && !way.tag_stuck.empty()
                              ? way.tag_stuck[set]
                              : StuckBits{};
  const std::uint64_t raw = (way.tag_words[set] & ~stuck.mask) | stuck.value;
  const edc::Codec* codec = tag_codec(w);
  // Soft errors never reach tags, so a tag with no stuck bit is clean.
  if (codec == nullptr || stuck.mask == 0) {
    return raw & low_mask(config_.org.tag_bits);
  }
  return decode(*codec, raw & low_mask(codec->codeword_bits()), result);
}

std::optional<std::uint32_t> Cache::read_data_word(std::size_t w,
                                                   std::size_t set,
                                                   std::size_t word,
                                                   AccessResult& result) {
  const Way& way = ways_[w];
  const std::size_t index = data_word_index(set, word);
  const StuckBits stuck =
      mode_ == power::Mode::kUle && !way.data_stuck.empty()
          ? way.data_stuck[index]
          : StuckBits{};
  const std::uint64_t raw =
      (way.data_words[index] & ~stuck.mask) | stuck.value;
  const edc::Codec* codec = data_codec(w);
  if (codec == nullptr ||
      (stuck.mask == 0 && (way.word_state[index] & kWordFlipped) == 0)) {
    return static_cast<std::uint32_t>(raw & low_mask(config_.org.word_bits));
  }
  const auto decoded =
      decode(*codec, raw & low_mask(codec->codeword_bits()), result);
  if (!decoded) {
    return std::nullopt;
  }
  return static_cast<std::uint32_t>(*decoded);
}

void Cache::write_data_word(std::size_t w, std::size_t set, std::size_t word,
                            std::uint32_t value) {
  const edc::Codec* codec = data_codec(w);
  const std::uint64_t data = value & low_mask(config_.org.word_bits);
  const std::size_t index = data_word_index(set, word);
  ways_[w].data_words[index] = codec ? codec->encode_word(data) : data;
  ways_[w].word_state[index] &= ~kWordFlipped;
}

void Cache::write_tag(std::size_t w, std::size_t set, std::uint64_t tag) {
  const edc::Codec* codec = tag_codec(w);
  const std::uint64_t data = tag & low_mask(config_.org.tag_bits);
  ways_[w].tag_words[set] = codec ? codec->encode_word(data) : data;
}

void Cache::writeback_line(std::size_t w, std::size_t set) {
  Line& line = ways_[w].lines[set];
  const std::size_t wpl = config_.org.words_per_line();
  const auto& model = energy_model();
  charge(kEnergyDynamic, model.line_read_energy(w));
  charge(kEnergyEdc, static_cast<double>(wpl) * model.edc_decode_energy(w));
  AccessResult scratch;
  const std::uint64_t base_addr = line.line_addr * config_.org.line_bytes;
  bool all_valid = true;
  for (std::size_t word = 0; word < wpl; ++word) {
    const auto value = read_data_word(w, set, word, scratch);
    // An uncorrectable word during writeback falls back to the (stale)
    // next-level copy; counted via stats_.edc_detected inside
    // read_data_word.
    line_word_ok_[word] = value.has_value();
    line_buf_[word] = value.value_or(0);
    all_valid = all_valid && value.has_value();
  }
  if (all_valid) {
    (void)next_level_->writeback_block(base_addr, line_buf_.data(), wpl);
  } else {
    for (std::size_t word = 0; word < wpl; ++word) {
      if (line_word_ok_[word]) {
        (void)next_level_->store_word(base_addr + 4 * word, line_buf_[word]);
      }
    }
  }
  line.dirty = false;
  ++stats_.writebacks;
}

std::size_t Cache::fill_line(std::uint64_t line_addr, std::size_t set,
                             AccessResult& result,
                             const std::uint32_t* incoming) {
  // Victim selection among active ways: invalid first, then policy.
  std::size_t victim = config_.org.ways;
  std::size_t candidates = 0;
  for (std::size_t w = 0; w < config_.org.ways; ++w) {
    if (!way_active(w)) {
      continue;
    }
    if (!ways_[w].lines[set].valid) {
      victim = w;
      break;
    }
    victim_candidates_[candidates++] = w;
  }
  if (victim == config_.org.ways) {
    ensure(candidates != 0, "no active way available for fill");
    victim = policy_->victim(
        set, std::span<const std::size_t>(victim_candidates_.data(),
                                          candidates));
  }

  Line& line = ways_[victim].lines[set];
  if (line.valid && line.dirty &&
      config_.write_policy == WritePolicy::kWriteBackAllocate) {
    writeback_line(victim, set);
    result.writeback = true;
  }

  const std::size_t wpl = config_.org.words_per_line();
  const std::uint64_t base_addr = line_addr * config_.org.line_bytes;
  const std::uint32_t* words = incoming;
  if (words == nullptr) {
    // The next level reports this request's latency (its hit latency, or
    // its own miss chain) — the terminal level reports the flat memory
    // latency, reproducing the original two-level timing exactly.
    result.latency_cycles +=
        next_level_->fetch_block(base_addr, line_buf_.data(), wpl);
    words = line_buf_.data();
  }
  line.valid = true;
  line.dirty = false;
  line.line_addr = line_addr;
  set_probe_key(victim, set, line_addr);
  write_tag(victim, set, tag_of(line_addr));
  for (std::size_t word = 0; word < wpl; ++word) {
    write_data_word(victim, set, word, words[word]);
  }

  const auto& model = energy_model();
  charge(kEnergyDynamic, model.line_fill_energy(victim));
  charge(kEnergyEdc, static_cast<double>(config_.org.words_per_line() + 1) *
                   model.edc_encode_energy(victim));
  ++stats_.fills;
  policy_->touch(set, victim);
  return victim;
}

void Cache::store_tail(std::size_t w, const Slot& slot, std::uint64_t addr,
                       std::uint32_t value) {
  write_data_word(w, slot.set, slot.word, value);
  const auto& model = energy_model();
  charge(kEnergyDynamic, model.word_write_energy(w));
  charge(kEnergyEdc, model.edc_encode_energy(w));
  if (config_.write_policy == WritePolicy::kWriteThroughNoAllocate) {
    (void)next_level_->store_word(addr, value);
  } else {
    ways_[w].lines[slot.set].dirty = true;
  }
}

void Cache::load_tail(const Slot& slot, std::uint64_t addr,
                      AccessResult& result) {
  const auto value = read_data_word(result.way, slot.set, slot.word, result);
  // Uncorrectable data: fall back to the next level (predictability
  // safety net; never taken with properly sized cells).
  result.data = value ? *value : next_level_->load_word(addr);
}

void Cache::access_miss(std::uint64_t addr, AccessType type,
                        std::uint32_t store_value, const Slot& slot,
                        AccessResult& result) {
  ++stats_.misses;
  if (type == AccessType::kStore &&
      config_.write_policy == WritePolicy::kWriteThroughNoAllocate) {
    result.latency_cycles += next_level_->store_word(addr, store_value);
    return;
  }

  result.way = fill_line(slot.line_addr, slot.set, result);
  if (type == AccessType::kStore) {
    store_tail(result.way, slot, addr, store_value);
    return;
  }
  charge(kEnergyEdc, energy_model().edc_decode_energy(result.way));
  load_tail(slot, addr, result);
}

void Cache::rebuild_mode_ctx() {
  ModeCtx& ctx = mode_ctx_;
  const std::size_t sets = config_.org.sets();
  const auto& model = energy_model();

  ctx.ways = config_.org.ways;
  ctx.sets = sets;
  ctx.wpl = config_.org.words_per_line();
  ctx.line_bytes = config_.org.line_bytes;
  ctx.pow2 = std::has_single_bit(ctx.line_bytes) &&
             std::has_single_bit(static_cast<std::uint64_t>(sets));
  if (ctx.pow2) {
    ctx.line_shift =
        static_cast<unsigned>(std::countr_zero(ctx.line_bytes));
    ctx.set_mask = static_cast<std::uint64_t>(sets) - 1;
  }
  ctx.word_mask = low_mask(config_.org.word_bits);
  ctx.hit_latency = hit_latency();
  ctx.write_through =
      config_.write_policy == WritePolicy::kWriteThroughNoAllocate;
  ctx.lookup_dyn = model.lookup_energy();

  const bool ule = mode_ == power::Mode::kUle;
  ctx.lookup_edc.clear();
  ctx.way.assign(ctx.ways, {});
  for (std::size_t w = 0; w < ctx.ways; ++w) {
    ModeCtx::WayCtx& wc = ctx.way[w];
    // Tag decode on every lookup of every active coded way.
    if (way_active(w) && tag_codec(w) != nullptr) {
      ctx.lookup_edc.push_back(model.edc_decode_energy(w));
    }
    wc.data_words = ways_[w].data_words.data();
    wc.word_state = ways_[w].word_state.data();
    wc.data_codec = data_codec(w);
    // Stuck bits show at ULE only (HP-way cells are sized for negligible
    // Pf at high Vcc).
    wc.raw_load = wc.data_codec == nullptr &&
                  (!ule || ways_[w].data_stuck.empty());
    wc.word_write = model.word_write_energy(w);
    wc.edc_encode = model.edc_encode_energy(w);
    wc.edc_decode = model.edc_decode_energy(w);
  }
  ctx.lru = policy_->touch_seam();
  ctx.mru_way.assign(sets, 0);

  // Tags are stored as exact valid codewords (writes re-encode; soft
  // errors only ever hit data words), so the only thing that can perturb
  // a tag read is the ULE-mode stuck-at map. A set whose stored tag
  // region is fault-free across every active way therefore probes to
  // exactly the find_way outcome with zero codec calls and zero stats
  // traffic.
  ctx.tag_clean.assign(sets, 1);
  if (ule) {
    for (std::size_t set = 0; set < sets; ++set) {
      for (std::size_t w = 0; w < ctx.ways; ++w) {
        if (way_active(w) && !ways_[w].tag_stuck.empty() &&
            ways_[w].tag_stuck[set].mask != 0) {
          ctx.tag_clean[set] = 0;
          break;
        }
      }
    }
  }
}

void Cache::set_mode(power::Mode mode) {
  if (mode == mode_) {
    return;
  }
  const std::size_t wpl = config_.org.words_per_line();

  if (mode == power::Mode::kUle) {
    // HP -> ULE: drain HP ways (gated-Vdd loses their content).
    for (std::size_t w = 0; w < config_.org.ways; ++w) {
      if (config_.ways[w].ule_way) {
        continue;
      }
      for (std::size_t set = 0; set < config_.org.sets(); ++set) {
        Line& line = ways_[w].lines[set];
        if (line.valid && line.dirty &&
            config_.write_policy == WritePolicy::kWriteBackAllocate) {
          writeback_line(w, set);
          ++stats_.mode_switch_writebacks;
        }
        line.valid = false;
        line.dirty = false;
        set_probe_key(w, set, kProbeInvalid);
      }
    }
  }

  // Re-encode retained ULE-way lines for the protection of the new mode
  // (a scrub pass: read+decode with the old code, encode+write with the
  // new one). Uses the old mode's codecs before switching.
  for (std::size_t w = 0; w < config_.org.ways; ++w) {
    if (!config_.ways[w].ule_way) {
      continue;
    }
    if (config_.ways[w].hp_protection == config_.ways[w].ule_protection) {
      continue;  // same codeword layout in both modes
    }
    for (std::size_t set = 0; set < config_.org.sets(); ++set) {
      Line& line = ways_[w].lines[set];
      if (!line.valid) {
        continue;
      }
      AccessResult scratch;
      std::vector<std::uint32_t> words(wpl, 0);
      bool lost = false;
      for (std::size_t word = 0; word < wpl; ++word) {
        const auto value = read_data_word(w, set, word, scratch);
        if (!value) {
          lost = true;
          break;
        }
        words[word] = *value;
      }
      const auto old_tag = read_tag(w, set, scratch);
      if (lost || !old_tag) {
        line.valid = false;
        line.dirty = false;
        set_probe_key(w, set, kProbeInvalid);
        continue;
      }
      const power::Mode old_mode = mode_;
      mode_ = mode;  // encode with the new mode's codec
      write_tag(w, set, *old_tag);
      for (std::size_t word = 0; word < wpl; ++word) {
        write_data_word(w, set, word, words[word]);
      }
      mode_ = old_mode;
      // Scrub energy: one line read + one line fill at the new mode.
      charge(kEnergyDynamic, (mode == power::Mode::kHp ? *hp_model_ : *ule_model_)
                           .line_fill_energy(w));
    }
  }

  mode_ = mode;
  // The mode context caches mode-dependent energy handles, codecs and the
  // tag-clean map; rebuild it lazily on next use.
  mode_ctx_valid_ = false;
}

void Cache::enable_soft_errors(std::size_t way, double rate_per_bit) {
  expects(way < ways_.size(), "way out of range");
  const std::size_t bits = config_.org.sets() * config_.org.words_per_line() *
                           stored_data_cw_bits_[way];
  ways_[way].soft_process =
      std::make_unique<SoftErrorProcess>(bits, rate_per_bit);
}

void Cache::advance_time(double seconds) {
  if (seconds <= 0.0) {
    return;
  }
  for (std::size_t w = 0; w < config_.org.ways; ++w) {
    if (!way_active(w) || ways_[w].soft_process == nullptr) {
      continue;
    }
    const auto flips = ways_[w].soft_process->advance(seconds, rng_);
    for (const auto flip : flips) {
      const std::size_t cw = stored_data_cw_bits_[w];
      const std::size_t word_index = flip / cw;
      const std::size_t bit = flip % cw;
      if (word_index < ways_[w].data_words.size()) {
        ways_[w].data_words[word_index] ^= 1ULL << bit;
        ways_[w].word_state[word_index] |= kWordFlipped;
        ++stats_.soft_errors_injected;
      }
    }
  }
}

void Cache::inject_bit_flip(std::size_t way, std::size_t set,
                            std::size_t bit_in_line) {
  expects(way < ways_.size(), "way out of range");
  expects(set < config_.org.sets(), "set out of range");
  const std::size_t cw = stored_data_cw_bits_[way];
  const std::size_t word = bit_in_line / cw;
  const std::size_t bit = bit_in_line % cw;
  expects(word < config_.org.words_per_line(), "bit_in_line out of range");
  ways_[way].data_words[data_word_index(set, word)] ^= 1ULL << bit;
  ways_[way].word_state[data_word_index(set, word)] |= kWordFlipped;
  ++stats_.soft_errors_injected;
}

Cache::ScrubReport Cache::scrub() {
  ScrubReport report;
  const std::size_t wpl = config_.org.words_per_line();
  const auto& model = energy_model();
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
      charge(kEnergyDynamic, model.line_read_energy(w) + model.line_fill_energy(w));
      charge(kEnergyEdc, static_cast<double>(wpl) * (model.edc_decode_energy(w) +
                                               model.edc_encode_energy(w)));
      AccessResult scratch;
      bool lost = false;
      std::vector<std::uint32_t> words(wpl, 0);
      for (std::size_t word = 0; word < wpl; ++word) {
        const auto value = read_data_word(w, set, word, scratch);
        if (!value) {
          lost = true;
          break;
        }
        words[word] = *value;
      }
      if (lost) {
        ++report.uncorrectable;
        if (line.dirty) {
          ++report.data_loss;
        }
        line.valid = false;
        line.dirty = false;
        set_probe_key(w, set, kProbeInvalid);
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

void Cache::flush() {
  for (std::size_t w = 0; w < config_.org.ways; ++w) {
    for (std::size_t set = 0; set < config_.org.sets(); ++set) {
      Line& line = ways_[w].lines[set];
      if (line.valid && line.dirty) {
        writeback_line(w, set);
      }
    }
  }
}

void Cache::reset() {
  for (auto& way : ways_) {
    for (auto& line : way.lines) {
      line.valid = false;
      line.dirty = false;
    }
  }
  std::fill(probe_keys_.begin(), probe_keys_.end(), kProbeInvalid);
}

// --- MemoryLevel: this cache serving as another cache's next level ---

std::size_t Cache::fetch_block(std::uint64_t addr, std::uint32_t* out,
                               std::size_t count) {
  expects(count > 0 && addr % 4 == 0, "fetch_block: aligned non-empty range");
  ModeCtx& ctx = mode_ctx();
  const Slot slot = ctx.decode(addr);
  expects(ctx.decode(addr + 4 * count - 1).line_addr == slot.line_addr,
          "fetch_block range must lie within one line of this level");
  const std::size_t set = slot.set;
  ++stats_.accesses;
  ++stats_.loads;
  AccessResult scratch = lookup(ctx, slot);
  std::size_t latency = scratch.latency_cycles;
  std::size_t w = scratch.way;
  if (scratch.hit) {
    ++stats_.hits;
    policy_->touch(set, w);
  } else {
    ++stats_.misses;
    scratch.latency_cycles = 0;
    w = fill_line(slot.line_addr, set, scratch);
    latency += scratch.latency_cycles;
  }

  const auto& model = energy_model();
  const std::size_t wpl = ctx.wpl;
  // Reads `count` of the line's `wpl` words: charge the proportional share
  // of a whole-line read (identical to writeback_line when count == wpl).
  charge(kEnergyDynamic,
         model.line_read_energy(w) *
             (static_cast<double>(count) / static_cast<double>(wpl)));
  charge(kEnergyEdc, static_cast<double>(count) * model.edc_decode_energy(w));
  for (std::size_t i = 0; i < count; ++i) {
    const auto value = read_data_word(w, set, slot.word + i, scratch);
    out[i] = value ? *value : next_level_->load_word(addr + 4 * i);
  }
  return latency;
}

std::size_t Cache::writeback_block(std::uint64_t addr,
                                   const std::uint32_t* words,
                                   std::size_t count) {
  expects(count > 0 && addr % 4 == 0,
          "writeback_block: aligned non-empty range");
  ModeCtx& ctx = mode_ctx();
  const Slot slot = ctx.decode(addr);
  expects(ctx.decode(addr + 4 * count - 1).line_addr == slot.line_addr,
          "writeback_block range must lie within one line of this level");
  const std::size_t set = slot.set;
  ++stats_.accesses;
  ++stats_.stores;
  AccessResult scratch = lookup(ctx, slot);
  std::size_t latency = scratch.latency_cycles;
  std::size_t w = scratch.way;

  const bool allocate = !ctx.write_through;
  if (!scratch.hit) {
    ++stats_.misses;
    if (!allocate) {
      // Write-through/no-allocate: pass the block straight down.
      return latency + next_level_->writeback_block(addr, words, count);
    }
    scratch.latency_cycles = 0;
    // A full-line write allocates without fetching from below; a partial
    // write merges into the fetched line.
    const bool full_line = count == ctx.wpl;
    w = fill_line(slot.line_addr, set, scratch, full_line ? words : nullptr);
    latency += scratch.latency_cycles;
    if (full_line) {
      ways_[w].lines[set].dirty = true;
      return latency;  // fill_line wrote (and charged) the whole line
    }
  } else {
    ++stats_.hits;
    policy_->touch(set, w);
  }

  const auto& model = energy_model();
  for (std::size_t i = 0; i < count; ++i) {
    write_data_word(w, set, slot.word + i, words[i]);
  }
  charge(kEnergyDynamic,
         static_cast<double>(count) * model.word_write_energy(w));
  charge(kEnergyEdc, static_cast<double>(count) * model.edc_encode_energy(w));
  if (allocate) {
    ways_[w].lines[set].dirty = true;
  } else {
    // Write-through hit: the line is updated in place and the block also
    // goes below; the store buffer hides that latency.
    (void)next_level_->writeback_block(addr, words, count);
  }
  return latency;
}

std::uint32_t Cache::load_word(std::uint64_t addr) {
  return access(addr, AccessType::kLoad).data;
}

std::size_t Cache::store_word(std::uint64_t addr, std::uint32_t value) {
  return access(addr, AccessType::kStore, value).latency_cycles;
}

LevelStats Cache::level_stats() const {
  LevelStats out;
  out.name = config_.name;
  out.accesses = stats_.accesses;
  out.hits = stats_.hits;
  out.misses = stats_.misses;
  out.fills = stats_.fills;
  out.writebacks = stats_.writebacks;
  out.edc_corrections = stats_.edc_corrections;
  out.edc_detected = stats_.edc_detected;
  out.dynamic_energy_j = dynamic_energy_j();
  out.edc_energy_j = edc_energy_j();
  out.leakage_w = leakage_power();
  out.area_um2 = total_area_um2();
  return out;
}

void Cache::clear_level_counters() {
  clear_stats();
  clear_energy();
}

}  // namespace hvc::cache
