// Bit-accurate hybrid-voltage set-associative cache simulator.
//
// This is the paper's proposed architecture (Figure 1) as an executable
// model: heterogeneous ways (6T HP ways, 8T/10T ULE ways), per-mode EDC
// (none/SECDED/DECTED) on 32-bit data words and 26-bit tags, gated-Vdd way
// shutdown at ULE mode, and bit-level hard/soft fault injection so the EDC
// datapath is exercised end to end.
//
// Every tag and data word is stored as its real codeword bits. A read
// applies the stuck bits under that codeword (ULE mode only; sampled once
// per chip into a per-codeword mask and value), decodes the result and
// reports corrections; a detected-uncorrectable tag forces a miss, a
// detected-uncorrectable data word falls back to memory (counted — with
// properly sized cells this must never happen, which is the paper's
// predictability argument).
//
// A clean coded word skips its decode, exactly. A stored word is clean
// when no stuck bit lies under it and (for data words) no soft flip has
// hit it since it was last written. Such a word is the codeword
// write_data_word/write_tag stored with this mode's codec: every coded
// write goes through them (fill, store, writeback_block, scrub rewrite,
// set_mode re-encode), and set_mode re-encodes every retained line whose
// code changes. A valid codeword has a zero syndrome, so its decode is
// {kClean, data bits, 0 corrected} (edc::make_codec), which is what the
// skip returns. Decoding charges no energy (callers charge edc_decode
// before they read), so the FP adds are the same; the detected, refetch
// and re-encode outcomes need a nonzero syndrome, which only a stuck or
// flipped word can have, and those keep the full decode.
// tests/reference_cache.hpp decodes every word and pins the skip in
// tests/test_batch.cpp.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hvc/cache/fault.hpp"
#include "hvc/cache/memory.hpp"
#include "hvc/cache/memory_level.hpp"
#include "hvc/cache/replacement.hpp"
#include "hvc/common/rng.hpp"
#include "hvc/common/stats.hpp"
#include "hvc/power/cache_power.hpp"

namespace hvc::cache {

// AccessType / AccessResult live in memory_level.hpp (the shared latency
// contract of every hierarchy level).

enum class WritePolicy { kWriteBackAllocate, kWriteThroughNoAllocate };

/// Static configuration of one cache instance.
struct CacheConfig {
  std::string name = "L1";
  power::CacheOrg org;
  std::vector<power::WayPlan> ways;
  WritePolicy write_policy = WritePolicy::kWriteBackAllocate;
  ReplacementKind replacement = ReplacementKind::kLru;
  std::size_t hit_latency_cycles = 1;
  std::size_t memory_latency_cycles = 20;  // paper IV-A
  /// Extra encode/decode pipeline latency when EDC is active (paper IV-A3:
  /// one clock cycle).
  std::size_t edc_latency_cycles = 1;
  /// Operating points for the two modes (paper IV-A2).
  power::OperatingPoint hp{power::Mode::kHp, 1.0, 1e9};
  power::OperatingPoint ule{power::Mode::kUle, 0.35, 5e6};
  /// Per-bit hard fault probability for each way's arrays, evaluated at
  /// the worst voltage the way must operate at. Empty = fault-free.
  std::vector<double> way_hard_pf;
  std::uint64_t fault_seed = 12345;
};

/// Event counters.
struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t ifetches = 0;
  std::uint64_t fills = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t edc_corrections = 0;
  std::uint64_t edc_detected = 0;
  std::uint64_t mode_switch_writebacks = 0;
  std::uint64_t soft_errors_injected = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    return accesses == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(accesses);
  }
};

class Cache : public MemoryLevel {
 public:
  /// Builds a cache that misses into an arbitrary next level (another
  /// Cache, or a MainMemoryLevel terminal). The next level must outlive
  /// this cache. `config.memory_latency_cycles` is ignored on this path:
  /// miss latency is whatever the next level reports per request.
  Cache(CacheConfig config, MemoryLevel& next_level, Rng& rng);

  /// Performs one demand access at the current mode: the cache's one
  /// demand path, which cpu::Core drives once per trace record.
  /// Functionally exact: loads return the value the program would see
  /// (tag decode, data decode, fill, write-back). Plain hits and loads of
  /// clean coded words resolve inline over a per-mode context; coded
  /// stores, write-through hits, loads of stuck or flipped words and
  /// misses leave through out-of-line tails. tests/test_batch.cpp pins
  /// every stat, energy add and per-op result against a simple reference
  /// cache.
  AccessResult access(std::uint64_t addr, AccessType type,
                      std::uint32_t store_value = 0);

  /// Switches operating mode. HP->ULE writes back dirty HP-way lines and
  /// invalidates them (gated-Vdd loses content); ULE->HP keeps ULE ways.
  void set_mode(power::Mode mode) override;
  [[nodiscard]] power::Mode mode() const noexcept { return mode_; }

  /// Arms Poisson soft-error injection on one way's data array with the
  /// given per-bit rate (errors/second); see tech::soft_error_rate_per_bit.
  void enable_soft_errors(std::size_t way, double rate_per_bit);

  /// Injects Poisson soft errors for `seconds` of wall-clock time into all
  /// powered arrays.
  void advance_time(double seconds);

  /// Explicit single soft-error injection (tests / fault-injection demos):
  /// flips a stored bit of the given way/set.
  void inject_bit_flip(std::size_t way, std::size_t set, std::size_t bit_in_line);

  /// Scrub pass: reads, decodes, re-encodes and rewrites every valid line
  /// of the powered ways, clearing accumulated correctable soft errors
  /// before a second strike makes them uncorrectable. Returns the number
  /// of corrected bits. Lines that are already uncorrectable are
  /// invalidated (clean) or refetched conceptually by the next miss;
  /// dirty uncorrectable lines count as data loss in `scrub_data_loss`.
  /// (ScrubReport lives at namespace scope so every MemoryLevel shares it;
  /// the nested name is kept for existing callers.)
  using ScrubReport = cache::ScrubReport;
  ScrubReport scrub() override;

  /// Writes back every dirty line (used at simulation end). Flushes this
  /// level only; sim::System drains a hierarchy top-down (L1s, then L2).
  void flush() override;

  /// Invalidate everything without writeback (power-on state).
  void reset() override;

  // --- MemoryLevel: serving as another cache's next level ---
  [[nodiscard]] const std::string& level_name() const noexcept override {
    return config_.name;
  }
  /// One logical read access of this level covering `count` words of one
  /// line (an upper level's fill). Counts as a single load access.
  std::size_t fetch_block(std::uint64_t addr, std::uint32_t* out,
                          std::size_t count) override;
  /// One logical write access covering `count` words of one line (an upper
  /// level's dirty write-back). Write-allocates on a miss; a full-line
  /// write allocates without fetching from below.
  std::size_t writeback_block(std::uint64_t addr, const std::uint32_t* words,
                              std::size_t count) override;
  [[nodiscard]] std::uint32_t load_word(std::uint64_t addr) override;
  std::size_t store_word(std::uint64_t addr, std::uint32_t value) override;
  [[nodiscard]] LevelStats level_stats() const override;
  void clear_level_counters() override;

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  void clear_stats() noexcept { stats_ = CacheStats{}; }

  /// Accumulated dynamic/EDC energy in joules since the last clear, as a
  /// named breakdown for reports. The per-access hot path charges plain
  /// doubles (see EnergyCat); names exist only here.
  [[nodiscard]] Breakdown energy() const;
  [[nodiscard]] double dynamic_energy_j() const noexcept {
    return energy_j_[kEnergyDynamic];
  }
  [[nodiscard]] double edc_energy_j() const noexcept {
    return energy_j_[kEnergyEdc];
  }
  [[nodiscard]] double total_energy_j() const noexcept {
    return energy_j_[kEnergyDynamic] + energy_j_[kEnergyEdc];
  }
  void clear_energy() noexcept { energy_j_[0] = energy_j_[1] = 0.0; }

  /// Static power (W) at the current mode, split into array and EDC parts.
  [[nodiscard]] double leakage_power() const noexcept;
  [[nodiscard]] double edc_leakage_power() const noexcept;

  /// Total hit latency at the current mode, including the EDC cycle.
  [[nodiscard]] std::size_t hit_latency() const noexcept;

  [[nodiscard]] const CacheConfig& config() const noexcept { return config_; }
  [[nodiscard]] const power::CacheEnergyModel& energy_model() const noexcept;
  [[nodiscard]] double total_area_um2() const noexcept;

  /// True when the line at (way, set) is valid (inspection for tests).
  [[nodiscard]] bool line_valid(std::size_t way, std::size_t set) const;

 private:
  /// Pre-resolved energy-category handles: the per-access hot path
  /// accumulates into a flat array instead of a string-keyed map.
  enum EnergyCat : std::size_t {
    kEnergyDynamic = 0,
    kEnergyEdc = 1,
    kEnergyCats = 2,
  };

  struct Line {
    bool valid = false;
    bool dirty = false;
    std::uint64_t line_addr = 0;  ///< addr / line_bytes
  };

  /// Per-data-word state bits (Way::word_state). A word with neither bit
  /// is clean (file comment): its load needs no fault bits and no decode.
  enum WordState : std::uint8_t {
    kWordStuck = 1,    ///< a stuck cell lies under the codeword (ULE)
    kWordFlipped = 2,  ///< a soft flip hit it since write_data_word
  };

  struct Way {
    std::vector<Line> lines;  ///< indexed by set
    /// Packed cache-line storage: each stored codeword (data word + check
    /// bits, strongest-protection layout) occupies one 64-bit word of a
    /// contiguous per-way array — no per-line heap objects, no bit-by-bit
    /// copies on the access path.
    std::vector<std::uint64_t> data_words;  ///< sets * words_per_line
    std::vector<std::uint64_t> tag_words;   ///< one per set
    std::shared_ptr<const edc::Codec> data_codec_hp;
    std::shared_ptr<const edc::Codec> data_codec_ule;
    std::shared_ptr<const edc::Codec> tag_codec_hp;
    std::shared_ptr<const edc::Codec> tag_codec_ule;
    /// Stuck bits under each stored data codeword (indexed like
    /// data_words) and each stored tag (indexed by set), sampled once per
    /// chip at init(). Empty when the array has no stuck cell. They show
    /// at ULE mode only (HP-way cells are sized for negligible Pf at high
    /// Vcc).
    std::vector<StuckBits> data_stuck;
    std::vector<StuckBits> tag_stuck;
    /// WordState bits per data word (indexed like data_words). kWordStuck
    /// is fixed at init(); flips set kWordFlipped and write_data_word
    /// clears it. The inline uncoded store bypasses write_data_word and
    /// leaves a set bit set: a stale bit only sends a load to the full
    /// read, never the other way round.
    std::vector<std::uint8_t> word_state;
    std::unique_ptr<SoftErrorProcess> soft_process;
  };

  [[nodiscard]] bool way_active(std::size_t w) const noexcept;
  [[nodiscard]] const edc::Codec* data_codec(std::size_t w) const noexcept;
  [[nodiscard]] const edc::Codec* tag_codec(std::size_t w) const noexcept;
  [[nodiscard]] std::uint64_t tag_of(std::uint64_t line_addr) const noexcept;

  /// Where one address lands: its line address, set and word in the line.
  struct Slot {
    std::uint64_t line_addr = 0;
    std::size_t set = 0;
    std::size_t word = 0;
  };

  /// Per-mode constants the demand path reads instead of re-deriving them
  /// per access: geometry (divisions pre-reduced to shifts/masks when the
  /// organisation is power-of-two), energy handles, per-way codec and
  /// fault dispatch, and the per-set "tag region fault-free" map that
  /// licenses the probe-key shortcut. Rebuilt lazily after set_mode();
  /// everything it caches is immutable between mode switches (fault maps
  /// are sampled once per chip, codecs and energy models at init).
  struct ModeCtx {
    std::size_t ways = 0;
    std::size_t sets = 0;
    std::size_t wpl = 0;
    std::uint64_t line_bytes = 0;
    bool pow2 = false;        ///< line size and set count are powers of two
    unsigned line_shift = 0;  ///< log2(line_bytes) when pow2
    std::uint64_t set_mask = 0;
    std::uint64_t word_mask = 0;  ///< low_mask(org.word_bits)
    std::size_t hit_latency = 0;
    bool write_through = false;
    double lookup_dyn = 0.0;
    /// Per-active-coded-way tag-decode charges, in way order: the FP
    /// accumulation sequence of one lookup, replayed add by add.
    std::vector<double> lookup_edc;
    struct WayCtx {
      /// Raw view into the owning Way's storage (stable: the vector is
      /// sized once at construction and never reallocated).
      std::uint64_t* data_words = nullptr;
      /// The way's Way::word_state (same stability).
      const std::uint8_t* word_state = nullptr;
      const edc::Codec* data_codec = nullptr;
      /// Loads read the stored word as is: no codec and no stuck data bit
      /// in this mode.
      bool raw_load = false;
      double word_write = 0.0;
      double edc_encode = 0.0;
      double edc_decode = 0.0;
    };
    std::vector<WayCtx> way;
    /// LRU stamp seam (nullptr stamps => virtual policy_->touch()).
    ReplacementPolicy::TouchSeam lru;
    /// Per-set most-recent-hit way, probed first. Purely a performance
    /// hint: a stale entry just falls through to the full row scan.
    std::vector<std::uint8_t> mru_way;
    /// tag_clean[set] == 1 when no active way has a stuck bit in this
    /// set's stored tag codeword: the probe-key compare is then exactly
    /// find_way (tags are always stored as exact codewords — soft errors
    /// only ever touch data words). Other sets take find_way.
    std::vector<std::uint8_t> tag_clean;

    /// The one address decode: shift/mask for power-of-two geometry,
    /// divide otherwise.
    [[nodiscard]] Slot decode(std::uint64_t addr) const noexcept {
      if (pow2) {
        const std::uint64_t line_addr = addr >> line_shift;
        return {line_addr, static_cast<std::size_t>(line_addr & set_mask),
                static_cast<std::size_t>((addr & (line_bytes - 1)) >> 2)};
      }
      const std::uint64_t line_addr = addr / line_bytes;
      return {line_addr, static_cast<std::size_t>(line_addr % sets),
              static_cast<std::size_t>(addr % line_bytes) / 4};
    }
  };

  ModeCtx& mode_ctx() {
    if (!mode_ctx_valid_) [[unlikely]] {
      rebuild_mode_ctx();
      mode_ctx_valid_ = true;
    }
    return mode_ctx_;
  }
  void rebuild_mode_ctx();

  /// The one tag lookup of access(), fetch_block() and writeback_block():
  /// charges the lookup energy and returns the lookup's outcome — hit and
  /// way, the hit latency, and the EDC events met decoding tags.
  AccessResult lookup(ModeCtx& ctx, const Slot& slot);

  /// The decoding tag probe of every active way of `set`, for sets whose
  /// stored tags may read back perturbed: sets `result.hit` and
  /// `result.way` on a hit and records the EDC events met.
  void find_way(std::uint64_t line_addr, std::size_t set,
                AccessResult& result);

  /// Reads and decodes the tag of (way,set); nullopt when invalid or the
  /// tag is uncorrectable.
  [[nodiscard]] std::optional<std::uint64_t> read_tag(std::size_t w,
                                                      std::size_t set,
                                                      AccessResult& result);
  /// Reads and decodes data word `word` of (way,set); a clean word
  /// skips the decode (see the file comment).
  [[nodiscard]] std::optional<std::uint32_t> read_data_word(
      std::size_t w, std::size_t set, std::size_t word, AccessResult& result);
  /// Decodes a received codeword, counting its corrections or its
  /// detected error into the stats and `result`; nullopt when detected.
  [[nodiscard]] std::optional<std::uint64_t> decode(const edc::Codec& codec,
                                                    std::uint64_t received,
                                                    AccessResult& result);

  void write_data_word(std::size_t w, std::size_t set, std::size_t word,
                       std::uint32_t value);
  void write_tag(std::size_t w, std::size_t set, std::uint64_t tag);

  /// Demand store of `value` into word `slot.word` of (w, slot.set): the
  /// encode, its energy, then the write-through or the dirty bit.
  void store_tail(std::size_t w, const Slot& slot, std::uint64_t addr,
                  std::uint32_t value);
  /// Demand load of word `slot.word` of (result.way, slot.set) through
  /// the fault map and codec; an uncorrectable word falls back to the
  /// next level.
  void load_tail(const Slot& slot, std::uint64_t addr, AccessResult& result);
  /// Everything after a missed lookup: the write-through passthrough, or
  /// the fill and the access to the filled line.
  void access_miss(std::uint64_t addr, AccessType type,
                   std::uint32_t store_value, const Slot& slot,
                   AccessResult& result);

  /// Index of (set, word) inside a way's packed data-word array.
  [[nodiscard]] std::size_t data_word_index(std::size_t set,
                                            std::size_t word) const noexcept {
    return set * config_.org.words_per_line() + word;
  }

  /// Allocates a line: victim selection, dirty-victim write-back, tag
  /// write. With `incoming == nullptr` the content is fetched from the
  /// next level (the fetch latency is added to `result.latency_cycles`);
  /// otherwise `incoming` supplies the full line and no fetch happens
  /// (full-line write-allocate). Returns the victim way.
  std::size_t fill_line(std::uint64_t line_addr, std::size_t set,
                        AccessResult& result,
                        const std::uint32_t* incoming = nullptr);
  void writeback_line(std::size_t w, std::size_t set);

  void init();

  void charge(EnergyCat category, double joules) noexcept {
    energy_j_[category] += joules;
  }

  /// Probe-key sentinel: never equal to a real line address (addresses
  /// are at least word-aligned, so line_addr = addr / line_bytes has its
  /// top bits clear). Inactive ways and invalid lines hold it, so one
  /// equality compare per way answers "active && valid && line_addr
  /// matches" exactly.
  static constexpr std::uint64_t kProbeInvalid = ~std::uint64_t{0};
  /// Keeps probe_keys_ mirroring (way, set)'s line state; called at every
  /// site that changes a line's valid bit or address.
  void set_probe_key(std::size_t way, std::size_t set,
                     std::uint64_t key) noexcept {
    probe_keys_[set * config_.org.ways + way] = key;
  }

  CacheConfig config_;
  MemoryLevel* next_level_;
  power::Mode mode_ = power::Mode::kHp;
  std::vector<Way> ways_;
  std::unique_ptr<ReplacementPolicy> policy_;
  std::unique_ptr<power::CacheEnergyModel> hp_model_;
  std::unique_ptr<power::CacheEnergyModel> ule_model_;
  CacheStats stats_;
  double energy_j_[kEnergyCats] = {0.0, 0.0};
  Rng rng_;
  /// Stored codeword widths per way (strongest protection, physical layout).
  std::vector<std::size_t> stored_data_cw_bits_;
  std::vector<std::size_t> stored_tag_cw_bits_;
  /// Reusable line-sized word buffer for fills/write-backs (no per-miss
  /// allocation; fill and write-back of one cache never overlap).
  std::vector<std::uint32_t> line_buf_;
  /// Per-word decodability flags of the line in line_buf_ (write-backs
  /// skip unrecoverable words so the next level keeps its stale copy).
  std::vector<std::uint8_t> line_word_ok_;
  /// Reusable victim-candidate buffer of fill_line, one slot per way.
  std::vector<std::size_t> victim_candidates_;
  /// Hit-probe keys, one row per set (row-major, one entry per way):
  /// probe_keys_[set * ways + way] is the line address stored in
  /// (way, set) when that line is valid, else kProbeInvalid. A
  /// structure-of-arrays twin of the per-way Line arrays that puts a
  /// whole set's tags in one cache line.
  std::vector<std::uint64_t> probe_keys_;
  ModeCtx mode_ctx_;
  bool mode_ctx_valid_ = false;
};

// Defined here (not in cache.cpp) so the per-record replay loop in
// cpu::Core inlines the lookup and the plain hit; only misses and
// codec/write-through tails leave the caller's frame. The order of the
// FP energy adds is part of the results: reordering or merging any of
// them changes the output bytes (pinned by tests/test_batch.cpp).
//
// The out-of-line calls fill a copy of the result through a reference,
// never the returned local itself: a local whose address is never taken
// stays in registers, so the core's replay, which reads only hit and
// latency, does not pay for the fields it drops (the loaded word, most
// of all). Handing them the local itself made BM_MulticoreStep ~1.7x
// slower per record (g++ 12, -O3).
inline AccessResult Cache::lookup(ModeCtx& ctx, const Slot& slot) {
  energy_j_[kEnergyDynamic] += ctx.lookup_dyn;
  for (const double joules : ctx.lookup_edc) {
    energy_j_[kEnergyEdc] += joules;
  }
  AccessResult result;
  result.latency_cycles = ctx.hit_latency;
  if (ctx.tag_clean[slot.set] == 0) {
    AccessResult decoded = result;
    find_way(slot.line_addr, slot.set, decoded);
    return decoded;
  }
  // The MRU hint resolves runs of accesses to one line in one compare;
  // otherwise the set's probe-key row is scanned. A matching key is
  // unique: a set never holds the same line in two ways.
  const std::uint64_t* row = probe_keys_.data() + slot.set * ctx.ways;
  const std::size_t hint = ctx.mru_way[slot.set];
  if (row[hint] == slot.line_addr) {
    result.hit = true;
    result.way = hint;
    return result;
  }
  for (std::size_t w = 0; w < ctx.ways; ++w) {
    if (row[w] == slot.line_addr) {
      ctx.mru_way[slot.set] = static_cast<std::uint8_t>(w);
      result.hit = true;
      result.way = w;
      return result;
    }
  }
  return result;
}

inline AccessResult Cache::access(std::uint64_t addr, AccessType type,
                                  std::uint32_t store_value) {
  ModeCtx& ctx = mode_ctx();
  ++stats_.accesses;
  switch (type) {
    case AccessType::kLoad: ++stats_.loads; break;
    case AccessType::kStore: ++stats_.stores; break;
    case AccessType::kIfetch: ++stats_.ifetches; break;
  }
  const Slot slot = ctx.decode(addr);
  AccessResult result = lookup(ctx, slot);
  if (!result.hit) {
    AccessResult miss = result;
    access_miss(addr, type, store_value, slot, miss);
    return miss;
  }

  const std::size_t way = result.way;
  ++stats_.hits;
  if (ctx.lru.stamps != nullptr) {
    // Exactly LruPolicy::touch, with the range checks proven by
    // construction (set and way come from the lookup).
    ctx.lru.stamps[slot.set * ctx.ways + way] = ++*ctx.lru.clock;
  } else if (!ctx.lru.noop) {
    policy_->touch(slot.set, way);
  }

  const ModeCtx::WayCtx& wc = ctx.way[way];
  const std::size_t widx = slot.set * ctx.wpl + slot.word;
  if (type == AccessType::kStore) {
    if (wc.data_codec != nullptr || ctx.write_through) {
      store_tail(way, slot, addr, store_value);
      return result;
    }
    wc.data_words[widx] = store_value & ctx.word_mask;
    energy_j_[kEnergyDynamic] += wc.word_write;
    energy_j_[kEnergyEdc] += wc.edc_encode;
    ways_[way].lines[slot.set].dirty = true;
    return result;
  }

  energy_j_[kEnergyEdc] += wc.edc_decode;
  // A clean word reads back as stored, and a clean coded word decodes to
  // its data bits (file comment): both take the plain load below. Only a
  // stuck or flipped word leaves for the fault bits and the full decode.
  // (Keep this one byte test: applying the stuck bits here, inline, made
  // the uncoded hit path ~15% slower.)
  if (!wc.raw_load && wc.word_state[widx] != 0) {
    AccessResult coded = result;
    load_tail(slot, addr, coded);
    return coded;
  }
  result.data =
      static_cast<std::uint32_t>(wc.data_words[widx] & ctx.word_mask);
  return result;
}

}  // namespace hvc::cache
