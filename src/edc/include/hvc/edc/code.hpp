// Common interface for the error detection and correction (EDC) codes used
// by the hybrid cache: none, Hsiao SECDED and BCH-based DECTED.
//
// Codewords are systematic everywhere in hvcache: the first k bits of a
// codeword are the data word, the remaining (n-k) bits are check bits.
// This matches how the cache arrays store them (data columns + check
// columns appended to each physical row).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "hvc/common/bitvec.hpp"

namespace hvc::edc {

/// Outcome of decoding a possibly corrupted codeword.
enum class DecodeStatus {
  kClean,      ///< Syndrome zero: no error observed.
  kCorrected,  ///< Error(s) within correction capability, data repaired.
  kDetected,   ///< Uncorrectable error detected; data is NOT trustworthy.
};

[[nodiscard]] std::string to_string(DecodeStatus status);

/// Result of Codec::decode.
struct DecodeResult {
  DecodeStatus status = DecodeStatus::kClean;
  /// Recovered data word (k bits). Valid unless status == kDetected.
  BitVec data;
  /// Number of bit positions the decoder flipped (0 when clean/detected).
  std::size_t corrected_bits = 0;
};

/// Result of Codec::decode_word (word-level fast path).
struct WordDecodeResult {
  DecodeStatus status = DecodeStatus::kClean;
  /// Recovered data word in the low data_bits() bits. Valid unless
  /// status == kDetected.
  std::uint64_t data = 0;
  /// Number of bit positions the decoder flipped (0 when clean/detected).
  std::uint32_t corrected_bits = 0;
};

/// Abstract systematic block code over GF(2).
class Codec {
 public:
  virtual ~Codec() = default;

  /// Number of data bits per word.
  [[nodiscard]] virtual std::size_t data_bits() const noexcept = 0;
  /// Number of check bits appended per word.
  [[nodiscard]] virtual std::size_t check_bits() const noexcept = 0;
  /// Codeword length n = data_bits + check_bits.
  [[nodiscard]] std::size_t codeword_bits() const noexcept {
    return data_bits() + check_bits();
  }

  /// Guaranteed number of correctable random bit errors per word.
  [[nodiscard]] virtual std::size_t correctable() const noexcept = 0;
  /// Guaranteed number of detectable random bit errors per word.
  [[nodiscard]] virtual std::size_t detectable() const noexcept = 0;

  /// Human-readable code name, e.g. "SECDED(39,32)".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Encodes a k-bit data word into an n-bit codeword (data || check).
  [[nodiscard]] virtual BitVec encode(const BitVec& data) const = 0;

  /// Decodes an n-bit received word.
  [[nodiscard]] virtual DecodeResult decode(const BitVec& received) const = 0;

  /// True when the codeword fits in 64 bits, i.e. the word-level fast path
  /// below is usable. All paper configs — (39,32)/(33,26) SECDED and
  /// (45,32)/(39,26) BCH-DECTED — qualify.
  [[nodiscard]] bool has_word_path() const noexcept {
    return codeword_bits() <= 64;
  }

  /// Word-level fast path: encodes the low data_bits() bits of `data` into
  /// an n-bit codeword packed into a 64-bit word (bit 0 = LSB, same layout
  /// as BitVec::to_word). Bit-for-bit identical to encode(); requires
  /// has_word_path(). The base implementation bridges through the BitVec
  /// reference path; codecs override it with mask/popcount arithmetic.
  [[nodiscard]] virtual std::uint64_t encode_word(std::uint64_t data) const;

  /// Word-level fast path of decode(); same contract as encode_word.
  [[nodiscard]] virtual WordDecodeResult decode_word(
      std::uint64_t received) const;
};

/// Degenerate "no protection" code: codeword == data, nothing detected.
class NullCode final : public Codec {
 public:
  explicit NullCode(std::size_t data_bits);

  [[nodiscard]] std::size_t data_bits() const noexcept override {
    return data_bits_;
  }
  [[nodiscard]] std::size_t check_bits() const noexcept override { return 0; }
  [[nodiscard]] std::size_t correctable() const noexcept override { return 0; }
  [[nodiscard]] std::size_t detectable() const noexcept override { return 0; }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] BitVec encode(const BitVec& data) const override;
  [[nodiscard]] DecodeResult decode(const BitVec& received) const override;
  [[nodiscard]] std::uint64_t encode_word(std::uint64_t data) const override;
  [[nodiscard]] WordDecodeResult decode_word(
      std::uint64_t received) const override;

 private:
  std::size_t data_bits_;
};

/// Kinds of protection the cache architecture knows about (paper §III-B).
enum class Protection {
  kNone,    ///< raw storage
  kSecded,  ///< Hsiao single-error-correct / double-error-detect
  kDected,  ///< BCH double-error-correct / triple-error-detect
};

[[nodiscard]] std::string to_string(Protection protection);

/// Number of check bits the paper assigns per protection level for any of
/// the word sizes used (7 for SECDED, 13 for DECTED, 0 for none).
[[nodiscard]] std::size_t check_bits_for(Protection protection);

/// The codec the paper uses for `data_bits`-wide words (32-bit data
/// words, 26-bit tag words) at a given protection level.
///
/// Codecs are interned: the first call for a (protection, data_bits) key
/// builds the codec, and every later call, from any thread, returns that
/// same immutable instance, so building a cache costs no table
/// construction after the first. Callers may keep the pointer for as long
/// as they like.
///
/// A codec's decode of a valid codeword is clean: decode_word(encode_word(d))
/// is {kClean, d, 0}. cache::Cache relies on this to skip the decode of a
/// stored word that no stuck bit and no soft flip can have touched since
/// it was encoded (see cache.hpp).
[[nodiscard]] std::shared_ptr<const Codec> make_codec(Protection protection,
                                                      std::size_t data_bits);

}  // namespace hvc::edc
