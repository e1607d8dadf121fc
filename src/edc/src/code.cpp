#include "hvc/edc/code.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <utility>

#include "hvc/common/error.hpp"
#include "hvc/edc/bch.hpp"
#include "hvc/edc/hsiao.hpp"

namespace hvc::edc {

std::string to_string(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kClean: return "clean";
    case DecodeStatus::kCorrected: return "corrected";
    case DecodeStatus::kDetected: return "detected";
  }
  return "?";
}

std::string to_string(Protection protection) {
  switch (protection) {
    case Protection::kNone: return "none";
    case Protection::kSecded: return "SECDED";
    case Protection::kDected: return "DECTED";
  }
  return "?";
}

std::uint64_t Codec::encode_word(std::uint64_t data) const {
  expects(has_word_path(), "encode_word requires codewords of <= 64 bits");
  return encode(BitVec::from_word(data, data_bits())).to_word();
}

WordDecodeResult Codec::decode_word(std::uint64_t received) const {
  expects(has_word_path(), "decode_word requires codewords of <= 64 bits");
  const DecodeResult decoded =
      decode(BitVec::from_word(received, codeword_bits()));
  WordDecodeResult result;
  result.status = decoded.status;
  result.corrected_bits = static_cast<std::uint32_t>(decoded.corrected_bits);
  if (decoded.status != DecodeStatus::kDetected) {
    result.data = decoded.data.to_word();
  }
  return result;
}

std::size_t check_bits_for(Protection protection) {
  switch (protection) {
    case Protection::kNone: return 0;
    case Protection::kSecded: return 7;   // paper §III-C
    case Protection::kDected: return 13;  // paper §III-C
  }
  return 0;
}

NullCode::NullCode(std::size_t data_bits) : data_bits_(data_bits) {
  expects(data_bits >= 1, "NullCode requires at least one data bit");
}

std::string NullCode::name() const {
  return "NONE(" + std::to_string(data_bits_) + ")";
}

BitVec NullCode::encode(const BitVec& data) const {
  expects(data.size() == data_bits_, "encode: wrong data width");
  return data;
}

DecodeResult NullCode::decode(const BitVec& received) const {
  expects(received.size() == data_bits_, "decode: wrong codeword width");
  DecodeResult result;
  result.status = DecodeStatus::kClean;
  result.data = received;
  return result;
}

std::uint64_t NullCode::encode_word(std::uint64_t data) const {
  expects(has_word_path(), "encode_word requires codewords of <= 64 bits");
  return data & low_mask(data_bits_);
}

WordDecodeResult NullCode::decode_word(std::uint64_t received) const {
  expects(has_word_path(), "decode_word requires codewords of <= 64 bits");
  WordDecodeResult result;
  result.data = received & low_mask(data_bits_);
  return result;
}

namespace {

[[nodiscard]] std::unique_ptr<Codec> build_codec(Protection protection,
                                                 std::size_t data_bits) {
  switch (protection) {
    case Protection::kNone:
      return std::make_unique<NullCode>(data_bits);
    case Protection::kSecded: {
      // The paper fixes SECDED at 7 check bits for both word widths; fall
      // back to the minimal width for words too wide for 7 bits.
      const std::size_t wanted = check_bits_for(Protection::kSecded);
      const std::size_t minimum = HsiaoSecded::min_check_bits(data_bits);
      return std::make_unique<HsiaoSecded>(data_bits,
                                           std::max(wanted, minimum));
    }
    case Protection::kDected: {
      auto codec = std::make_unique<BchDected>(data_bits);
      ensure(codec->check_bits() == check_bits_for(Protection::kDected),
             "DECTED check bits deviate from the paper's 13");
      return codec;
    }
  }
  throw PreconditionError("unknown protection kind");
}

}  // namespace

std::shared_ptr<const Codec> make_codec(Protection protection,
                                        std::size_t data_bits) {
  // Process-wide memo. Codecs are immutable after construction, so one
  // instance serves every thread. The lock is held while a missing codec
  // is built, so racing first callers get the same instance.
  static std::mutex mutex;
  static std::map<std::pair<Protection, std::size_t>,
                  std::shared_ptr<const Codec>>
      memo;
  const std::lock_guard<std::mutex> lock(mutex);
  std::shared_ptr<const Codec>& codec = memo[{protection, data_bits}];
  if (codec == nullptr) {
    codec = build_codec(protection, data_bits);
  }
  return codec;
}

}  // namespace hvc::edc
