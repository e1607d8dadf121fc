// Property tests pinning the word-level EDC fast path (encode_word /
// decode_word) bit-for-bit to the BitVec reference path, for every code
// configuration the paper uses, across random data words and all 0/1/2-bit
// error patterns (plus random 3-bit patterns for DECTED detection), and
// the process-wide codec memo behind make_codec.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "hvc/common/bitvec.hpp"
#include "hvc/common/error.hpp"
#include "hvc/common/rng.hpp"
#include "hvc/edc/bch.hpp"
#include "hvc/edc/code.hpp"
#include "hvc/edc/hsiao.hpp"

namespace hvc::edc {
namespace {

/// Every codec configuration the paper's cache instantiates.
[[nodiscard]] std::vector<std::shared_ptr<const Codec>> paper_codecs() {
  std::vector<std::shared_ptr<const Codec>> codecs;
  codecs.push_back(make_codec(Protection::kNone, 32));
  codecs.push_back(make_codec(Protection::kSecded, 32));  // (39,32)
  codecs.push_back(make_codec(Protection::kSecded, 26));  // (33,26)
  codecs.push_back(make_codec(Protection::kDected, 32));  // (45,32)
  codecs.push_back(make_codec(Protection::kDected, 26));  // (39,26)
  return codecs;
}

void expect_decodes_agree(const Codec& codec, std::uint64_t corrupted) {
  const DecodeResult ref =
      codec.decode(BitVec::from_word(corrupted, codec.codeword_bits()));
  const WordDecodeResult fast = codec.decode_word(corrupted);
  ASSERT_EQ(fast.status, ref.status) << codec.name();
  ASSERT_EQ(fast.corrected_bits, ref.corrected_bits) << codec.name();
  if (ref.status != DecodeStatus::kDetected) {
    ASSERT_EQ(fast.data, ref.data.to_word()) << codec.name();
  }
}

TEST(EdcWordPath, PaperCodecsHaveWordPath) {
  for (const auto& codec : paper_codecs()) {
    EXPECT_TRUE(codec->has_word_path()) << codec->name();
    EXPECT_LE(codec->codeword_bits(), 64u) << codec->name();
  }
}

TEST(EdcWordPath, EncodeMatchesReference) {
  Rng rng(101);
  for (const auto& codec : paper_codecs()) {
    for (int trial = 0; trial < 200; ++trial) {
      const std::uint64_t data =
          rng.next() & low_mask(codec->data_bits());
      const BitVec ref = codec->encode(BitVec::from_word(data,
                                                         codec->data_bits()));
      ASSERT_EQ(codec->encode_word(data), ref.to_word()) << codec->name();
      // Stray bits above data_bits() must be ignored, not folded in.
      ASSERT_EQ(codec->encode_word(data | (rng.next()
                                           << codec->data_bits())),
                ref.to_word())
          << codec->name();
    }
  }
}

TEST(EdcWordPath, CleanDecodeMatchesReference) {
  Rng rng(102);
  for (const auto& codec : paper_codecs()) {
    for (int trial = 0; trial < 100; ++trial) {
      const std::uint64_t data =
          rng.next() & low_mask(codec->data_bits());
      const std::uint64_t codeword = codec->encode_word(data);
      expect_decodes_agree(*codec, codeword);
      const WordDecodeResult decoded = codec->decode_word(codeword);
      ASSERT_EQ(decoded.status, DecodeStatus::kClean);
      ASSERT_EQ(decoded.data, data);
      ASSERT_EQ(decoded.corrected_bits, 0u);
    }
  }
}

TEST(EdcWordPath, AllSingleErrorsMatchReference) {
  Rng rng(103);
  for (const auto& codec : paper_codecs()) {
    const std::size_t n = codec->codeword_bits();
    for (int trial = 0; trial < 16; ++trial) {
      const std::uint64_t data =
          rng.next() & low_mask(codec->data_bits());
      const std::uint64_t codeword = codec->encode_word(data);
      for (std::size_t bit = 0; bit < n; ++bit) {
        expect_decodes_agree(*codec, codeword ^ (1ULL << bit));
      }
    }
  }
}

TEST(EdcWordPath, AllDoubleErrorsMatchReference) {
  Rng rng(104);
  for (const auto& codec : paper_codecs()) {
    const std::size_t n = codec->codeword_bits();
    for (int trial = 0; trial < 4; ++trial) {
      const std::uint64_t data =
          rng.next() & low_mask(codec->data_bits());
      const std::uint64_t codeword = codec->encode_word(data);
      for (std::size_t a = 0; a < n; ++a) {
        for (std::size_t b = a + 1; b < n; ++b) {
          expect_decodes_agree(*codec,
                               codeword ^ (1ULL << a) ^ (1ULL << b));
        }
      }
    }
  }
}

TEST(EdcWordPath, RandomTripleErrorsMatchReference) {
  Rng rng(105);
  for (const auto& codec : paper_codecs()) {
    const std::size_t n = codec->codeword_bits();
    for (int trial = 0; trial < 300; ++trial) {
      const std::uint64_t data =
          rng.next() & low_mask(codec->data_bits());
      std::uint64_t corrupted = codec->encode_word(data);
      for (int e = 0; e < 3; ++e) {
        corrupted ^= 1ULL << rng.below(n);
      }
      expect_decodes_agree(*codec, corrupted);
    }
  }
}

TEST(EdcWordPath, CorrectionRecoversData) {
  // Beyond agreeing with the reference, the fast path must actually repair:
  // any pattern within the correction radius returns the original data.
  Rng rng(106);
  for (const auto& codec : paper_codecs()) {
    const std::size_t t = codec->correctable();
    const std::size_t n = codec->codeword_bits();
    for (int trial = 0; trial < 200; ++trial) {
      const std::uint64_t data =
          rng.next() & low_mask(codec->data_bits());
      std::uint64_t corrupted = codec->encode_word(data);
      std::size_t flips = 0;
      while (flips < t) {
        const std::uint64_t mask = 1ULL << rng.below(n);
        if ((corrupted ^ codec->encode_word(data)) & mask) {
          continue;  // already flipped this bit
        }
        corrupted ^= mask;
        ++flips;
      }
      const WordDecodeResult decoded = codec->decode_word(corrupted);
      ASSERT_NE(decoded.status, DecodeStatus::kDetected) << codec->name();
      ASSERT_EQ(decoded.data, data) << codec->name();
      ASSERT_EQ(decoded.corrected_bits, flips) << codec->name();
    }
  }
}

TEST(CodecMemo, SameKeyGivesSameInstance) {
  for (const auto& codec : paper_codecs()) {
    const Protection protection =
        codec->check_bits() == 0   ? Protection::kNone
        : codec->correctable() == 1 ? Protection::kSecded
                                    : Protection::kDected;
    EXPECT_EQ(make_codec(protection, codec->data_bits()).get(), codec.get())
        << codec->name();
  }
}

TEST(CodecMemo, DifferentKeysGiveDifferentCodecs) {
  const auto codecs = paper_codecs();
  for (std::size_t a = 0; a < codecs.size(); ++a) {
    for (std::size_t b = a + 1; b < codecs.size(); ++b) {
      EXPECT_NE(codecs[a].get(), codecs[b].get());
      EXPECT_NE(codecs[a]->name(), codecs[b]->name());
    }
  }
  EXPECT_EQ(make_codec(Protection::kSecded, 32)->name(), "SECDED(39,32)");
  EXPECT_EQ(make_codec(Protection::kSecded, 26)->codeword_bits(), 33u);
  EXPECT_EQ(make_codec(Protection::kDected, 32)->codeword_bits(), 45u);
  EXPECT_EQ(make_codec(Protection::kDected, 26)->codeword_bits(), 39u);
  EXPECT_EQ(make_codec(Protection::kNone, 32)->codeword_bits(), 32u);
}

TEST(CodecMemo, RacingFirstCallsGetOneInstance) {
  // Keys no other test in this binary asks for, so every thread's call
  // below can be the first one for its key.
  constexpr std::size_t kThreads = 8;
  const std::pair<Protection, std::size_t> keys[] = {
      {Protection::kSecded, 48}, {Protection::kDected, 40}};
  for (const auto& [protection, bits] : keys) {
    std::vector<const Codec*> got(kThreads, nullptr);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        got[t] = make_codec(protection, bits).get();
      });
    }
    go.store(true, std::memory_order_release);
    for (std::thread& thread : threads) {
      thread.join();
    }
    ASSERT_NE(got[0], nullptr);
    EXPECT_EQ(got[0]->data_bits(), bits);
    for (std::size_t t = 1; t < kThreads; ++t) {
      EXPECT_EQ(got[t], got[0]) << "thread " << t;
    }
    EXPECT_EQ(make_codec(protection, bits).get(), got[0]);
    // The shared instance decodes its own codewords cleanly (the
    // property Cache's clean-word skip rests on).
    const std::uint64_t data = 0x5A5A5A5A5AULL & low_mask(bits);
    const WordDecodeResult decoded =
        got[0]->decode_word(got[0]->encode_word(data));
    EXPECT_EQ(decoded.status, DecodeStatus::kClean);
    EXPECT_EQ(decoded.data, data);
    EXPECT_EQ(decoded.corrected_bits, 0u);
  }
}

TEST(EdcWordPath, WideCodeFallsBackToReferenceBridge) {
  // A whole-line BCH code (m=9, 256-bit words) has no 64-bit word path;
  // the word-level entry points must reject it rather than truncate.
  const BchDected wide(256);
  EXPECT_FALSE(wide.has_word_path());
  EXPECT_THROW((void)wide.encode_word(1), PreconditionError);
  EXPECT_THROW((void)wide.decode_word(1), PreconditionError);
}

}  // namespace
}  // namespace hvc::edc
