// Unit + property tests for the codec substrate: variable-byte, Elias-γ,
// Golomb, posting-list gap encoding, the LZ container codec and dictionary
// front-coding.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>

#include "codec/bit_io.hpp"
#include "codec/front_coding.hpp"
#include "codec/lz.hpp"
#include "codec/posting_codecs.hpp"
#include "util/rng.hpp"

namespace hetindex {
namespace {

TEST(VByte, SmallValuesUseOneByte) {
  std::vector<std::uint8_t> out;
  vbyte_encode(127, out);
  EXPECT_EQ(out.size(), 1u);
  vbyte_encode(128, out);
  EXPECT_EQ(out.size(), 3u);
}

TEST(VByte, RoundTripEdgeValues) {
  for (std::uint64_t v : {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
                          0xFFFFFFFFull, 0xFFFFFFFFFFFFFFFFull}) {
    std::vector<std::uint8_t> out;
    vbyte_encode(v, out);
    std::size_t pos = 0;
    EXPECT_EQ(vbyte_decode(out.data(), out.size(), pos), v);
    EXPECT_EQ(pos, out.size());
  }
}

TEST(VByte, RoundTripRandomSequence) {
  Rng rng(11);
  std::vector<std::uint64_t> values;
  std::vector<std::uint8_t> out;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng() >> (rng.below(64));
    values.push_back(v);
    vbyte_encode(v, out);
  }
  std::size_t pos = 0;
  for (auto v : values) EXPECT_EQ(vbyte_decode(out.data(), out.size(), pos), v);
  EXPECT_EQ(pos, out.size());
}

TEST(BitIo, WriteReadMixedWidths) {
  std::vector<std::uint8_t> buf;
  BitWriter bw(buf);
  bw.write(0b101, 3);
  bw.write_unary(5);
  bw.write(0xABCD, 16);
  bw.write_unary(0);
  bw.flush();
  BitReader br(buf.data(), buf.size());
  EXPECT_EQ(br.read(3), 0b101u);
  EXPECT_EQ(br.read_unary(), 5u);
  EXPECT_EQ(br.read(16), 0xABCDu);
  EXPECT_EQ(br.read_unary(), 0u);
}

TEST(Gamma, KnownCodeLengths) {
  // γ(1) = 1 bit, γ(2..3) = 3 bits, γ(4..7) = 5 bits.
  EXPECT_EQ(gamma_encode_sequence({1}).size(), 1u);           // 1 bit → 1 byte
  const auto eight = gamma_encode_sequence({1, 1, 1, 1, 1, 1, 1, 1});
  EXPECT_EQ(eight.size(), 1u);  // 8×1 bit packs into one byte
}

TEST(Gamma, RoundTripRange) {
  std::vector<std::uint64_t> values;
  for (std::uint64_t v = 1; v < 2000; ++v) values.push_back(v);
  const auto enc = gamma_encode_sequence(values);
  EXPECT_EQ(gamma_decode_sequence(enc, values.size()), values);
}

TEST(Gamma, RoundTripLargeValues) {
  std::vector<std::uint64_t> values = {1ull << 20, (1ull << 31) - 1, 1ull << 40,
                                       (1ull << 62) + 12345};
  const auto enc = gamma_encode_sequence(values);
  EXPECT_EQ(gamma_decode_sequence(enc, values.size()), values);
}

class GolombParam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GolombParam, RoundTripAcrossParameters) {
  const std::uint64_t b = GetParam();
  Rng rng(b);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 2000; ++i) values.push_back(1 + rng.below(10 * b + 50));
  const auto enc = golomb_encode_sequence(values, b);
  EXPECT_EQ(golomb_decode_sequence(enc, values.size(), b), values);
}

INSTANTIATE_TEST_SUITE_P(AllB, GolombParam,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16, 100, 1000));

TEST(Golomb, OptimalParameterFormula) {
  EXPECT_EQ(golomb_optimal_b(1.0), 1u);
  EXPECT_EQ(golomb_optimal_b(100.0), 69u);
  EXPECT_EQ(golomb_optimal_b(0.1), 1u);
}

class PostingCodecParam : public ::testing::TestWithParam<PostingCodec> {};

TEST_P(PostingCodecParam, RoundTripEmpty) {
  const auto enc = encode_postings(GetParam(), {}, {});
  std::vector<std::uint32_t> ids, tfs;
  decode_postings(enc.data(), enc.size(), ids, tfs);
  EXPECT_TRUE(ids.empty());
  EXPECT_TRUE(tfs.empty());
}

TEST_P(PostingCodecParam, RoundTripSingle) {
  const auto enc = encode_postings(GetParam(), {42}, {7});
  std::vector<std::uint32_t> ids, tfs;
  decode_postings(enc.data(), enc.size(), ids, tfs);
  EXPECT_EQ(ids, std::vector<std::uint32_t>{42});
  EXPECT_EQ(tfs, std::vector<std::uint32_t>{7});
}

TEST_P(PostingCodecParam, RoundTripDocIdZero) {
  const auto enc = encode_postings(GetParam(), {0, 1}, {1, 2});
  std::vector<std::uint32_t> ids, tfs;
  decode_postings(enc.data(), enc.size(), ids, tfs);
  EXPECT_EQ(ids, (std::vector<std::uint32_t>{0, 1}));
}

TEST_P(PostingCodecParam, RoundTripRandomSortedLists) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 99);
  for (int trial = 0; trial < 20; ++trial) {
    std::set<std::uint32_t> id_set;
    const std::size_t n = 1 + rng.below(500);
    while (id_set.size() < n) id_set.insert(static_cast<std::uint32_t>(rng.below(1u << 30)));
    std::vector<std::uint32_t> ids(id_set.begin(), id_set.end());
    std::vector<std::uint32_t> tfs;
    for (std::size_t i = 0; i < ids.size(); ++i)
      tfs.push_back(1 + static_cast<std::uint32_t>(rng.below(50)));
    const auto enc = encode_postings(GetParam(), ids, tfs);
    std::vector<std::uint32_t> ids2, tfs2;
    decode_postings(enc.data(), enc.size(), ids2, tfs2);
    EXPECT_EQ(ids2, ids);
    EXPECT_EQ(tfs2, tfs);
  }
}

TEST_P(PostingCodecParam, DenseListsCompressBelowRaw) {
  // Gap coding should beat 8 bytes/posting on dense lists.
  std::vector<std::uint32_t> ids, tfs;
  for (std::uint32_t i = 0; i < 10000; ++i) {
    ids.push_back(i * 3);
    tfs.push_back(1 + i % 4);
  }
  const auto enc = encode_postings(GetParam(), ids, tfs);
  EXPECT_LT(enc.size(), ids.size() * 8);
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, PostingCodecParam,
                         ::testing::Values(PostingCodec::kVByte, PostingCodec::kGamma,
                                           PostingCodec::kGolomb,
                                           PostingCodec::kBitPacked));

TEST_P(PostingCodecParam, ConcatenatedSegmentsDecodeInSequence) {
  // The §III.F byte-level merge relies on this: encoded lists concatenate
  // and decode back-to-back because each segment's first doc id is
  // absolute and every segment is byte-aligned.
  const auto seg1 = encode_postings(GetParam(), {1, 5}, {1, 2});
  const auto seg2 = encode_postings(GetParam(), {9, 12}, {3, 1});
  std::vector<std::uint8_t> blob = seg1;
  blob.insert(blob.end(), seg2.begin(), seg2.end());
  std::vector<std::uint32_t> ids, tfs;
  std::size_t pos = 0;
  while (pos < blob.size())
    pos += decode_postings(blob.data(), blob.size(), ids, tfs, nullptr, pos);
  EXPECT_EQ(pos, blob.size());
  EXPECT_EQ(ids, (std::vector<std::uint32_t>{1, 5, 9, 12}));
  EXPECT_EQ(tfs, (std::vector<std::uint32_t>{1, 2, 3, 1}));
}

TEST_P(PostingCodecParam, DecodeReportsConsumedBytes) {
  const auto enc = encode_postings(GetParam(), {7, 8, 100}, {1, 1, 4});
  std::vector<std::uint32_t> ids, tfs;
  EXPECT_EQ(decode_postings(enc.data(), enc.size(), ids, tfs), enc.size());
}

TEST(BlockedPostings, ChunksIntoBlocksWithExactSkipRows) {
  std::vector<std::uint32_t> ids, tfs;
  for (std::uint32_t i = 0; i < 300; ++i) {
    ids.push_back(i * 2 + 1);
    tfs.push_back(1 + i % 7);
  }
  std::vector<PostingBlockEntry> blocks;
  const auto enc = encode_postings_blocked(PostingCodec::kGolomb, ids, tfs, {}, &blocks);
  ASSERT_EQ(blocks.size(), 3u);  // 128 + 128 + 44
  std::uint64_t expect_offset = 0;
  std::size_t seen = 0;
  for (const auto& b : blocks) {
    EXPECT_EQ(b.offset, expect_offset);
    expect_offset += b.bytes;
    ASSERT_GT(b.count, 0u);
    ASSERT_LE(b.count, kPostingsBlockSize);
    const std::uint32_t expect_max =
        *std::max_element(tfs.begin() + seen, tfs.begin() + seen + b.count);
    EXPECT_EQ(b.max_tf, expect_max);
    seen += b.count;
    EXPECT_EQ(b.last_doc, ids[seen - 1]);
  }
  EXPECT_EQ(seen, ids.size());
  EXPECT_EQ(expect_offset, enc.size());
  // The whole blob decodes back-to-back like any §III.F-merged list…
  std::vector<std::uint32_t> ids2, tfs2;
  std::size_t pos = 0;
  while (pos < enc.size())
    pos += decode_postings(enc.data(), enc.size(), ids2, tfs2, nullptr, pos);
  EXPECT_EQ(ids2, ids);
  EXPECT_EQ(tfs2, tfs);
  // …and each block also decodes standalone through its skip row.
  std::vector<std::uint32_t> bids, btfs;
  EXPECT_EQ(decode_postings(enc.data() + blocks[1].offset, blocks[1].bytes, bids, btfs),
            static_cast<std::size_t>(blocks[1].bytes));
  EXPECT_EQ(bids.size(), blocks[1].count);
  EXPECT_EQ(bids.front(), ids[kPostingsBlockSize]);
  EXPECT_EQ(bids.back(), blocks[1].last_doc);
}

TEST(BlockedPostings, BlockedEncodingMatchesFlatForEveryCodec) {
  // The blocked encoder must emit exactly the flat encodings of its 128-doc
  // chunks, each under the codec choose_block_codec picks for it: block
  // edges at 1, 2, 3, 127, 128, 129 docs and a long list, plain and
  // positional.
  Rng rng(7);
  for (const std::size_t n : {1u, 2u, 3u, 127u, 128u, 129u, 1000u}) {
    std::set<std::uint32_t> id_set;
    while (id_set.size() < n) id_set.insert(static_cast<std::uint32_t>(rng.below(1u << 24)));
    const std::vector<std::uint32_t> ids(id_set.begin(), id_set.end());
    std::vector<std::uint32_t> tfs, positions;
    for (std::size_t i = 0; i < n; ++i) {
      tfs.push_back(1 + static_cast<std::uint32_t>(rng.below(i % 3 == 0 ? 30 : 2)));
      std::uint32_t p = static_cast<std::uint32_t>(rng.below(50));
      for (std::uint32_t k = 0; k < tfs.back(); ++k) positions.push_back(p += rng.below(9));
    }
    for (const bool positional : {false, true}) {
      for (PostingCodec codec : {PostingCodec::kVByte, PostingCodec::kGamma,
                                 PostingCodec::kGolomb, PostingCodec::kBitPacked}) {
        if (positional && codec == PostingCodec::kBitPacked) continue;
        const std::vector<std::uint32_t> no_positions;
        const auto& pos = positional ? positions : no_positions;
        std::vector<std::uint8_t> expected;
        std::size_t pos_at = 0;
        for (std::size_t b = 0; b < n; b += kPostingsBlockSize) {
          const std::size_t e = std::min<std::size_t>(n, b + kPostingsBlockSize);
          const std::vector<std::uint32_t> cids(ids.begin() + b, ids.begin() + e);
          const std::vector<std::uint32_t> ctfs(tfs.begin() + b, tfs.begin() + e);
          std::vector<std::uint32_t> cpos;
          if (positional) {
            const std::size_t tf_sum = std::accumulate(ctfs.begin(), ctfs.end(), std::size_t{0});
            cpos.assign(pos.begin() + pos_at, pos.begin() + pos_at + tf_sum);
            pos_at += tf_sum;
          }
          const auto chunk =
              encode_postings(choose_block_codec(codec, cids, ctfs, positional), cids, ctfs,
                              positional ? &cpos : nullptr);
          expected.insert(expected.end(), chunk.begin(), chunk.end());
        }
        const auto enc = encode_postings_blocked(codec, ids, tfs, pos);
        EXPECT_EQ(enc, expected) << "n=" << n << " codec=" << static_cast<int>(codec)
                                 << " positional=" << positional;
        std::vector<std::uint32_t> ids2, tfs2, pos2;
        for (std::size_t at = 0; at < enc.size();)
          at += decode_postings(enc.data(), enc.size(), ids2, tfs2, &pos2, at);
        EXPECT_EQ(ids2, ids);
        EXPECT_EQ(tfs2, tfs);
        EXPECT_EQ(pos2, pos);
      }
    }
  }
}

TEST(BlockedPostings, DensityHeuristicUpgradesVByteOnly) {
  // Dense block, uniform small values: fixed-width packing beats vbyte.
  std::vector<std::uint32_t> dense_ids, dense_tfs;
  for (std::uint32_t i = 0; i < 128; ++i) {
    dense_ids.push_back(i);
    dense_tfs.push_back(1);
  }
  EXPECT_EQ(choose_block_codec(PostingCodec::kVByte, dense_ids, dense_tfs, false),
            PostingCodec::kBitPacked);
  // One huge gap inflates the fixed width past what vbyte pays: no upgrade.
  std::vector<std::uint32_t> skewed_ids = dense_ids, skewed_tfs = dense_tfs;
  skewed_ids.push_back((1u << 30) + 5);
  skewed_tfs.push_back(1);
  EXPECT_EQ(choose_block_codec(PostingCodec::kVByte, skewed_ids, skewed_tfs, false),
            PostingCodec::kVByte);
  // Positional blocks and non-vbyte requests pass through unchanged.
  EXPECT_EQ(choose_block_codec(PostingCodec::kVByte, dense_ids, dense_tfs, true),
            PostingCodec::kVByte);
  EXPECT_EQ(choose_block_codec(PostingCodec::kGolomb, dense_ids, dense_tfs, false),
            PostingCodec::kGolomb);
}

TEST(Lz, RoundTripEmpty) {
  const std::vector<std::uint8_t> empty;
  EXPECT_EQ(lz_decompress(lz_compress(empty)), empty);
}

TEST(Lz, RoundTripShortLiteral) {
  std::vector<std::uint8_t> data = {'a', 'b', 'c'};
  EXPECT_EQ(lz_decompress(lz_compress(data)), data);
}

TEST(Lz, CompressesRepetitiveText) {
  std::string text;
  for (int i = 0; i < 2000; ++i) text += "the quick brown fox jumps over the lazy dog ";
  std::vector<std::uint8_t> data(text.begin(), text.end());
  const auto comp = lz_compress(data);
  EXPECT_LT(comp.size(), data.size() / 5);
  EXPECT_EQ(lz_decompress(comp), data);
}

TEST(Lz, HandlesIncompressibleData) {
  Rng rng(17);
  std::vector<std::uint8_t> data(100000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  const auto comp = lz_compress(data);
  EXPECT_EQ(lz_decompress(comp), data);
  EXPECT_LT(comp.size(), data.size() + 1024);  // stored blocks add only headers
}

TEST(Lz, RoundTripRunLengthOverlappingMatches) {
  std::vector<std::uint8_t> data(50000, 'x');  // self-overlapping match case
  const auto comp = lz_compress(data);
  EXPECT_LT(comp.size(), 1024u);
  EXPECT_EQ(lz_decompress(comp), data);
}

TEST(Lz, RoundTripMultiBlockInput) {
  Rng rng(23);
  std::string text;
  const char* words[] = {"alpha", "beta", "gamma", "delta", "epsilon"};
  while (text.size() < (3u << 20)) {  // > 2 blocks
    text += words[rng.below(5)];
    text += ' ';
  }
  std::vector<std::uint8_t> data(text.begin(), text.end());
  const auto comp = lz_compress(data);
  EXPECT_EQ(lz_decompress(comp), data);
  EXPECT_EQ(lz_raw_size(comp.data(), comp.size()), data.size());
}

TEST(Lz, DetectsCorruption) {
  std::string text(10000, 'a');
  for (std::size_t i = 0; i < text.size(); i += 7) text[i] = 'b';
  std::vector<std::uint8_t> data(text.begin(), text.end());
  auto comp = lz_compress(data);
  comp[comp.size() / 2] ^= 0xFF;
  EXPECT_DEATH((void)lz_decompress(comp), "lz");
}

TEST(FrontCoding, CommonPrefixLength) {
  EXPECT_EQ(common_prefix_length("", ""), 0u);
  EXPECT_EQ(common_prefix_length("abc", "abd"), 2u);
  EXPECT_EQ(common_prefix_length("abc", "abc"), 3u);
  EXPECT_EQ(common_prefix_length("abc", "abcdef"), 3u);
}

TEST(FrontCoding, RoundTripSortedTerms) {
  std::vector<std::string> terms = {"", "a", "aardvark", "aardwolf", "ab", "abandon",
                                    "abandoned", "zebra", "zoo"};
  const auto block = front_code(terms);
  EXPECT_EQ(front_decode(block, terms.size()), terms);
}

TEST(FrontCoding, CompressesSharedPrefixes) {
  std::vector<std::string> terms;
  for (int i = 0; i < 1000; ++i) terms.push_back("prefixsharedbyall" + std::to_string(i));
  std::sort(terms.begin(), terms.end());
  std::size_t raw = 0;
  for (const auto& t : terms) raw += t.size() + 4;
  const auto block = front_code(terms);
  EXPECT_LT(block.size(), raw / 3);
  EXPECT_EQ(front_decode(block, terms.size()), terms);
}

TEST(FrontCoding, DamagedBlockDecodesToNullopt) {
  const std::vector<std::string> terms = {"alpha", "alphabet", "beta"};
  auto block = front_code(terms);
  EXPECT_FALSE(front_decode(block, terms.size() + 1).has_value());  // runs out of bytes
  block.pop_back();
  EXPECT_FALSE(front_decode(block, terms.size()).has_value());  // truncated suffix
  block = front_code(terms);
  block[front_code({"alpha"}).size()] = 9;  // "alphabet" claims 9 shared bytes of "alpha"
  EXPECT_FALSE(front_decode(block, terms.size()).has_value());
}

TEST(FrontCoding, RejectsUnsortedInput) {
  EXPECT_DEATH((void)front_code({"b", "a"}), "sorted");
}

}  // namespace
}  // namespace hetindex
