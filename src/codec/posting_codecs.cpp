#include "codec/posting_codecs.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "codec/bit_io.hpp"
#include "util/check.hpp"

namespace hetindex {

bool vbyte_try_decode(const std::uint8_t* data, std::size_t size, std::size_t& pos,
                      std::uint64_t& value) {
  value = 0;
  for (unsigned shift = 0; shift < 64 && pos < size; shift += 7) {
    const std::uint8_t byte = data[pos++];
    value |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) return true;
  }
  return false;
}

std::uint64_t vbyte_decode(const std::uint8_t* data, std::size_t size, std::size_t& pos) {
  std::uint64_t value = 0;
  HET_CHECK_MSG(vbyte_try_decode(data, size, pos, value), "vbyte stream overrun or overflow");
  return value;
}

namespace {

void gamma_put(BitWriter& bw, std::uint64_t v) {
  HET_DCHECK(v >= 1);
  const unsigned bits = 63 - static_cast<unsigned>(std::countl_zero(v));
  bw.write_unary(bits);
  bw.write(v & ((std::uint64_t{1} << bits) - 1), bits);
}

std::uint64_t gamma_get(BitReader& br) {
  const auto bits = static_cast<unsigned>(br.read_unary());
  HET_CHECK_MSG(bits < 64, "gamma code overflow");
  return (std::uint64_t{1} << bits) | br.read(bits);
}

void golomb_put(BitWriter& bw, std::uint64_t v, std::uint64_t b) {
  HET_DCHECK(v >= 1 && b >= 1);
  const std::uint64_t x = v - 1;  // Golomb codes non-negative residuals
  bw.write_unary(x / b);
  const std::uint64_t r = x % b;
  // Truncated binary encoding of the remainder.
  const unsigned k = (b == 1) ? 0 : 64 - static_cast<unsigned>(std::countl_zero(b - 1));
  const std::uint64_t cutoff = (std::uint64_t{1} << k) - b;
  if (r < cutoff) {
    if (k > 0) bw.write(r, k - 1);
  } else {
    bw.write(r + cutoff, k);
  }
}

std::uint64_t golomb_get(BitReader& br, std::uint64_t b) {
  const std::uint64_t q = br.read_unary();
  const unsigned k = (b == 1) ? 0 : 64 - static_cast<unsigned>(std::countl_zero(b - 1));
  const std::uint64_t cutoff = (std::uint64_t{1} << k) - b;
  std::uint64_t r = 0;
  if (b > 1) {
    r = br.read(k - 1);
    if (r >= cutoff) r = ((r << 1) | br.read(1)) - cutoff;
  }
  return q * b + r + 1;
}

unsigned bit_width_u64(std::uint64_t v) {
  HET_DCHECK(v >= 1);
  return 64 - static_cast<unsigned>(std::countl_zero(v));
}

std::size_t vbyte_length(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Doc-gap symbols exactly as the encoder emits them: first doc id +1, then
/// deltas (all ≥ 1).
std::uint64_t gap_symbol(std::span<const std::uint32_t> doc_ids, std::size_t i) {
  return i == 0 ? std::uint64_t{doc_ids[0]} + 1
                : std::uint64_t{doc_ids[i]} - doc_ids[i - 1];
}

/// fn(symbol) over the list's symbol stream, checking it on the way: per
/// posting its doc gap and tf, then in positional mode its tf in-document
/// positions as +1-shifted gaps relative to the previous position in the
/// same doc. Codecs that need two passes (Golomb's mean) call it twice.
template <typename Fn>
void for_each_symbol(std::span<const std::uint32_t> doc_ids, std::span<const std::uint32_t> tfs,
                     std::span<const std::uint32_t> positions, Fn&& fn) {
  std::size_t pos_cursor = 0;
  for (std::size_t i = 0; i < doc_ids.size(); ++i) {
    HET_CHECK_MSG(i == 0 || doc_ids[i] > doc_ids[i - 1],
                  "postings doc ids must be strictly increasing");
    HET_CHECK_MSG(tfs[i] >= 1, "term frequency must be positive");
    fn(gap_symbol(doc_ids, i));
    fn(std::uint64_t{tfs[i]});
    if (positions.empty()) continue;
    HET_CHECK_MSG(pos_cursor + tfs[i] <= positions.size(),
                  "positions shorter than sum of term frequencies");
    std::uint32_t prev_pos = 0;
    for (std::uint32_t k = 0; k < tfs[i]; ++k) {
      const std::uint32_t p = positions[pos_cursor++];
      HET_CHECK_MSG(k == 0 || p >= prev_pos, "positions must be non-decreasing in a doc");
      fn(k == 0 ? std::uint64_t{p} + 1 : std::uint64_t{p} - prev_pos + 1);
      prev_pos = p;
    }
  }
  HET_CHECK_MSG(positions.empty() || pos_cursor == positions.size(),
                "positions longer than sum of term frequencies");
}

/// Appends one self-describing sub-list to `out`; an empty `positions`
/// means a plain (non-positional) list.
void encode_into(PostingCodec codec, std::span<const std::uint32_t> doc_ids,
                 std::span<const std::uint32_t> tfs, std::span<const std::uint32_t> positions,
                 std::vector<std::uint8_t>& out) {
  HET_CHECK(doc_ids.size() == tfs.size());
  const bool positional = !positions.empty();
  HET_CHECK_MSG(!(positional && codec == PostingCodec::kBitPacked),
                "bit-packed codec does not support positions");
  // Common header: count, codec byte (high bit = positional), and for
  // Golomb the parameter b.
  vbyte_encode(doc_ids.size(), out);
  out.push_back(static_cast<std::uint8_t>(codec) |
                static_cast<std::uint8_t>(positional ? 0x80 : 0));
  if (doc_ids.empty()) return;

  switch (codec) {
    case PostingCodec::kVByte:
      for_each_symbol(doc_ids, tfs, positions, [&](std::uint64_t s) { vbyte_encode(s, out); });
      break;
    case PostingCodec::kGamma: {
      BitWriter bw(out);
      for_each_symbol(doc_ids, tfs, positions, [&](std::uint64_t s) { gamma_put(bw, s); });
      bw.flush();
      break;
    }
    case PostingCodec::kGolomb: {
      // Parameter from the mean of all symbols (dominated by doc gaps).
      double mean = 0;
      std::size_t symbols = 0;
      for_each_symbol(doc_ids, tfs, positions, [&](std::uint64_t s) {
        mean += static_cast<double>(s);
        ++symbols;
      });
      mean /= static_cast<double>(symbols);
      const std::uint64_t b = golomb_optimal_b(mean);
      vbyte_encode(b, out);
      BitWriter bw(out);
      for_each_symbol(doc_ids, tfs, positions, [&](std::uint64_t s) { golomb_put(bw, s, b); });
      bw.flush();
      break;
    }
    case PostingCodec::kBitPacked: {
      // Non-positional: symbols alternate gap, tf. Two fixed-width streams
      // (all gaps, then all tfs) behind a 2-byte width prologue.
      std::uint64_t max_sym[2] = {1, 1};  // gap, tf
      std::size_t parity = 0;
      for_each_symbol(doc_ids, tfs, positions, [&](std::uint64_t s) {
        max_sym[parity] = std::max(max_sym[parity], s);
        parity ^= 1;
      });
      const unsigned doc_bits = bit_width_u64(max_sym[0]);
      const unsigned tf_bits = bit_width_u64(max_sym[1]);
      out.push_back(static_cast<std::uint8_t>(doc_bits));
      out.push_back(static_cast<std::uint8_t>(tf_bits));
      BitWriter bw(out);
      for (std::size_t i = 0; i < doc_ids.size(); ++i) bw.write(gap_symbol(doc_ids, i), doc_bits);
      for (const auto tf : tfs) bw.write(tf, tf_bits);
      bw.flush();
      break;
    }
  }
}

}  // namespace

PostingCodec choose_block_codec(PostingCodec requested, std::span<const std::uint32_t> doc_ids,
                                std::span<const std::uint32_t> tfs, bool positional) {
  if (requested != PostingCodec::kVByte || positional || doc_ids.empty()) return requested;
  std::uint64_t max_gap = 0, max_tf = 0;
  std::size_t vbyte_payload = 0;
  for (std::size_t i = 0; i < doc_ids.size(); ++i) {
    const std::uint64_t gap = gap_symbol(doc_ids, i);
    max_gap = std::max(max_gap, gap);
    max_tf = std::max<std::uint64_t>(max_tf, tfs[i]);
    vbyte_payload += vbyte_length(gap) + vbyte_length(tfs[i]);
  }
  const unsigned per_posting_bits = bit_width_u64(max_gap) + bit_width_u64(max_tf);
  const std::size_t packed_payload = 2 + (doc_ids.size() * per_posting_bits + 7) / 8;
  return packed_payload < vbyte_payload ? PostingCodec::kBitPacked : PostingCodec::kVByte;
}

std::vector<std::uint8_t> encode_postings(PostingCodec codec,
                                          const std::vector<std::uint32_t>& doc_ids,
                                          const std::vector<std::uint32_t>& tfs,
                                          const std::vector<std::uint32_t>* positions) {
  std::vector<std::uint8_t> out;
  const std::vector<std::uint32_t> plain;
  encode_into(codec, doc_ids, tfs, positions != nullptr ? *positions : plain, out);
  return out;
}

std::vector<std::uint8_t> encode_postings_blocked(
    PostingCodec codec, std::span<const std::uint32_t> doc_ids,
    std::span<const std::uint32_t> tfs, std::span<const std::uint32_t> positions,
    std::vector<PostingBlockEntry>* blocks) {
  HET_CHECK(doc_ids.size() == tfs.size());
  std::vector<std::uint8_t> out;
  out.reserve(doc_ids.size() * 2 + 16);
  // An empty list still needs a decodable header so readers agree on the
  // consumed bytes; it contributes no block entries.
  if (doc_ids.empty()) encode_into(codec, doc_ids, tfs, positions, out);

  // Each block is encoded straight into `out` from its index range; the
  // positions slice is the next Σtfs entries.
  const bool positional = !positions.empty();
  std::size_t pos_cursor = 0;
  for (std::size_t b = 0; b < doc_ids.size(); b += kPostingsBlockSize) {
    const std::size_t n = std::min<std::size_t>(kPostingsBlockSize, doc_ids.size() - b);
    const auto ids = doc_ids.subspan(b, n);
    const auto block_tfs = tfs.subspan(b, n);
    std::size_t tf_sum = 0;
    if (positional) {
      for (const auto tf : block_tfs) tf_sum += tf;
      HET_CHECK_MSG(pos_cursor + tf_sum <= positions.size(),
                    "positions shorter than sum of term frequencies");
    }
    const std::size_t offset = out.size();
    encode_into(choose_block_codec(codec, ids, block_tfs, positional), ids, block_tfs,
                positions.subspan(pos_cursor, tf_sum), out);
    pos_cursor += tf_sum;
    if (blocks != nullptr) {
      blocks->push_back({offset, static_cast<std::uint32_t>(out.size() - offset), ids.back(),
                         static_cast<std::uint32_t>(n),
                         *std::max_element(block_tfs.begin(), block_tfs.end())});
    }
  }
  HET_CHECK_MSG(pos_cursor == positions.size(), "positions longer than sum of term frequencies");
  return out;
}

std::size_t decode_postings(const std::uint8_t* data, std::size_t size,
                            std::vector<std::uint32_t>& doc_ids,
                            std::vector<std::uint32_t>& tfs,
                            std::vector<std::uint32_t>* positions, std::size_t start) {
  std::size_t pos = start;
  const std::uint64_t count = vbyte_decode(data, size, pos);
  HET_CHECK_MSG(pos < size, "truncated postings header");
  const std::uint8_t codec_byte = data[pos++];
  const bool positional = (codec_byte & 0x80) != 0;
  const std::uint8_t codec_id = codec_byte & 0x7F;
  HET_CHECK_MSG(codec_id <= static_cast<std::uint8_t>(PostingCodec::kBitPacked),
                "unknown postings codec");
  const auto codec = static_cast<PostingCodec>(codec_id);
  if (count == 0) return pos - start;

  auto emit = [&](std::uint64_t gap, std::uint64_t tf, bool first, std::uint32_t& prev) {
    const std::uint64_t id = first ? gap - 1 : prev + gap;
    HET_CHECK(id <= 0xFFFFFFFFull && tf <= 0xFFFFFFFFull);
    doc_ids.push_back(static_cast<std::uint32_t>(id));
    tfs.push_back(static_cast<std::uint32_t>(tf));
    prev = static_cast<std::uint32_t>(id);
  };
  auto emit_pos = [&](std::uint64_t pgap, bool first, std::uint32_t& prev_pos) {
    const std::uint64_t p = first ? pgap - 1 : prev_pos + pgap - 1;
    HET_CHECK(p <= 0xFFFFFFFFull);
    if (positions != nullptr) positions->push_back(static_cast<std::uint32_t>(p));
    prev_pos = static_cast<std::uint32_t>(p);
  };

  std::uint32_t prev = 0;
  switch (codec) {
    case PostingCodec::kVByte:
      for (std::uint64_t i = 0; i < count; ++i) {
        const auto gap = vbyte_decode(data, size, pos);
        const auto tf = vbyte_decode(data, size, pos);
        emit(gap, tf, i == 0, prev);
        if (positional) {
          std::uint32_t prev_pos = 0;
          for (std::uint64_t k = 0; k < tf; ++k)
            emit_pos(vbyte_decode(data, size, pos), k == 0, prev_pos);
        }
      }
      break;
    case PostingCodec::kGamma: {
      BitReader br(data + pos, size - pos);
      for (std::uint64_t i = 0; i < count; ++i) {
        const auto gap = gamma_get(br);
        const auto tf = gamma_get(br);
        emit(gap, tf, i == 0, prev);
        if (positional) {
          std::uint32_t prev_pos = 0;
          for (std::uint64_t k = 0; k < tf; ++k) emit_pos(gamma_get(br), k == 0, prev_pos);
        }
      }
      pos += (br.bits_consumed() + 7) / 8;  // encoder flushes to a byte edge
      break;
    }
    case PostingCodec::kGolomb: {
      const std::uint64_t b = vbyte_decode(data, size, pos);
      BitReader br(data + pos, size - pos);
      for (std::uint64_t i = 0; i < count; ++i) {
        const auto gap = golomb_get(br, b);
        const auto tf = golomb_get(br, b);
        emit(gap, tf, i == 0, prev);
        if (positional) {
          std::uint32_t prev_pos = 0;
          for (std::uint64_t k = 0; k < tf; ++k)
            emit_pos(golomb_get(br, b), k == 0, prev_pos);
        }
      }
      pos += (br.bits_consumed() + 7) / 8;
      break;
    }
    case PostingCodec::kBitPacked: {
      HET_CHECK_MSG(!positional, "bit-packed codec does not support positions");
      HET_CHECK_MSG(pos + 2 <= size, "truncated bit-packed prologue");
      const unsigned doc_bits = data[pos++];
      const unsigned tf_bits = data[pos++];
      HET_CHECK_MSG(doc_bits >= 1 && doc_bits <= 64 && tf_bits >= 1 && tf_bits <= 64,
                    "bit-packed width out of range");
      // One reader per lane: gaps, then tfs from count * doc_bits on.
      BitReader gaps(data + pos, size - pos), tf_lane(data + pos, size - pos);
      tf_lane.skip(count * doc_bits);
      for (std::uint64_t i = 0; i < count; ++i) {
        emit(gaps.read(doc_bits), tf_lane.read(tf_bits), i == 0, prev);
      }
      pos += (tf_lane.bits_consumed() + 7) / 8;
      break;
    }
  }
  return pos - start;
}

std::vector<std::uint8_t> gamma_encode_sequence(const std::vector<std::uint64_t>& values) {
  std::vector<std::uint8_t> out;
  BitWriter bw(out);
  for (auto v : values) gamma_put(bw, v);
  bw.flush();
  return out;
}

std::vector<std::uint64_t> gamma_decode_sequence(const std::vector<std::uint8_t>& data,
                                                 std::size_t count) {
  std::vector<std::uint64_t> values;
  values.reserve(count);
  BitReader br(data.data(), data.size());
  for (std::size_t i = 0; i < count; ++i) values.push_back(gamma_get(br));
  return values;
}

std::vector<std::uint8_t> golomb_encode_sequence(const std::vector<std::uint64_t>& values,
                                                 std::uint64_t b) {
  HET_CHECK(b >= 1);
  std::vector<std::uint8_t> out;
  BitWriter bw(out);
  for (auto v : values) golomb_put(bw, v, b);
  bw.flush();
  return out;
}

std::vector<std::uint64_t> golomb_decode_sequence(const std::vector<std::uint8_t>& data,
                                                  std::size_t count, std::uint64_t b) {
  HET_CHECK(b >= 1);
  std::vector<std::uint64_t> values;
  values.reserve(count);
  BitReader br(data.data(), data.size());
  for (std::size_t i = 0; i < count; ++i) values.push_back(golomb_get(br, b));
  return values;
}

std::uint64_t golomb_optimal_b(double mean_gap) {
  const double b = 0.69 * mean_gap;
  return b < 1.0 ? 1 : static_cast<std::uint64_t>(b);
}

}  // namespace hetindex
