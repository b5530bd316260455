#pragma once
/// \file posting_codecs.hpp
/// Gap compression codecs for postings lists. Document IDs within a postings
/// list are sorted, so each codec encodes the sequence of gaps
/// (first value absolute, then deltas ≥ 1) — the standard scheme the paper
/// references in §II. The pipeline default is variable-byte (§III.E:
/// "compress them with variable bytes encoding"); γ and Golomb are provided
/// for the codec comparison bench, and bit-packing for dense blocks where
/// fixed-width gaps beat vbyte's one-byte floor.
///
/// Every encoded list is self-describing: the stream carries its own codec
/// byte, so decoders never need out-of-band codec knowledge. That is what
/// lets the block writer pick a codec per block by density while the §III.F
/// byte-concatenation merge stays codec-oblivious.

#include <cstdint>
#include <span>
#include <vector>

namespace hetindex {

/// Variable-byte: 7 data bits per byte, high bit marks continuation.
/// Appends to any std::vector<std::uint8_t, Allocator>.
template <typename Bytes>
void vbyte_encode(std::uint64_t value, Bytes& out) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80u);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}
/// Decodes one value starting at `pos`, advancing `pos`.
std::uint64_t vbyte_decode(const std::uint8_t* data, std::size_t size, std::size_t& pos);
/// vbyte_decode without the abort, for readers of untrusted bytes: false
/// when the value runs past `size` or overflows 64 bits.
bool vbyte_try_decode(const std::uint8_t* data, std::size_t size, std::size_t& pos,
                      std::uint64_t& value);

/// Codec identifiers persisted in run-file headers and in each encoded
/// sub-list's codec byte. kBitPacked stores gaps and tfs as two fixed-width
/// bit streams (widths in a 2-byte prologue) — the win on dense blocks.
enum class PostingCodec : std::uint8_t { kVByte = 0, kGamma = 1, kGolomb = 2, kBitPacked = 3 };

/// Postings are chunked into self-contained sub-lists of at most this many
/// documents ("blocks"); each block re-anchors at an absolute doc id, so
/// blocks concatenate byte-wise (§III.F) and decode independently.
inline constexpr std::uint32_t kPostingsBlockSize = 128;

/// Skip-table row describing one encoded block inside a term's blob:
/// enough to seek (offset/bytes/last_doc) and to bound BM25 contributions
/// (count/max_tf) without decoding the block.
struct PostingBlockEntry {
  std::uint64_t offset = 0;   ///< byte offset of the block within the term blob
  std::uint32_t bytes = 0;    ///< encoded size of the block
  std::uint32_t last_doc = 0; ///< largest doc id in the block
  std::uint32_t count = 0;    ///< number of postings in the block
  std::uint32_t max_tf = 0;   ///< largest term frequency in the block
  friend bool operator==(const PostingBlockEntry&, const PostingBlockEntry&) = default;
};

/// Encodes a strictly-increasing docid sequence with per-doc term
/// frequencies as gaps under the chosen codec. `tfs` must be the same length
/// as `doc_ids`; each tf ≥ 1. kBitPacked rejects positional payloads.
///
/// Positional mode: when `positions` is non-null it must hold Σtfs in-doc
/// token positions (posting i owns the next tfs[i] entries, non-decreasing
/// within the document); they are stored as per-document position gaps.
/// The mode is recorded in the stream, so decoders detect it.
std::vector<std::uint8_t> encode_postings(PostingCodec codec,
                                          const std::vector<std::uint32_t>& doc_ids,
                                          const std::vector<std::uint32_t>& tfs,
                                          const std::vector<std::uint32_t>* positions = nullptr);

/// Chunks the list into blocks of ≤ kPostingsBlockSize docs, encodes each block as
/// an independent sub-list (absolute first doc id), and concatenates them.
/// `positions` holds Σtfs entries for a positional list and is empty for a
/// plain one. The codec is chosen per block by choose_block_codec, so dense
/// blocks of a vbyte list come out bit-packed. When `blocks` is non-null it
/// receives one PostingBlockEntry per block, in order. The result decodes
/// with the same back-to-back loop as any §III.F-merged blob.
std::vector<std::uint8_t> encode_postings_blocked(
    PostingCodec codec, std::span<const std::uint32_t> doc_ids,
    std::span<const std::uint32_t> tfs, std::span<const std::uint32_t> positions = {},
    std::vector<PostingBlockEntry>* blocks = nullptr);

/// Build-time density heuristic: returns the codec a block of this content
/// should use. Upgrades kVByte to kBitPacked when the fixed-width payload is
/// strictly smaller (dense lists: small gaps, uniform tfs); positional
/// blocks and non-vbyte requests pass through unchanged.
PostingCodec choose_block_codec(PostingCodec requested, std::span<const std::uint32_t> doc_ids,
                                std::span<const std::uint32_t> tfs, bool positional);

/// Inverse of encode_postings. The codec is read from the stream itself.
/// Appends into the output vectors; positions are appended into `positions`
/// (if non-null) when the stream is positional. Returns the number of bytes
/// consumed, so several encoded lists concatenated back to back (the §III.F
/// merge pass concatenates partial lists byte-wise — each sub-list's first
/// doc id is absolute) can be decoded in sequence.
std::size_t decode_postings(const std::uint8_t* data, std::size_t size,
                            std::vector<std::uint32_t>& doc_ids,
                            std::vector<std::uint32_t>& tfs,
                            std::vector<std::uint32_t>* positions = nullptr,
                            std::size_t start = 0);

/// White-box hooks for tests and the codec bench: round-trip raw value
/// sequences through each bit-level code. Values must be ≥ 1 for γ.
std::vector<std::uint8_t> gamma_encode_sequence(const std::vector<std::uint64_t>& values);
std::vector<std::uint64_t> gamma_decode_sequence(const std::vector<std::uint8_t>& data,
                                                 std::size_t count);
/// Golomb with explicit parameter b ≥ 1. Values must be ≥ 1.
std::vector<std::uint8_t> golomb_encode_sequence(const std::vector<std::uint64_t>& values,
                                                 std::uint64_t b);
std::vector<std::uint64_t> golomb_decode_sequence(const std::vector<std::uint8_t>& data,
                                                  std::size_t count, std::uint64_t b);
/// The classic optimal Golomb parameter b ≈ 0.69 · mean_gap (≥ 1).
std::uint64_t golomb_optimal_b(double mean_gap);

}  // namespace hetindex
