#pragma once
/// \file executor.hpp
/// The one executor for every boolean and positional query (AND / OR /
/// PHRASE / NEAR roots, nested to any depth). It compiles a QueryNode tree
/// into a tree of doc-level match cursors over PostingsCursor leaves and
/// drains the root in doc-id order:
///
///   AND            the operand with the fewest postings drives; the others
///                  are seeked rarest-first, and each follower's Bloom chain
///                  is tested before any seek
///   OR / bag       the union of its operands
///   PHRASE / NEAR  two-phase: the approximation is the doc-level
///                  intersection of the leaves; phrase_match_count /
///                  near_match_count run only when a parent confirms a
///                  candidate. A PHRASE/NEAR operand of an AND joins that
///                  AND's intersection, so positions are decoded only for
///                  the AND's own survivors
///
/// tf follows query_ast.hpp: Σ operand tfs for AND and OR, the match count
/// for PHRASE/NEAR. Hits rank by (tf desc, doc id asc). Ranked (term/bag)
/// roots do not come here: they run Block-Max MaxScore (search/topk.hpp).
///
/// Leaves come from a caller-supplied source, so the Searcher (index or
/// snapshot cursors) and the term-partitioned ShardRouter (lists fetched
/// from owner shards) run the same code. A leaf may be *unavailable* (its
/// owner shard did not answer). Such a leaf is dropped: an AND or OR drops
/// that operand, a PHRASE/NEAR drops the whole constraint, and a node whose
/// every operand was dropped is itself dropped by its parent (an
/// unavailable root matches nothing).
///
/// Deadline: the root is drained in doc-id order with a clock check every
/// 256 root docs. On expiry the docs confirmed so far come back flagged
/// degraded — always a subset of the true answer, whatever the tree shape.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "postings/bloom.hpp"
#include "postings/cursor.hpp"
#include "search/query_ast.hpp"
#include "util/error.hpp"

namespace hetindex {

class TombstoneSet;  // live/tombstones.hpp

/// What one leaf term resolves to. A null cursor is an absent term (it
/// matches nothing) unless `unavailable` is set.
struct ExecLeaf {
  std::unique_ptr<PostingsCursor> cursor;
  bool unavailable = false;
};

/// Where a query's leaves come from. `open` runs once per leaf, with
/// `with_positions` set for PHRASE/NEAR operands. `bloom` (optional)
/// returns a term's Bloom chain; it runs only when an AND first tests that
/// leaf as a follower, so driving leaves never pay for a filter.
struct LeafSource {
  std::function<ExecLeaf(const std::string& term, bool with_positions)> open;
  std::function<BloomChain(const std::string& term)> bloom;
};

struct ExecResult {
  std::vector<ScoredDoc> hits;  ///< (tf desc, doc id asc), at most k
  bool degraded = false;        ///< deadline expired mid-drain
  std::uint64_t blocks_skipped = 0;
  std::uint64_t blooms_rejected = 0;
  double lookup_seconds = 0;  ///< leaf opening
  double score_seconds = 0;   ///< drain, positional checks, ranking
};

/// Per-term positions of one document, in query order: entry t holds the
/// ascending in-doc positions of term t (as current_positions() yields
/// them). The currency of the PHRASE/NEAR verifiers below.
using DocTermPositions = std::vector<std::vector<std::uint32_t>>;

/// Number of phrase starts in one document: positions p of term 0 such
/// that term t occurs at p + t for every t. The tf of a phrase match.
[[nodiscard]] std::uint32_t phrase_match_count(const DocTermPositions& term_positions);

/// Number of proximity anchors in one document: positions p of term 0
/// (the anchor term) such that every other term has an occurrence within
/// distance `window` of p, in either direction. The tf of a NEAR match.
[[nodiscard]] std::uint32_t near_match_count(const DocTermPositions& term_positions,
                                             std::uint32_t window);

/// Runs a boolean/positional tree. `excluded` (optional) drops tombstoned
/// docs. Errors: kInvalidArgument when a PHRASE/NEAR candidate's leaves
/// carry no positions (a non-positional index).
[[nodiscard]] Expected<ExecResult> execute_query(
    const QueryNode& root, const LeafSource& leaves, std::size_t k,
    std::optional<std::chrono::steady_clock::time_point> deadline,
    const TombstoneSet* excluded);

}  // namespace hetindex
