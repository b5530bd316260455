#pragma once
/// \file list_ops.hpp
/// Reference list algebra over fully decoded postings lists — the oracles
/// the cursor-tree executor (search/executor.hpp) is diffed against. Lists
/// are doc-ID sorted, so AND/OR/NOT are linear merges; AND also comes in a
/// galloping variant for asymmetric list sizes. The positional joins count
/// matches with the executor's phrase_match_count / near_match_count.

#include <optional>
#include <string>
#include <vector>

#include "postings/cursor.hpp"
#include "postings/query.hpp"

namespace hetindex::oracle {

/// docs(a) ∩ docs(b); tf of a match is the sum of both sides' tfs.
QueryPostings postings_and(const QueryPostings& a, const QueryPostings& b);

/// docs(a) ∪ docs(b), tfs summed on overlap.
QueryPostings postings_or(const QueryPostings& a, const QueryPostings& b);

/// docs(a) \ docs(b), tfs taken from a.
QueryPostings postings_and_not(const QueryPostings& a, const QueryPostings& b);

/// Galloping (exponential-search) intersection: O(min·log(max/min)).
QueryPostings postings_and_galloping(const QueryPostings& a, const QueryPostings& b);

/// Docs present in every positional list that contain the exact phrase
/// (lists in phrase order); tf = phrase_match_count. Lists must carry
/// positions for every posting.
QueryPostings phrase_join(const std::vector<const QueryPostings*>& lists);

/// Docs present in every positional list where each term occurs within
/// `window` of an occurrence of the first; tf = near_match_count.
QueryPostings near_join(const std::vector<const QueryPostings*>& lists, std::uint32_t window);

/// Phrase query over a positional index: documents where the normalized
/// terms appear at consecutive token positions. Returns nullopt when any
/// term is absent or the index carries no positions.
std::optional<QueryPostings> phrase_query(const InvertedIndex& index,
                                          const std::vector<std::string>& terms);

/// Decodes whatever the cursor has not consumed yet into a flat list (doc
/// ids and tfs). Call on a fresh cursor to materialize the whole list.
QueryPostings materialize_cursor(PostingsCursor& cursor);

}  // namespace hetindex::oracle
