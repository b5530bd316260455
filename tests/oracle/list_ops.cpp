#include "oracle/list_ops.hpp"

#include <algorithm>

#include "search/executor.hpp"

namespace hetindex::oracle {

QueryPostings postings_and(const QueryPostings& a, const QueryPostings& b) {
  QueryPostings out;
  std::size_t i = 0, j = 0;
  while (i < a.doc_ids.size() && j < b.doc_ids.size()) {
    if (a.doc_ids[i] < b.doc_ids[j]) {
      ++i;
    } else if (a.doc_ids[i] > b.doc_ids[j]) {
      ++j;
    } else {
      out.doc_ids.push_back(a.doc_ids[i]);
      out.tfs.push_back(a.tfs[i] + b.tfs[j]);
      ++i;
      ++j;
    }
  }
  return out;
}

QueryPostings postings_or(const QueryPostings& a, const QueryPostings& b) {
  QueryPostings out;
  out.doc_ids.reserve(a.doc_ids.size() + b.doc_ids.size());
  std::size_t i = 0, j = 0;
  while (i < a.doc_ids.size() || j < b.doc_ids.size()) {
    if (j >= b.doc_ids.size() || (i < a.doc_ids.size() && a.doc_ids[i] < b.doc_ids[j])) {
      out.doc_ids.push_back(a.doc_ids[i]);
      out.tfs.push_back(a.tfs[i]);
      ++i;
    } else if (i >= a.doc_ids.size() || b.doc_ids[j] < a.doc_ids[i]) {
      out.doc_ids.push_back(b.doc_ids[j]);
      out.tfs.push_back(b.tfs[j]);
      ++j;
    } else {
      out.doc_ids.push_back(a.doc_ids[i]);
      out.tfs.push_back(a.tfs[i] + b.tfs[j]);
      ++i;
      ++j;
    }
  }
  return out;
}

QueryPostings postings_and_not(const QueryPostings& a, const QueryPostings& b) {
  QueryPostings out;
  std::size_t j = 0;
  for (std::size_t i = 0; i < a.doc_ids.size(); ++i) {
    while (j < b.doc_ids.size() && b.doc_ids[j] < a.doc_ids[i]) ++j;
    if (j < b.doc_ids.size() && b.doc_ids[j] == a.doc_ids[i]) continue;
    out.doc_ids.push_back(a.doc_ids[i]);
    out.tfs.push_back(a.tfs[i]);
  }
  return out;
}

QueryPostings postings_and_galloping(const QueryPostings& a, const QueryPostings& b) {
  // Iterate the shorter list, gallop in the longer one.
  const QueryPostings& small = a.doc_ids.size() <= b.doc_ids.size() ? a : b;
  const QueryPostings& large = a.doc_ids.size() <= b.doc_ids.size() ? b : a;
  QueryPostings out;
  std::size_t lo = 0;
  for (std::size_t i = 0; i < small.doc_ids.size(); ++i) {
    const std::uint32_t target = small.doc_ids[i];
    // Exponential probe from lo.
    std::size_t step = 1, hi = lo;
    while (hi < large.doc_ids.size() && large.doc_ids[hi] < target) {
      lo = hi;
      hi += step;
      step <<= 1;
    }
    hi = std::min(hi + 1, large.doc_ids.size());
    const auto it = std::lower_bound(large.doc_ids.begin() + static_cast<std::ptrdiff_t>(lo),
                                     large.doc_ids.begin() + static_cast<std::ptrdiff_t>(hi),
                                     target);
    lo = static_cast<std::size_t>(it - large.doc_ids.begin());
    if (lo < large.doc_ids.size() && large.doc_ids[lo] == target) {
      out.doc_ids.push_back(target);
      out.tfs.push_back(small.tfs[i] + large.tfs[lo]);
    }
  }
  return out;
}

namespace {

/// Walks documents present in every list; for each aligned doc, calls
/// `count` on the per-term positions and keeps docs with count > 0.
template <typename CountFn>
QueryPostings positional_join(const std::vector<const QueryPostings*>& lists,
                              CountFn&& count) {
  QueryPostings out;
  if (lists.empty()) return out;
  // offsets[t][i]: where posting i of list t starts in its position stream.
  std::vector<std::vector<std::size_t>> offsets;
  offsets.reserve(lists.size());
  for (const auto* list : lists) {
    std::vector<std::size_t>& o = offsets.emplace_back(list->doc_ids.size() + 1, 0);
    for (std::size_t i = 0; i < list->tfs.size(); ++i) o[i + 1] = o[i] + list->tfs[i];
  }

  std::vector<std::size_t> cursor(lists.size(), 0);
  DocTermPositions positions(lists.size());
  while (true) {
    // Align all cursors on the same doc id: advance everyone to the max of
    // the current heads until they agree (or some list ends).
    bool done = false;
    bool aligned = false;
    std::uint32_t doc = 0;
    while (!done && !aligned) {
      doc = 0;
      for (std::size_t t = 0; t < lists.size(); ++t) {
        if (cursor[t] >= lists[t]->doc_ids.size()) {
          done = true;
          break;
        }
        doc = std::max(doc, lists[t]->doc_ids[cursor[t]]);
      }
      if (done) break;
      aligned = true;
      for (std::size_t t = 0; t < lists.size(); ++t) {
        while (cursor[t] < lists[t]->doc_ids.size() && lists[t]->doc_ids[cursor[t]] < doc)
          ++cursor[t];
        if (cursor[t] >= lists[t]->doc_ids.size()) {
          done = true;
          break;
        }
        if (lists[t]->doc_ids[cursor[t]] != doc) aligned = false;
      }
    }
    if (done) break;

    for (std::size_t t = 0; t < lists.size(); ++t) {
      const auto& pos = lists[t]->positions;
      positions[t].assign(pos.begin() + static_cast<std::ptrdiff_t>(offsets[t][cursor[t]]),
                          pos.begin() + static_cast<std::ptrdiff_t>(offsets[t][cursor[t] + 1]));
    }
    const std::uint32_t matches = count(positions);
    if (matches > 0) {
      out.doc_ids.push_back(doc);
      out.tfs.push_back(matches);
    }
    for (std::size_t t = 0; t < lists.size(); ++t) ++cursor[t];
  }
  return out;
}

}  // namespace

QueryPostings phrase_join(const std::vector<const QueryPostings*>& lists) {
  return positional_join(lists, [](const DocTermPositions& p) { return phrase_match_count(p); });
}

QueryPostings near_join(const std::vector<const QueryPostings*>& lists,
                        std::uint32_t window) {
  return positional_join(
      lists, [window](const DocTermPositions& p) { return near_match_count(p, window); });
}

std::optional<QueryPostings> phrase_query(const InvertedIndex& index,
                                          const std::vector<std::string>& terms) {
  if (terms.empty()) return std::nullopt;
  std::vector<QueryPostings> lists;
  lists.reserve(terms.size());
  for (const auto& term : terms) {
    auto postings = index.lookup_positional(term);
    if (!postings) return std::nullopt;
    if (postings->positions.empty() && !postings->doc_ids.empty()) {
      return std::nullopt;  // index built without positions
    }
    lists.push_back(std::move(*postings));
  }
  std::vector<const QueryPostings*> refs;
  refs.reserve(lists.size());
  for (const auto& list : lists) refs.push_back(&list);
  // Terms stay in phrase order — no rarest-first trick here since
  // adjacency is order-sensitive anyway.
  return phrase_join(refs);
}

}  // namespace hetindex::oracle
