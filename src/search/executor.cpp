#include "search/executor.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "live/tombstones.hpp"
#include "postings/boolean_ops.hpp"
#include "util/timer.hpp"

namespace hetindex {

namespace {

constexpr std::uint32_t kEnd = std::numeric_limits<std::uint32_t>::max();

/// Root docs between deadline checks (a clock read per doc would dominate
/// small lists).
constexpr std::uint64_t kDeadlineStride = 256;

/// Per-query state shared by every node of one tree.
struct ExecState {
  const TombstoneSet* excluded = nullptr;
  std::uint64_t blooms_rejected = 0;
  bool positions_missing = false;  ///< a PHRASE/NEAR leaf had no positions
  std::vector<std::unique_ptr<PostingsCursor>> leaves;  ///< owned here, borrowed by nodes
};

/// A doc-level match cursor. docid() is the node's current approximation
/// doc (kEnd once exhausted; meaningful after the first seek()); matches()
/// confirms it and sets tf(). Composites get no block-max members.
class MatchCursor {
 public:
  virtual ~MatchCursor() = default;
  [[nodiscard]] std::uint32_t docid() const { return doc_; }
  [[nodiscard]] std::uint32_t tf() const { return tf_; }
  /// Next approximation doc. Requires docid() != kEnd.
  virtual void next() = 0;
  /// First approximation doc >= target; never moves backwards.
  virtual void seek(std::uint32_t target) = 0;
  [[nodiscard]] virtual bool matches() = 0;
  /// Postings upper bound — the drive-order key.
  [[nodiscard]] virtual std::uint64_t size() const = 0;
  /// False ⇒ `doc` cannot match (Bloom chains have no false negatives).
  [[nodiscard]] virtual bool may_contain(std::uint32_t doc) = 0;

 protected:
  std::uint32_t doc_ = 0;
  std::uint32_t tf_ = 0;
  bool started_ = false;  ///< composites: seek() has run once
};

class LeafCursor final : public MatchCursor {
 public:
  LeafCursor(PostingsCursor& postings, const std::string& term, const LeafSource& source)
      : postings_(postings), term_(term), source_(source) {}

  void next() override {
    postings_.next();
    sync();
  }
  void seek(std::uint32_t target) override {
    postings_.seek(target);
    sync();
  }
  bool matches() override {
    tf_ = postings_.tf();
    return true;
  }
  [[nodiscard]] std::uint64_t size() const override { return postings_.size(); }
  [[nodiscard]] bool may_contain(std::uint32_t doc) override {
    if (!bloom_loaded_ && source_.bloom) bloom_ = source_.bloom(term_);
    bloom_loaded_ = true;
    return bloom_.may_contain(doc);
  }
  /// Replaces `out` with the current doc's positions; false without any.
  [[nodiscard]] bool positions(std::vector<std::uint32_t>& out) {
    out.clear();
    return postings_.current_positions(out);
  }

 private:
  void sync() { doc_ = postings_.valid() ? postings_.docid() : kEnd; }

  PostingsCursor& postings_;
  const std::string& term_;  // the QueryNode's, which outlives the query
  const LeafSource& source_;
  BloomChain bloom_;  // fetched on first may_contain()
  bool bloom_loaded_ = false;
};

/// AND, and PHRASE/NEAR as one-operand ANDs: the doc-level intersection of
/// `conjuncts`, confirmed operand by operand.
class Conjunction final : public MatchCursor {
 public:
  /// One operand: a tf source (a term or composite conjunct), or a
  /// positional group whose leaves are also conjuncts.
  struct Part {
    MatchCursor* source = nullptr;
    const QueryNode* group = nullptr;
    std::vector<LeafCursor*> leaves;
    DocTermPositions positions;  // per-candidate scratch; capacity is reused
  };

  Conjunction(std::vector<std::unique_ptr<MatchCursor>> conjuncts, std::vector<Part> parts,
              ExecState& state)
      : conj_(std::move(conjuncts)), parts_(std::move(parts)), state_(state) {
    // Rarest drives; followers answer seeks rarest-first so the cheapest
    // refutation runs before the expensive common lists.
    std::stable_sort(conj_.begin(), conj_.end(), [](const auto& a, const auto& b) {
      return a->size() < b->size();
    });
  }

  void next() override {
    conj_[0]->next();
    align();
  }
  void seek(std::uint32_t target) override {
    if (started_ && doc_ >= target) return;
    started_ = true;
    conj_[0]->seek(target);
    align();
  }

  bool matches() override {
    std::uint32_t tf = 0;
    for (Part& part : parts_) {
      if (part.source != nullptr) {
        if (!part.source->matches()) return false;
        tf += part.source->tf();
        continue;
      }
      for (std::size_t j = 0; j < part.leaves.size(); ++j) {
        if (!part.leaves[j]->positions(part.positions[j])) {
          state_.positions_missing = true;
          return false;
        }
      }
      const std::uint32_t count = part.group->op == QueryOp::kPhrase
                                      ? phrase_match_count(part.positions)
                                      : near_match_count(part.positions, part.group->window);
      if (count == 0) return false;
      tf += count;
    }
    tf_ = tf;
    return true;
  }

  [[nodiscard]] std::uint64_t size() const override { return conj_[0]->size(); }
  [[nodiscard]] bool may_contain(std::uint32_t doc) override {
    return std::all_of(conj_.begin(), conj_.end(),
                       [doc](const auto& c) { return c->may_contain(doc); });
  }

 private:
  /// Advances the driver to the next doc every follower holds.
  void align() {
    MatchCursor& lead = *conj_[0];
    for (; lead.docid() != kEnd; lead.next()) {
      const std::uint32_t d = lead.docid();
      if (state_.excluded != nullptr && state_.excluded->contains(d)) continue;
      // Bloom rejection BEFORE any follower seek: one definite "absent"
      // saves every remaining seek and the block decodes behind them.
      bool maybe = true;
      for (std::size_t i = 1; i < conj_.size() && maybe; ++i) {
        maybe = conj_[i]->may_contain(d);
      }
      if (!maybe) {
        ++state_.blooms_rejected;
        continue;
      }
      bool all = true;
      for (std::size_t i = 1; i < conj_.size() && all; ++i) {
        conj_[i]->seek(d);
        if (conj_[i]->docid() == kEnd) {  // a follower ran dry: no more matches
          doc_ = kEnd;
          return;
        }
        all = conj_[i]->docid() == d;
      }
      if (all) {
        doc_ = d;
        return;
      }
    }
    doc_ = kEnd;
  }

  std::vector<std::unique_ptr<MatchCursor>> conj_;
  std::vector<Part> parts_;
  ExecState& state_;
};

/// OR / bag: the union of its operands.
class Disjunction final : public MatchCursor {
 public:
  explicit Disjunction(std::vector<std::unique_ptr<MatchCursor>> children)
      : children_(std::move(children)) {
    for (const auto& c : children_) size_ += c->size();
  }

  void next() override {
    for (auto& c : children_) {
      if (c->docid() == doc_) c->next();
    }
    settle();
  }
  void seek(std::uint32_t target) override {
    if (started_ && doc_ >= target) return;
    started_ = true;
    for (auto& c : children_) c->seek(target);
    settle();
  }

  bool matches() override {
    std::uint32_t tf = 0;
    bool any = false;
    for (auto& c : children_) {
      if (c->docid() == doc_ && c->matches()) {
        any = true;
        tf += c->tf();
      }
    }
    tf_ = tf;
    return any;
  }

  [[nodiscard]] std::uint64_t size() const override { return size_; }
  [[nodiscard]] bool may_contain(std::uint32_t doc) override {
    return std::any_of(children_.begin(), children_.end(),
                       [doc](const auto& c) { return c->may_contain(doc); });
  }

 private:
  void settle() {
    doc_ = kEnd;
    for (const auto& c : children_) doc_ = std::min(doc_, c->docid());
  }

  std::vector<std::unique_ptr<MatchCursor>> children_;
  std::uint64_t size_ = 0;
};

/// A compiled node: a cursor, or null for a node that matches nothing
/// (absent) or — when `unavailable` — one its parent drops.
struct Compiled {
  std::unique_ptr<MatchCursor> cursor;
  bool unavailable = false;
};

class Compiler {
 public:
  Compiler(const LeafSource& source, ExecState& state) : source_(source), state_(state) {}

  Compiled compile(const QueryNode& node) {
    switch (node.op) {
      case QueryOp::kTerm: return leaf(node.term, /*with_positions=*/false);
      case QueryOp::kBag:
      case QueryOp::kOr: return disjunction(node);
      case QueryOp::kAnd: {
        std::vector<const QueryNode*> operands;
        for (const auto& child : node.children) operands.push_back(&child);
        return conjunction(operands);
      }
      default: return conjunction({&node});  // PHRASE / NEAR: a one-operand AND
    }
  }

 private:
  Compiled leaf(const std::string& term, bool with_positions) {
    ExecLeaf opened = source_.open(term, with_positions);
    if (opened.cursor == nullptr) return {nullptr, opened.unavailable};
    state_.leaves.push_back(std::move(opened.cursor));
    return {std::make_unique<LeafCursor>(*state_.leaves.back(), term, source_)};
  }

  Compiled disjunction(const QueryNode& node) {
    std::vector<std::unique_ptr<MatchCursor>> children;
    bool all_unavailable = true;
    for (const auto& child : node.children) {
      Compiled c = compile(child);
      all_unavailable = all_unavailable && c.unavailable;
      if (c.cursor != nullptr) children.push_back(std::move(c.cursor));
    }
    if (children.empty()) return {nullptr, all_unavailable};
    if (children.size() == 1) return {std::move(children.front())};
    return {std::make_unique<Disjunction>(std::move(children))};
  }

  Compiled conjunction(const std::vector<const QueryNode*>& operands) {
    std::vector<std::unique_ptr<MatchCursor>> conjuncts;
    std::vector<Conjunction::Part> parts;
    for (const QueryNode* operand : operands) {
      Conjunction::Part part;
      if (operand->op == QueryOp::kPhrase || operand->op == QueryOp::kNear) {
        std::vector<std::unique_ptr<MatchCursor>> leaves;
        bool unavailable = false;
        bool absent = false;
        for (const auto& term : operand->terms) {
          Compiled c = leaf(term, /*with_positions=*/true);
          if (c.cursor == nullptr) {
            (c.unavailable ? unavailable : absent) = true;
            continue;
          }
          part.leaves.push_back(static_cast<LeafCursor*>(c.cursor.get()));
          leaves.push_back(std::move(c.cursor));
        }
        if (unavailable) continue;  // an unverifiable constraint is dropped
        if (absent) return {};      // matches nothing, so neither does the AND
        part.group = operand;
        part.positions.resize(part.leaves.size());
        for (auto& l : leaves) conjuncts.push_back(std::move(l));
      } else {
        Compiled c = compile(*operand);
        if (c.unavailable) continue;
        if (c.cursor == nullptr) return {};
        part.source = c.cursor.get();
        conjuncts.push_back(std::move(c.cursor));
      }
      parts.push_back(std::move(part));
    }
    if (conjuncts.empty()) return {nullptr, /*unavailable=*/true};  // all dropped
    return {std::make_unique<Conjunction>(std::move(conjuncts), std::move(parts), state_)};
  }

  const LeafSource& source_;
  ExecState& state_;
};

}  // namespace

Expected<ExecResult> execute_query(
    const QueryNode& root, const LeafSource& leaves, std::size_t k,
    std::optional<std::chrono::steady_clock::time_point> deadline,
    const TombstoneSet* excluded) {
  ExecResult result;
  ExecState state;
  state.excluded = excluded;
  const WallTimer lookup_timer;
  const Compiled compiled = Compiler(leaves, state).compile(root);
  result.lookup_seconds = lookup_timer.seconds();

  const WallTimer score_timer;
  auto& hits = result.hits;
  if (MatchCursor* cursor = compiled.cursor.get()) {
    std::uint64_t steps = 0;
    for (cursor->seek(0); cursor->docid() != kEnd; cursor->next()) {
      if (++steps % kDeadlineStride == 0 && deadline &&
          std::chrono::steady_clock::now() >= *deadline) {
        result.degraded = true;  // every hit so far is confirmed: a subset
        break;
      }
      const std::uint32_t d = cursor->docid();
      if (excluded != nullptr && excluded->contains(d)) continue;
      if (cursor->matches()) hits.push_back({d, static_cast<double>(cursor->tf())});
      if (state.positions_missing) {
        return Error{ErrorCode::kInvalidArgument,
                     "phrase/NEAR query requires a positional index"};
      }
    }
  }
  const std::size_t keep = std::min(k, hits.size());
  std::partial_sort(hits.begin(), hits.begin() + static_cast<std::ptrdiff_t>(keep), hits.end(),
                    [](const ScoredDoc& a, const ScoredDoc& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.doc_id < b.doc_id;
                    });
  hits.resize(keep);
  result.score_seconds = score_timer.seconds();
  for (const auto& leaf : state.leaves) result.blocks_skipped += leaf->blocks_skipped();
  result.blooms_rejected = state.blooms_rejected;
  return result;
}

}  // namespace hetindex
