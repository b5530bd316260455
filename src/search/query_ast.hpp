#pragma once
/// \file query_ast.hpp
/// The structured query language of the serving tier: a small AST of
/// term / bag / AND / OR / PHRASE / NEAR-k nodes, plus a string parser.
/// The AST makes the operator structure first-class — a flat term list
/// plus a mode enum could say *how* one list of terms combines, but not
/// express `fast "inverted files" AND gpu` — and every backend executes
/// the tree directly (search/executor.hpp).
///
/// Grammar (loosest to tightest binding; uppercase AND/OR/NEAR are
/// operators, anything else is a term and is normalized — lowercased and
/// Porter-stemmed — at parse time):
///
///   query  := and_q (OR and_q)*
///   and_q  := near_q (AND near_q)*
///   near_q := adj (NEAR/k adj)*         operands must be plain terms
///   adj    := atom+                     adjacency: bag if all terms,
///                                       conjunction once a phrase/group
///                                       is involved
///   atom   := term | "quoted phrase" | '(' query ')'
///
/// Semantics, chosen so every operator has one deterministic integer
/// answer (the equivalence suite diffs them against brute force):
///   - PHRASE "a b c": doc matches when some position p has a@p, b@p+1,
///     c@p+2; tf = number of phrase starts.
///   - a NEAR/k b NEAR/k c (unordered): doc matches when some occurrence
///     p of the *first* term has every other term within distance k of p;
///     tf = number of such anchors.
///   - AND: docs in every operand, tf = sum of operand tfs.
///   - OR / bag under a boolean operator: docs in any operand, tf = sum.
///   - bag at the root: ranked BM25.
/// Ranking: a bag root ranks by BM25; every other root ranks by
/// (tf desc, doc id asc).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace hetindex {

/// Node kind. kBag is the implicit operator of plain adjacency
/// ("fast gpu") — ranked bag-of-words at the root, any-of inside a
/// boolean expression.
enum class QueryOp { kTerm, kBag, kAnd, kOr, kPhrase, kNear };

/// Stable lowercase identifier for logs and debug output.
constexpr const char* query_op_name(QueryOp op) {
  switch (op) {
    case QueryOp::kTerm: return "term";
    case QueryOp::kBag: return "bag";
    case QueryOp::kAnd: return "and";
    case QueryOp::kOr: return "or";
    case QueryOp::kPhrase: return "phrase";
    case QueryOp::kNear: return "near";
    default: return "unknown";
  }
}

/// One AST node. Which fields are meaningful depends on `op`:
/// kTerm uses `term`; kPhrase/kNear use `terms` (operands in query order;
/// kNear also `window`); kBag/kAnd/kOr use `children` (kBag children are
/// always kTerm).
struct QueryNode {
  QueryOp op = QueryOp::kTerm;
  std::string term;
  std::vector<std::string> terms;
  std::uint32_t window = 0;  ///< kNear: max distance from the anchor term
  std::vector<QueryNode> children;
};

/// The coarse class a query executes as — derived from the AST shape, used
/// for per-class latency reporting (CLI `serve`) and routing decisions.
enum class QueryClass {
  kRanked,       ///< bag-of-words BM25 top-k
  kConjunctive,  ///< AND root: docs with every operand
  kDisjunctive,  ///< OR root: docs with any operand
  kPhrase,       ///< contains a PHRASE node (and no NEAR)
  kProximity,    ///< contains a NEAR node
};

/// Stable lowercase identifier for logs, CLI output, and bench JSON keys.
constexpr const char* query_class_name(QueryClass c) {
  switch (c) {
    case QueryClass::kRanked: return "ranked";
    case QueryClass::kConjunctive: return "conjunctive";
    case QueryClass::kDisjunctive: return "disjunctive";
    case QueryClass::kPhrase: return "phrase";
    case QueryClass::kProximity: return "proximity";
    default: return "unknown";
  }
}

/// A parsed query: an immutable AST behind a value type. Build one with
/// parse_query() or the factories; an empty Query (default-constructed)
/// has no terms and is rejected by every backend.
class Query {
 public:
  Query() = default;

  /// A single term (ranked at the root).
  [[nodiscard]] static Query term(std::string t);
  /// Ranked bag-of-words.
  [[nodiscard]] static Query bag(std::vector<std::string> terms);
  /// AND of plain terms (a single term keeps the AND: ranked by tf).
  [[nodiscard]] static Query conjunction(std::vector<std::string> terms);
  /// OR of plain terms (a single term keeps the OR: ranked by tf).
  [[nodiscard]] static Query disjunction(std::vector<std::string> terms);
  /// Exact phrase; terms in phrase order.
  [[nodiscard]] static Query phrase(std::vector<std::string> terms);
  /// Unordered proximity: every term within `window` of the first term.
  [[nodiscard]] static Query near(std::vector<std::string> terms, std::uint32_t window);
  /// AND of arbitrary sub-queries (nested kAnd children are flattened).
  [[nodiscard]] static Query and_of(std::vector<Query> children);
  /// OR of arbitrary sub-queries (nested kOr children are flattened).
  [[nodiscard]] static Query or_of(std::vector<Query> children);
  /// Wraps an explicit node (advanced callers building trees directly).
  [[nodiscard]] static Query from_node(QueryNode root);

  [[nodiscard]] bool empty() const { return empty_; }
  [[nodiscard]] const QueryNode& root() const { return root_; }

  /// The execution class: NEAR anywhere wins, then PHRASE anywhere, then
  /// the root operator (AND → conjunctive, OR → disjunctive), else ranked.
  [[nodiscard]] QueryClass query_class() const;

  /// Depth-first leaf terms, duplicates preserved — the canonical order
  /// that ScatterStats::term_dfs is parallel to, and that the term
  /// partitioner routes whole-list fetches by.
  [[nodiscard]] std::vector<std::string> collect_terms() const;

  /// Canonical text form: parse_query(q.to_string()) reproduces the AST
  /// (terms are already normalized, so parsing is idempotent). Doubles as
  /// the wire form for cluster fan-out and the result-cache key payload.
  [[nodiscard]] std::string to_string() const;

 private:
  explicit Query(QueryNode root) : root_(std::move(root)), empty_(false) {}
  QueryNode root_;
  bool empty_ = true;
};

/// Parses the query language described in the file header. Terms are
/// normalized (lowercase + Porter stem) during parsing; tokens that
/// normalize to nothing (bare punctuation) are dropped. Errors
/// (kInvalidArgument): empty query, unbalanced parens or quotes, empty
/// phrase, NEAR over non-term operands, mixed NEAR windows, NEAR/0.
[[nodiscard]] Expected<Query> parse_query(std::string_view text);

}  // namespace hetindex
