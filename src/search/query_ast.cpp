#include "search/query_ast.hpp"

#include <cctype>
#include <cstdio>
#include <utility>

#include "util/check.hpp"

namespace hetindex {

// Defined in core/hetindex.cpp (lowercase + Porter stem through the same
// tokenizer path the build pipeline uses). Declared here instead of
// including the facade header, which includes this layer.
std::string normalize_term(std::string_view raw);

namespace {

QueryNode term_node(std::string t) {
  QueryNode n;
  n.op = QueryOp::kTerm;
  n.term = std::move(t);
  return n;
}

QueryNode list_node(QueryOp op, std::vector<std::string> terms, std::uint32_t window = 0) {
  QueryNode n;
  n.op = op;
  n.terms = std::move(terms);
  n.window = window;
  return n;
}

QueryNode group_node(QueryOp op, std::vector<QueryNode> children) {
  // Flattening nested same-operator groups is semantics-preserving (tf
  // sums are associative) and gives to_string() one canonical form.
  QueryNode n;
  n.op = op;
  for (auto& child : children) {
    if (child.op == op) {
      for (auto& grand : child.children) n.children.push_back(std::move(grand));
    } else {
      n.children.push_back(std::move(child));
    }
  }
  if (n.children.size() == 1) return std::move(n.children.front());
  return n;
}

void collect_terms_into(const QueryNode& node, std::vector<std::string>& out) {
  switch (node.op) {
    case QueryOp::kTerm:
      out.push_back(node.term);
      break;
    case QueryOp::kPhrase:
    case QueryOp::kNear:
      out.insert(out.end(), node.terms.begin(), node.terms.end());
      break;
    default:
      for (const auto& child : node.children) collect_terms_into(child, out);
      break;
  }
}

bool contains_op(const QueryNode& node, QueryOp op) {
  if (node.op == op) return true;
  for (const auto& child : node.children) {
    if (contains_op(child, op)) return true;
  }
  return false;
}

/// Binding strength for minimal-parenthesis printing; higher binds tighter.
int precedence(QueryOp op) {
  switch (op) {
    case QueryOp::kOr: return 0;
    case QueryOp::kAnd: return 1;
    case QueryOp::kNear: return 2;
    case QueryOp::kBag: return 3;
    default: return 4;  // kTerm, kPhrase: atoms
  }
}

void print_node(const QueryNode& node, std::string& out) {
  switch (node.op) {
    case QueryOp::kTerm:
      out += node.term;
      break;
    case QueryOp::kPhrase:
      out += '"';
      for (std::size_t i = 0; i < node.terms.size(); ++i) {
        if (i) out += ' ';
        out += node.terms[i];
      }
      out += '"';
      break;
    case QueryOp::kNear: {
      char op_text[32];
      std::snprintf(op_text, sizeof op_text, " NEAR/%u ", node.window);
      for (std::size_t i = 0; i < node.terms.size(); ++i) {
        if (i) out += op_text;
        out += node.terms[i];
      }
      break;
    }
    default: {
      const char* sep = node.op == QueryOp::kBag ? " "
                        : node.op == QueryOp::kAnd ? " AND "
                                                   : " OR ";
      for (std::size_t i = 0; i < node.children.size(); ++i) {
        if (i) out += sep;
        const bool parens = precedence(node.children[i].op) <= precedence(node.op);
        if (parens) out += '(';
        print_node(node.children[i], out);
        if (parens) out += ')';
      }
      break;
    }
  }
}

// --- parser -----------------------------------------------------------

struct Token {
  enum Kind { kTerm, kPhrase, kAnd, kOr, kNear, kLParen, kRParen };
  explicit Token(Kind k) : kind(k) {}
  Kind kind;
  std::string term;                 // kTerm
  std::vector<std::string> terms;   // kPhrase
  std::uint32_t window = 0;         // kNear
};

Error parse_error(std::string msg) {
  return Error{ErrorCode::kInvalidArgument, "query parse: " + std::move(msg)};
}

Expected<std::vector<Token>> lex(std::string_view text) {
  std::vector<Token> tokens;
  std::size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '(') {
      tokens.push_back(Token(Token::kLParen));
      ++i;
      continue;
    }
    if (c == ')') {
      tokens.push_back(Token(Token::kRParen));
      ++i;
      continue;
    }
    if (c == '"') {
      const auto close = text.find('"', i + 1);
      if (close == std::string_view::npos) return parse_error("unterminated quote");
      Token tok(Token::kPhrase);
      std::size_t w = i + 1;
      while (w < close) {
        while (w < close && std::isspace(static_cast<unsigned char>(text[w]))) ++w;
        std::size_t end = w;
        while (end < close && !std::isspace(static_cast<unsigned char>(text[end]))) ++end;
        if (end > w) {
          auto norm = normalize_term(text.substr(w, end - w));
          if (!norm.empty()) tok.terms.push_back(std::move(norm));
        }
        w = end;
      }
      if (tok.terms.empty()) return parse_error("empty phrase");
      tokens.push_back(std::move(tok));
      i = close + 1;
      continue;
    }
    std::size_t end = i;
    while (end < text.size()) {
      const char e = text[end];
      if (std::isspace(static_cast<unsigned char>(e)) || e == '(' || e == ')' || e == '"') break;
      ++end;
    }
    const std::string_view word = text.substr(i, end - i);
    i = end;
    if (word == "AND") {
      tokens.push_back(Token(Token::kAnd));
    } else if (word == "OR") {
      tokens.push_back(Token(Token::kOr));
    } else if (word.size() > 5 && word.substr(0, 5) == "NEAR/") {
      std::uint64_t window = 0;
      bool digits = true;
      for (const char d : word.substr(5)) {
        if (d < '0' || d > '9' || window > 0xFFFFFFFFull) {
          digits = false;
          break;
        }
        window = window * 10 + static_cast<std::uint64_t>(d - '0');
      }
      if (!digits || window > 0xFFFFFFFFull) {
        return parse_error("malformed NEAR/k operator: " + std::string(word));
      }
      if (window == 0) return parse_error("NEAR window must be at least 1");
      Token tok(Token::kNear);
      tok.window = static_cast<std::uint32_t>(window);
      tokens.push_back(std::move(tok));
    } else if (word == "NEAR") {
      return parse_error("NEAR needs a window: NEAR/k");
    } else {
      auto norm = normalize_term(word);
      if (!norm.empty()) {
        Token tok(Token::kTerm);
        tok.term = std::move(norm);
        tokens.push_back(std::move(tok));
      }
      // Tokens that normalize to nothing (bare punctuation) are dropped.
    }
  }
  return tokens;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Expected<QueryNode> parse() {
    auto root = parse_or();
    if (!root) return root;
    if (pos_ != tokens_.size()) return parse_error("unexpected ')'");
    return root;
  }

 private:
  [[nodiscard]] const Token* peek() const {
    return pos_ < tokens_.size() ? &tokens_[pos_] : nullptr;
  }
  [[nodiscard]] bool at(Token::Kind k) const {
    const Token* t = peek();
    return t != nullptr && t->kind == k;
  }

  Expected<QueryNode> parse_or() {
    auto first = parse_and();
    if (!first) return first;
    std::vector<QueryNode> operands;
    operands.push_back(std::move(*first));
    while (at(Token::kOr)) {
      ++pos_;
      auto next = parse_and();
      if (!next) return next;
      operands.push_back(std::move(*next));
    }
    if (operands.size() == 1) return std::move(operands.front());
    return group_node(QueryOp::kOr, std::move(operands));
  }

  Expected<QueryNode> parse_and() {
    auto first = parse_near();
    if (!first) return first;
    std::vector<QueryNode> operands;
    operands.push_back(std::move(*first));
    while (at(Token::kAnd)) {
      ++pos_;
      auto next = parse_near();
      if (!next) return next;
      operands.push_back(std::move(*next));
    }
    if (operands.size() == 1) return std::move(operands.front());
    return group_node(QueryOp::kAnd, std::move(operands));
  }

  Expected<QueryNode> parse_near() {
    auto first = parse_adjacent();
    if (!first) return first;
    if (!at(Token::kNear)) return first;
    std::vector<QueryNode> operands;
    operands.push_back(std::move(*first));
    std::uint32_t window = 0;
    while (at(Token::kNear)) {
      const std::uint32_t w = peek()->window;
      if (window != 0 && w != window) {
        return parse_error("mixed NEAR windows in one chain");
      }
      window = w;
      ++pos_;
      auto next = parse_adjacent();
      if (!next) return next;
      operands.push_back(std::move(*next));
    }
    std::vector<std::string> terms;
    terms.reserve(operands.size());
    for (auto& op : operands) {
      if (op.op != QueryOp::kTerm) {
        return parse_error("NEAR operands must be plain terms");
      }
      terms.push_back(std::move(op.term));
    }
    return list_node(QueryOp::kNear, std::move(terms), window);
  }

  Expected<QueryNode> parse_adjacent() {
    std::vector<QueryNode> atoms;
    bool all_terms = true;
    while (at(Token::kTerm) || at(Token::kPhrase) || at(Token::kLParen)) {
      auto atom = parse_atom();
      if (!atom) return atom;
      all_terms = all_terms && atom->op == QueryOp::kTerm;
      atoms.push_back(std::move(*atom));
    }
    if (atoms.empty()) {
      return parse_error(peek() == nullptr ? "expected a term"
                                           : "expected a term before operator");
    }
    if (atoms.size() == 1) return std::move(atoms.front());
    // Plain adjacency is a ranked bag; once a phrase or group is adjacent
    // the whole run becomes a conjunction (a quoted phrase is a constraint,
    // not a scoring hint).
    return group_node(all_terms ? QueryOp::kBag : QueryOp::kAnd, std::move(atoms));
  }

  Expected<QueryNode> parse_atom() {
    const Token* t = peek();
    HET_DCHECK(t != nullptr);
    if (t->kind == Token::kTerm) {
      QueryNode n = term_node(tokens_[pos_].term);
      ++pos_;
      return n;
    }
    if (t->kind == Token::kPhrase) {
      // A one-word "phrase" is just the term.
      QueryNode n = t->terms.size() == 1 ? term_node(tokens_[pos_].terms.front())
                                         : list_node(QueryOp::kPhrase, tokens_[pos_].terms);
      ++pos_;
      return n;
    }
    HET_DCHECK(t->kind == Token::kLParen);
    ++pos_;
    auto inner = parse_or();
    if (!inner) return inner;
    if (!at(Token::kRParen)) return parse_error("missing ')'");
    ++pos_;
    return inner;
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace

Query Query::term(std::string t) { return Query(term_node(std::move(t))); }

Query Query::bag(std::vector<std::string> terms) {
  if (terms.empty()) return Query();  // keep empty() == "no leaf terms"
  std::vector<QueryNode> children;
  children.reserve(terms.size());
  for (auto& t : terms) children.push_back(term_node(std::move(t)));
  QueryNode n;
  n.op = QueryOp::kBag;
  n.children = std::move(children);
  if (n.children.size() == 1) return Query(std::move(n.children.front()));
  return Query(std::move(n));
}

/// Unlike group_node(), the boolean factories keep a single-term group
/// instead of collapsing it to the bare term: a one-term AND/OR ranks by
/// summed tf (no DocMap needed), not by BM25 like the bare term would.
Query Query::conjunction(std::vector<std::string> terms) {
  if (terms.empty()) return Query();
  QueryNode n;
  n.op = QueryOp::kAnd;
  n.children.reserve(terms.size());
  for (auto& t : terms) n.children.push_back(term_node(std::move(t)));
  return Query(std::move(n));
}

Query Query::disjunction(std::vector<std::string> terms) {
  if (terms.empty()) return Query();
  QueryNode n;
  n.op = QueryOp::kOr;
  n.children.reserve(terms.size());
  for (auto& t : terms) n.children.push_back(term_node(std::move(t)));
  return Query(std::move(n));
}

Query Query::phrase(std::vector<std::string> terms) {
  HET_CHECK_MSG(!terms.empty(), "phrase needs at least one term");
  if (terms.size() == 1) return Query(term_node(std::move(terms.front())));
  return Query(list_node(QueryOp::kPhrase, std::move(terms)));
}

Query Query::near(std::vector<std::string> terms, std::uint32_t window) {
  HET_CHECK_MSG(!terms.empty(), "NEAR needs at least one term");
  HET_CHECK_MSG(window > 0, "NEAR window must be at least 1");
  if (terms.size() == 1) return Query(term_node(std::move(terms.front())));
  return Query(list_node(QueryOp::kNear, std::move(terms), window));
}

Query Query::and_of(std::vector<Query> children) {
  if (children.empty()) return Query();
  std::vector<QueryNode> nodes;
  nodes.reserve(children.size());
  for (auto& c : children) {
    HET_CHECK_MSG(!c.empty(), "and_of: empty sub-query");
    nodes.push_back(std::move(c.root_));
  }
  return Query(group_node(QueryOp::kAnd, std::move(nodes)));
}

Query Query::or_of(std::vector<Query> children) {
  if (children.empty()) return Query();
  std::vector<QueryNode> nodes;
  nodes.reserve(children.size());
  for (auto& c : children) {
    HET_CHECK_MSG(!c.empty(), "or_of: empty sub-query");
    nodes.push_back(std::move(c.root_));
  }
  return Query(group_node(QueryOp::kOr, std::move(nodes)));
}

Query Query::from_node(QueryNode root) { return Query(std::move(root)); }

QueryClass Query::query_class() const {
  if (empty_) return QueryClass::kRanked;
  if (contains_op(root_, QueryOp::kNear)) return QueryClass::kProximity;
  if (contains_op(root_, QueryOp::kPhrase)) return QueryClass::kPhrase;
  if (root_.op == QueryOp::kAnd) return QueryClass::kConjunctive;
  if (root_.op == QueryOp::kOr) return QueryClass::kDisjunctive;
  return QueryClass::kRanked;
}

std::vector<std::string> Query::collect_terms() const {
  std::vector<std::string> out;
  if (!empty_) collect_terms_into(root_, out);
  return out;
}

std::string Query::to_string() const {
  std::string out;
  if (!empty_) print_node(root_, out);
  return out;
}

Expected<Query> parse_query(std::string_view text) {
  auto tokens = lex(text);
  if (!tokens) return tokens.error();
  if (tokens->empty()) return parse_error("empty query");
  Parser parser(std::move(*tokens));
  auto root = parser.parse();
  if (!root) return root.error();
  return Query::from_node(std::move(*root));
}

}  // namespace hetindex
