// Query AST and executor tests (docs/QUERIES.md): grammar and precedence,
// canonical-form round trips through parse_query/to_string, randomized
// phrase/NEAR equivalence against a naive positional-join oracle over
// batch and live indexes (memtable-resident docs, deletes, and
// post-compaction state), Bloom-filter on/off bit-identity with the
// search_blooms_rejected_total counter, a nested-tree oracle (random
// AND/OR/PHRASE/NEAR trees on batch, live and every cluster strategy,
// diffed against decoded-list folds), block skipping under nested trees,
// and the executor's deadline rule. The TSan and ASan tier-1 legs both
// run this file.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/hetindex.hpp"
#include "oracle/list_ops.hpp"
#include "search/searcher.hpp"

namespace hetindex {
namespace {

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("hetindex_qast_" + tag + "_" + std::to_string(counter_++)))
                .string();
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
};

struct Corpus {
  std::vector<std::string> files;
  std::vector<Document> docs;
};

Corpus make_corpus(const std::string& dir, std::uint64_t bytes, std::uint64_t seed) {
  CollectionSpec spec = wikipedia_like();
  spec.total_bytes = bytes;
  spec.seed = seed;
  const auto coll = generate_collection(spec, dir);
  Corpus corpus;
  corpus.files = coll.paths();
  for (const auto& file : corpus.files) {
    for (auto& doc : container_read(file)) corpus.docs.push_back(std::move(doc));
  }
  return corpus;
}

// ------------------------------------------------------------ grammar

TEST(QueryParse, AdjacencyIsARankedBag) {
  const auto q = parse_query("alpha beta").value();
  EXPECT_EQ(q.query_class(), QueryClass::kRanked);
  EXPECT_EQ(q.collect_terms(),
            (std::vector<std::string>{normalize_term("alpha"), normalize_term("beta")}));
}

TEST(QueryParse, OperatorsAndPrecedence) {
  // OR binds loosest, then AND, then NEAR, then adjacency.
  const auto q = parse_query("alpha beta OR gamma AND delta").value();
  EXPECT_EQ(q.query_class(), QueryClass::kDisjunctive);
  ASSERT_EQ(q.root().op, QueryOp::kOr);
  ASSERT_EQ(q.root().children.size(), 2u);
  EXPECT_EQ(q.root().children[0].op, QueryOp::kBag);
  EXPECT_EQ(q.root().children[1].op, QueryOp::kAnd);

  const auto parens = parse_query("(alpha OR beta) AND gamma").value();
  EXPECT_EQ(parens.query_class(), QueryClass::kConjunctive);
  ASSERT_EQ(parens.root().op, QueryOp::kAnd);
  EXPECT_EQ(parens.root().children[0].op, QueryOp::kOr);
}

TEST(QueryParse, PhraseAndNearForms) {
  const auto phrase = parse_query("\"alpha beta gamma\"").value();
  EXPECT_EQ(phrase.query_class(), QueryClass::kPhrase);
  ASSERT_EQ(phrase.root().op, QueryOp::kPhrase);
  EXPECT_EQ(phrase.root().terms.size(), 3u);

  const auto near = parse_query("alpha NEAR/4 beta").value();
  EXPECT_EQ(near.query_class(), QueryClass::kProximity);
  ASSERT_EQ(near.root().op, QueryOp::kNear);
  EXPECT_EQ(near.root().window, 4u);

  // A phrase inside an AND keeps the whole query in the phrase class.
  const auto mixed = parse_query("alpha AND \"beta gamma\"").value();
  EXPECT_EQ(mixed.query_class(), QueryClass::kPhrase);
}

TEST(QueryParse, TermsAreNormalizedAtParse) {
  const auto q = parse_query("Running COMPUTERS").value();
  EXPECT_EQ(q.collect_terms(),
            (std::vector<std::string>{normalize_term("Running"),
                                      normalize_term("COMPUTERS")}));
}

TEST(QueryParse, MalformedQueriesAreInvalidArgument) {
  for (const char* bad : {"", "   ", "(alpha", "alpha)", "\"alpha",
                          "alpha NEAR/0 beta", "alpha AND", "OR beta",
                          "\"\"", "alpha NEAR/2 (beta OR gamma)"}) {
    const auto r = parse_query(bad);
    ASSERT_FALSE(r.has_value()) << "accepted: '" << bad << "'";
    EXPECT_EQ(r.error().code, ErrorCode::kInvalidArgument) << bad;
  }
}

TEST(QueryFactories, EmptyInputsYieldTheEmptyQuery) {
  EXPECT_TRUE(Query().empty());
  EXPECT_TRUE(Query::bag({}).empty());
  EXPECT_TRUE(Query::conjunction({}).empty());
  EXPECT_TRUE(Query::disjunction({}).empty());
  EXPECT_TRUE(Query::and_of({}).empty());
  EXPECT_TRUE(Query::or_of({}).empty());
}

TEST(QueryFactories, SingleTermBooleanKeepsItsClass) {
  // A one-term AND/OR ranks by summed tf without a DocMap, so it must not
  // collapse into the BM25-ranked class of the bare term.
  EXPECT_EQ(Query::conjunction({"alpha"}).query_class(), QueryClass::kConjunctive);
  EXPECT_EQ(Query::disjunction({"alpha"}).query_class(), QueryClass::kDisjunctive);
  EXPECT_EQ(Query::bag({"alpha"}).query_class(), QueryClass::kRanked);
}

// ------------------------------------------------- canonical round trip

/// Random AST over a normalized vocabulary. Group factories flatten and
/// canonicalize at construction, so to_string() is already the canonical
/// form the parser reproduces. Single-child groups are never generated —
/// their printed form is the bare child, which legitimately reparses as a
/// different (equivalent-scoring) shape.
Query random_query(std::mt19937& rng, const std::vector<std::string>& vocab,
                   int depth) {
  const auto pick_terms = [&](std::size_t n) {
    std::vector<std::string> terms;
    for (std::size_t i = 0; i < n; ++i) terms.push_back(vocab[rng() % vocab.size()]);
    return terms;
  };
  const std::uint32_t choice = rng() % (depth > 0 ? 6 : 4);
  switch (choice) {
    case 0: return Query::term(vocab[rng() % vocab.size()]);
    case 1: return Query::bag(pick_terms(2 + rng() % 2));
    case 2: return Query::phrase(pick_terms(2 + rng() % 2));
    case 3: return Query::near(pick_terms(2 + rng() % 2), 1 + rng() % 5);
    default: {
      std::vector<Query> children;
      const std::size_t n = 2 + rng() % 2;
      for (std::size_t i = 0; i < n; ++i) {
        children.push_back(random_query(rng, vocab, depth - 1));
      }
      return choice == 4 ? Query::and_of(std::move(children))
                         : Query::or_of(std::move(children));
    }
  }
}

TEST(QueryRoundTrip, ParseOfToStringReproducesTheAst) {
  std::vector<std::string> vocab;
  for (const char* w : {"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}) {
    vocab.push_back(normalize_term(w));
  }
  std::mt19937 rng(1234);
  for (int trial = 0; trial < 300; ++trial) {
    const Query q = random_query(rng, vocab, 2);
    const std::string text = q.to_string();
    const auto reparsed = parse_query(text);
    ASSERT_TRUE(reparsed.has_value()) << "trial " << trial << ": '" << text << "'";
    EXPECT_EQ(reparsed.value().to_string(), text) << "trial " << trial;
    EXPECT_EQ(reparsed.value().query_class(), q.query_class()) << text;
    EXPECT_EQ(reparsed.value().collect_terms(), q.collect_terms()) << text;
  }
}

// -------------------------------------------- naive positional oracle

/// Per-doc position vectors of one decoded list: posting i owns the next
/// tfs[i] entries of the flat positions vector.
std::map<std::uint32_t, std::vector<std::uint32_t>> positions_by_doc(
    const QueryPostings& p) {
  std::map<std::uint32_t, std::vector<std::uint32_t>> out;
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < p.doc_ids.size(); ++i) {
    auto& dst = out[p.doc_ids[i]];
    for (std::uint32_t t = 0; t < p.tfs[i]; ++t) dst.push_back(p.positions[cursor++]);
  }
  return out;
}

/// The reference implementation: an O(docs × positions²) scan that shares
/// no code with phrase_match_count/near_match_count or the cursor engine.
/// `lists` in term order; a missing term empties the result. tf = phrase
/// start count, or NEAR anchor count over the FIRST term's occurrences.
std::vector<ScoredDoc> naive_positional(
    const std::vector<std::optional<QueryPostings>>& lists, bool phrase,
    std::uint32_t window, std::size_t k, const TombstoneSet* dead) {
  std::vector<ScoredDoc> hits;
  for (const auto& list : lists) {
    if (!list.has_value()) return hits;
  }
  std::vector<std::map<std::uint32_t, std::vector<std::uint32_t>>> by_doc;
  by_doc.reserve(lists.size());
  for (const auto& list : lists) by_doc.push_back(positions_by_doc(*list));
  for (const auto& [doc, anchors] : by_doc[0]) {
    if (dead != nullptr && dead->contains(doc)) continue;
    bool everywhere = true;
    for (std::size_t t = 1; t < by_doc.size() && everywhere; ++t) {
      everywhere = by_doc[t].count(doc) != 0;
    }
    if (!everywhere) continue;
    std::uint32_t tf = 0;
    for (const std::uint32_t p : anchors) {
      bool match = true;
      for (std::size_t t = 1; t < by_doc.size() && match; ++t) {
        const auto& pos = by_doc[t].at(doc);
        if (phrase) {
          match = std::find(pos.begin(), pos.end(),
                            p + static_cast<std::uint32_t>(t)) != pos.end();
        } else {
          match = false;
          for (const std::uint32_t q : pos) {
            const std::uint32_t dist = q > p ? q - p : p - q;
            if (dist <= window) {
              match = true;
              break;
            }
          }
        }
      }
      if (match) ++tf;
    }
    if (tf > 0) hits.push_back({doc, static_cast<double>(tf)});
  }
  std::sort(hits.begin(), hits.end(), [](const ScoredDoc& a, const ScoredDoc& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc_id < b.doc_id;
  });
  if (hits.size() > k) hits.resize(k);
  return hits;
}

void expect_hits_equal(const std::vector<ScoredDoc>& got,
                       const std::vector<ScoredDoc>& want, const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].doc_id, want[i].doc_id) << label << " rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << label << " rank " << i;
  }
}

/// Mixed phrase/NEAR workload: half the operand groups come from adjacent
/// tokens of real documents (likely to match), half from random vocabulary
/// draws (mostly Bloom-rejected misses).
std::vector<Query> positional_workload(std::mt19937& rng,
                                       const std::vector<Document>& docs,
                                       const std::vector<std::string>& vocab,
                                       std::size_t count) {
  const auto adjacent_pair = [&]() -> std::vector<std::string> {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const auto& body = docs[rng() % docs.size()].body;
      std::vector<std::string> tokens;
      std::string token;
      for (const char c : body) {
        if (c == ' ' || c == '\n' || c == '\t') {
          if (!token.empty()) tokens.push_back(std::move(token));
          token.clear();
        } else {
          token += c;
        }
      }
      if (!token.empty()) tokens.push_back(std::move(token));
      if (tokens.size() < 2) continue;
      const std::size_t at = rng() % (tokens.size() - 1);
      const auto a = normalize_term(tokens[at]);
      const auto b = normalize_term(tokens[at + 1]);
      if (!a.empty() && !b.empty()) return {a, b};
    }
    return {vocab[rng() % vocab.size()], vocab[rng() % vocab.size()]};
  };
  std::vector<Query> queries;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<std::string> terms =
        i % 2 == 0 ? adjacent_pair()
                   : std::vector<std::string>{vocab[rng() % vocab.size()],
                                              vocab[rng() % vocab.size()]};
    if (i % 5 == 4) terms.push_back(vocab[rng() % vocab.size()]);
    queries.push_back(i % 3 == 2 ? Query::near(std::move(terms), 1 + i % 4)
                                 : Query::phrase(std::move(terms)));
  }
  return queries;
}

/// Runs every query through `searcher` and diffs against the oracle fed by
/// `fetch` (raw positional lists) + `dead` (tombstones). `total_hits`
/// accumulates matches so callers can assert the workload was not all
/// misses.
template <typename Fetch>
void expect_matches_naive(const SearchBackend& searcher,
                          const std::vector<Query>& queries, Fetch&& fetch,
                          const TombstoneSet* dead, const std::string& label,
                          std::size_t& total_hits) {
  for (const Query& q : queries) {
    QueryRequest request;
    request.query = q;
    request.k = 1000;  // deep k: compare the full result set
    request.use_result_cache = false;
    const auto r = searcher.search(request);
    ASSERT_TRUE(r.has_value()) << label << ": " << r.error().to_string();
    const auto& node = q.root();
    std::vector<std::optional<QueryPostings>> lists;
    for (const auto& term : node.terms) lists.push_back(fetch(term));
    const auto want = naive_positional(lists, node.op == QueryOp::kPhrase,
                                       node.window, request.k, dead);
    expect_hits_equal(r.value().hits, want, label + " '" + q.to_string() + "'");
    if (::testing::Test::HasFatalFailure()) return;
    total_hits += r.value().hits.size();
  }
}

// ------------------------------------------------- batch index equivalence

class BatchPositionalFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_dir_ = new TempDir("bcorpus");
    index_dir_ = new TempDir("bindex");
    corpus_ = new Corpus(make_corpus(corpus_dir_->path(), 128 << 10, 0xA57));
    IndexBuilder builder;
    builder.parsers(1).cpu_indexers(1).emit_segment(true);
    builder.config().parser.record_positions = true;
    builder.build(corpus_->files, index_dir_->path());
  }
  static void TearDownTestSuite() {
    delete corpus_;
    delete index_dir_;
    delete corpus_dir_;
    corpus_ = nullptr;
    index_dir_ = nullptr;
    corpus_dir_ = nullptr;
  }
  static inline TempDir* corpus_dir_ = nullptr;
  static inline TempDir* index_dir_ = nullptr;
  static inline Corpus* corpus_ = nullptr;
};

TEST_F(BatchPositionalFixture, PhraseAndNearMatchNaiveJoin) {
  const auto index = InvertedIndex::open(index_dir_->path(), {}).value();
  std::vector<std::string> vocab;
  index.for_each_term([&vocab](std::string_view t) { vocab.emplace_back(t); });
  ASSERT_FALSE(vocab.empty());
  const auto searcher = Searcher::open(SearchSource::batch(index)).value();

  std::mt19937 rng(0xF00);
  const auto queries = positional_workload(rng, corpus_->docs, vocab, 60);
  std::size_t hits = 0;
  expect_matches_naive(
      *searcher, queries,
      [&index](const std::string& term) { return index.lookup_positional(term); },
      /*dead=*/nullptr, "batch", hits);
  // Half the workload is built from adjacent document tokens -- a zero
  // here means the positional path found nothing at all.
  EXPECT_GT(hits, 0u);
}

TEST_F(BatchPositionalFixture, NonPositionalIndexRejectsPhrase) {
  TempDir plain_dir("plain");
  IndexBuilder builder;
  builder.parsers(1).cpu_indexers(1).emit_segment(true);  // no positions
  builder.build(corpus_->files, plain_dir.path());
  const auto index = InvertedIndex::open(plain_dir.path(), {}).value();
  const auto searcher = Searcher::open(SearchSource::batch(index)).value();

  // Pick a term pair that co-occurs in some document so the intersection
  // survives to the positional verify. Stop words are stripped at indexing
  // but not by normalize_term, so only keep tokens the index knows about —
  // an absent term short-circuits the conjunction before the verify runs.
  std::vector<std::string> tokens;
  std::string token;
  for (const char c : corpus_->docs.front().body) {
    if (c == ' ' || c == '\n') {
      if (!token.empty()) tokens.push_back(std::move(token));
      token.clear();
    } else {
      token += c;
    }
  }
  if (!token.empty()) tokens.push_back(std::move(token));
  ASSERT_GE(tokens.size(), 2u);
  std::vector<std::string> pair;
  for (const auto& t : tokens) {
    const auto n = normalize_term(t);
    if (!n.empty() && (pair.empty() || n != pair.front()) &&
        index.lookup(n).has_value()) {
      pair.push_back(n);
    }
    if (pair.size() == 2) break;
  }
  ASSERT_EQ(pair.size(), 2u);

  QueryRequest request;
  request.query = Query::phrase(pair);
  const auto r = searcher->search(request);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kInvalidArgument);
}

// ------------------------------------------------- live tier equivalence

TEST(LivePositional, PhraseAndNearMatchNaiveJoinAcrossMutations) {
  TempDir corpus_dir("lcorpus");
  TempDir live_dir("llive");
  const auto corpus = make_corpus(corpus_dir.path(), 96 << 10, 0x11FE);

  IndexWriterOptions opts;
  opts.flush_threshold_bytes = 0;
  opts.background_compaction = false;
  opts.parser.record_positions = true;
  auto w = IndexWriter::open(live_dir.path(), opts).value();

  // Ingest with random flush points and interleaved deletes; leave a tail
  // of memtable-resident documents so the unflushed path is exercised.
  std::mt19937 rng(0x11FE);
  std::vector<std::uint32_t> live_ids;
  for (std::size_t i = 0; i < corpus.docs.size(); ++i) {
    live_ids.push_back(w.add_document(corpus.docs[i].url, corpus.docs[i].body));
    const auto roll = rng() % 17;
    if (roll == 0 && i + 8 < corpus.docs.size()) {
      ASSERT_TRUE(w.flush().has_value());
    } else if (roll == 1 && !live_ids.empty()) {
      const std::size_t victim = rng() % live_ids.size();
      ASSERT_TRUE(w.delete_document(live_ids[victim]).has_value());
      live_ids.erase(live_ids.begin() + static_cast<std::ptrdiff_t>(victim));
    }
  }

  const auto searcher =
      Searcher::open(SearchSource::live([&w] { return w.snapshot(); })).value();
  std::vector<std::string> vocab;
  w.snapshot()->for_each_term([&vocab](std::string_view t) {
    vocab.emplace_back(t);
    return true;
  });
  ASSERT_FALSE(vocab.empty());

  const auto run = [&](const std::string& label) {
    const auto snap = w.snapshot();
    std::mt19937 qrng(0xBEA7);
    const auto queries = positional_workload(qrng, corpus.docs, vocab, 60);
    std::size_t hits = 0;
    expect_matches_naive(
        *searcher, queries,
        [&snap](const std::string& term) { return snap->lookup(term); },
        snap->tombstones(), label, hits);
    EXPECT_GT(hits, 0u) << label;
  };

  run("live+memtable");  // segments + unflushed tail + tombstones

  ASSERT_TRUE(w.flush().has_value());
  ASSERT_TRUE(w.compact_now().has_value());
  run("post-compaction");  // reclaim rewrote segments with fresh filters
}

// ------------------------------------------------- nested-tree oracle

using PostingsFetch = std::function<std::optional<QueryPostings>(const std::string&)>;

/// The decoded-list reference evaluator: whole lists folded with
/// postings_and / postings_or, positional groups through phrase_join /
/// near_join (oracle/list_ops.hpp). Of the cursor-tree executor it shares
/// only the per-document phrase/NEAR match counters, which
/// naive_positional checks on their own. Returns raw doc/tf pairs;
/// tombstones are dropped at ranking.
QueryPostings oracle_eval(const QueryNode& node, const PostingsFetch& fetch) {
  switch (node.op) {
    case QueryOp::kTerm: {
      QueryPostings out;
      if (auto p = fetch(node.term)) {
        out.doc_ids = std::move(p->doc_ids);
        out.tfs = std::move(p->tfs);
      }
      return out;
    }
    case QueryOp::kPhrase:
    case QueryOp::kNear: {
      std::vector<QueryPostings> lists;
      for (const auto& term : node.terms) {
        auto p = fetch(term);
        if (!p.has_value()) return {};
        lists.push_back(std::move(*p));
      }
      std::vector<const QueryPostings*> refs;
      for (const auto& list : lists) refs.push_back(&list);
      return node.op == QueryOp::kPhrase ? oracle::phrase_join(refs)
                                         : oracle::near_join(refs, node.window);
    }
    default: {
      QueryPostings acc = oracle_eval(node.children.front(), fetch);
      for (std::size_t i = 1; i < node.children.size(); ++i) {
        const QueryPostings part = oracle_eval(node.children[i], fetch);
        acc = node.op == QueryOp::kAnd ? oracle::postings_and(acc, part)
                                       : oracle::postings_or(acc, part);
      }
      return acc;
    }
  }
}

std::vector<ScoredDoc> oracle_hits(const Query& query, const PostingsFetch& fetch,
                                   const TombstoneSet* dead, std::size_t k) {
  const QueryPostings all = oracle_eval(query.root(), fetch);
  std::vector<ScoredDoc> hits;
  for (std::size_t i = 0; i < all.doc_ids.size(); ++i) {
    if (dead != nullptr && dead->contains(all.doc_ids[i])) continue;
    hits.push_back({all.doc_ids[i], static_cast<double>(all.tfs[i])});
  }
  std::sort(hits.begin(), hits.end(), [](const ScoredDoc& a, const ScoredDoc& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc_id < b.doc_id;
  });
  if (hits.size() > k) hits.resize(k);
  return hits;
}

// ------------------------------------------------- per-block Bloom filters

TEST(BloomFilters, ConjunctionsMatchOracleAndRejectAcrossMerges) {
  TempDir corpus_dir("blcorpus");
  TempDir live_dir("bllive");
  const auto corpus = make_corpus(corpus_dir.path(), 96 << 10, 0xB100);

  IndexWriterOptions opts;
  opts.flush_threshold_bytes = 0;
  opts.background_compaction = false;
  opts.merge_factor = 2;
  opts.tier_base_bytes = 1ull << 30;  // every window is tier 0: fold to one
  opts.parser.record_positions = true;
  auto w = IndexWriter::open(live_dir.path(), opts).value();
  for (std::size_t i = 0; i < corpus.docs.size(); ++i) {
    w.add_document(corpus.docs[i].url, corpus.docs[i].body);
    if (i % 40 == 39) {  // several segments, so chains hold several links
      ASSERT_TRUE(w.flush().has_value());
    }
  }
  ASSERT_TRUE(w.flush().has_value());

  std::vector<std::string> vocab;
  w.snapshot()->for_each_term([&vocab](std::string_view t) {
    vocab.emplace_back(t);
    return true;
  });
  ASSERT_GT(vocab.size(), 4u);

  // Filtered search must equal the decoded oracle, and the filters must
  // have rejected something along the way.
  const auto run = [&](const std::string& label) {
    const auto snap = w.snapshot();
    const auto searcher = Searcher::open(SearchSource::snapshot(snap)).value();
    const PostingsFetch fetch = [&snap](const std::string& term) { return snap->lookup(term); };
    std::mt19937 rng(0xB10F);
    for (int i = 0; i < 80; ++i) {
      std::vector<std::string> terms;
      for (std::size_t t = 0; t < 2 + rng() % 2; ++t) {
        terms.push_back(vocab[rng() % vocab.size()]);
      }
      QueryRequest request;
      request.query = i % 4 == 3 ? Query::phrase(terms) : Query::conjunction(terms);
      request.k = 50;
      request.use_result_cache = false;
      const auto got = searcher->search(request);
      ASSERT_TRUE(got.has_value()) << got.error().to_string();
      expect_hits_equal(got.value().hits, oracle_hits(request.query, fetch, nullptr, 50),
                        label + " '" + request.query.to_string() + "'");
    }
    EXPECT_GT(searcher->metrics().snapshot().counter("search_blooms_rejected_total"), 0u)
        << label;
  };
  run("flushed segments");

  // Compaction re-blocks every term of the window, so the merged segment
  // holds fresh, fuller blocks, each with its own filter.
  const std::size_t before = w.snapshot()->segment_count();
  ASSERT_TRUE(w.compact_now().has_value());
  ASSERT_EQ(w.snapshot()->segment_count(), 1u) << "from " << before << " segments";
  EXPECT_EQ(w.metrics().snapshot().counter("compaction_reclaimed_docs_total"), 0u);
  run("merged segment");
}

std::vector<std::string> normalized_tokens(const std::string& body) {
  std::vector<std::string> out;
  std::string token;
  for (const char c : body + ' ') {
    if (c == ' ' || c == '\n' || c == '\t') {
      auto norm = normalize_term(token);
      if (!norm.empty()) out.push_back(std::move(norm));
      token.clear();
    } else {
      token += c;
    }
  }
  return out;
}

/// Leaf material for random trees: a small pool of real document tokens
/// (so leaves repeat and conjunctions meet), adjacent token runs (so
/// phrases match), and a term no document holds.
struct TreeVocab {
  std::vector<std::string> terms;
  std::vector<std::vector<std::string>> runs;
};

constexpr const char* kAbsentTerm = "zzqnotaterm";

TreeVocab tree_vocab(std::mt19937& rng, const std::vector<Document>& docs) {
  TreeVocab v;
  while (v.runs.size() < 12) {
    const auto tokens = normalized_tokens(docs[rng() % docs.size()].body);
    if (tokens.size() < 3) continue;
    for (int i = 0; i < 3; ++i) v.terms.push_back(tokens[rng() % tokens.size()]);
    const std::size_t at = rng() % (tokens.size() - 2);
    v.runs.push_back({tokens[at], tokens[at + 1]});
    if (rng() % 3 == 0) v.runs.back().push_back(tokens[at + 2]);
  }
  v.terms.push_back(kAbsentTerm);
  v.runs.push_back({v.terms.front(), kAbsentTerm});
  return v;
}

Query random_tree(std::mt19937& rng, const TreeVocab& v, int depth) {
  const auto term = [&] { return v.terms[rng() % v.terms.size()]; };
  const std::uint32_t choice = rng() % (depth > 0 ? 6 : 3);
  switch (choice) {
    case 0: return Query::term(term());
    case 1: return Query::phrase(v.runs[rng() % v.runs.size()]);
    case 2: {
      auto terms = rng() % 2 ? v.runs[rng() % v.runs.size()]
                             : std::vector<std::string>{term(), term()};
      return Query::near(std::move(terms), 1 + rng() % 6);
    }
    default: {
      std::vector<Query> children;
      const std::size_t n = 2 + rng() % 2;
      for (std::size_t i = 0; i < n; ++i) children.push_back(random_tree(rng, v, depth - 1));
      if (rng() % 4 == 0) children.push_back(children.front());  // duplicate subtree
      return choice == 5 ? Query::or_of(std::move(children))
                         : Query::and_of(std::move(children));
    }
  }
}

/// Random AND/OR-rooted trees of depth up to 3.
std::vector<Query> nested_trees(std::uint32_t seed, const std::vector<Document>& docs,
                                std::size_t count) {
  std::mt19937 rng(seed);
  const TreeVocab vocab = tree_vocab(rng, docs);
  std::vector<Query> trees;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<Query> children = {random_tree(rng, vocab, 2), random_tree(rng, vocab, 2)};
    trees.push_back(i % 2 == 0 ? Query::or_of(std::move(children))
                               : Query::and_of(std::move(children)));
  }
  return trees;
}

/// Diffs every tree through `backend` against the oracle; returns the total
/// hit count so callers can assert the workload matched something.
std::size_t expect_trees_match_oracle(const SearchBackend& backend,
                                      const std::vector<Query>& trees,
                                      const PostingsFetch& fetch, const TombstoneSet* dead,
                                      const std::string& label) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < trees.size(); ++i) {
    QueryRequest request;
    request.query = trees[i];
    request.k = i % 3 == 0 ? 10 : 1000;  // shallow k checks the tie order too
    request.use_result_cache = false;
    const std::string what = label + " '" + trees[i].to_string() + "'";
    const auto r = backend.search(request);
    EXPECT_TRUE(r.has_value()) << what << ": " << r.error().to_string();
    if (!r.has_value()) continue;
    EXPECT_EQ(r.value().degradation, Degradation::kComplete) << what;
    expect_hits_equal(r.value().hits, oracle_hits(trees[i], fetch, dead, request.k), what);
    total += r.value().hits.size();
  }
  return total;
}

TEST_F(BatchPositionalFixture, NestedTreesMatchDecodedOracle) {
  const auto index = InvertedIndex::open(index_dir_->path(), {}).value();
  const auto searcher = Searcher::open(SearchSource::batch(index)).value();
  const auto hits = expect_trees_match_oracle(
      *searcher, nested_trees(0x7E1, corpus_->docs, 120),
      [&index](const std::string& term) { return index.lookup_positional(term); },
      /*dead=*/nullptr, "batch");
  EXPECT_GT(hits, 0u);
}

TEST(LivePositional, NestedTreesMatchDecodedOracle) {
  TempDir corpus_dir("ncorpus");
  TempDir live_dir("nlive");
  const auto corpus = make_corpus(corpus_dir.path(), 96 << 10, 0x7E2);
  IndexWriterOptions opts;
  opts.flush_threshold_bytes = 0;
  opts.background_compaction = false;
  opts.parser.record_positions = true;
  auto w = IndexWriter::open(live_dir.path(), opts).value();
  std::mt19937 rng(0x7E2);
  std::vector<std::uint32_t> live_ids;
  for (std::size_t i = 0; i < corpus.docs.size(); ++i) {
    live_ids.push_back(w.add_document(corpus.docs[i].url, corpus.docs[i].body));
    const auto roll = rng() % 11;
    if (roll == 0 && i + 8 < corpus.docs.size()) {  // keep a memtable tail
      ASSERT_TRUE(w.flush().has_value());
    } else if (roll == 1) {
      const std::size_t victim = rng() % live_ids.size();
      ASSERT_TRUE(w.delete_document(live_ids[victim]).has_value());
      live_ids.erase(live_ids.begin() + static_cast<std::ptrdiff_t>(victim));
    }
  }
  const auto snap = w.snapshot();
  ASSERT_GT(snap->segments().size(), 1u);
  ASSERT_NE(snap->memtable(), nullptr);
  const auto searcher = Searcher::open(SearchSource::snapshot(snap)).value();
  const auto hits = expect_trees_match_oracle(
      *searcher, nested_trees(0x7E3, corpus.docs, 120),
      [&snap](const std::string& term) { return snap->lookup(term); }, snap->tombstones(),
      "live");
  EXPECT_GT(hits, 0u);
}

class NestedClusterOracle : public ::testing::TestWithParam<PartitionStrategy> {};

TEST_P(NestedClusterOracle, NestedTreesMatchDecodedOracle) {
  // The cluster and a single-node twin take the same operations, so global
  // ids coincide and the twin's decoded lists feed the oracle.
  TempDir corpus_dir("ccorpus");
  TempDir cluster_dir("cluster");
  TempDir union_dir("union");
  const auto corpus = make_corpus(corpus_dir.path(), 64 << 10, 0x7E4);
  IndexWriterOptions wopts;
  wopts.flush_threshold_bytes = 0;
  wopts.background_compaction = false;
  wopts.parser.record_positions = true;
  ClusterOptions copts;
  copts.strategy = GetParam();
  copts.shards = 3;
  copts.block_docs = 8;
  copts.writer = wopts;
  auto cluster = Cluster::open(cluster_dir.path(), copts).value();
  auto unioned = IndexWriter::open(union_dir.path(), wopts).value();
  std::mt19937 rng(0x7E4);
  std::vector<std::uint32_t> live_ids;
  for (const auto& doc : corpus.docs) {
    const std::uint32_t id = cluster.add_document(doc.url, doc.body);
    ASSERT_EQ(id, unioned.add_document(doc.url, doc.body));
    live_ids.push_back(id);
    const auto roll = rng() % 13;
    if (roll == 0) {
      ASSERT_TRUE(cluster.flush().has_value());
      ASSERT_TRUE(unioned.flush().has_value());
    } else if (roll == 1) {
      const std::size_t victim = rng() % live_ids.size();
      ASSERT_TRUE(cluster.delete_document(live_ids[victim]).has_value());
      ASSERT_TRUE(unioned.delete_document(live_ids[victim]).has_value());
      live_ids.erase(live_ids.begin() + static_cast<std::ptrdiff_t>(victim));
    }
  }
  const auto router = cluster.make_router();
  const auto snap = unioned.snapshot();
  const auto hits = expect_trees_match_oracle(
      *router, nested_trees(0x7E5, corpus.docs, 60),
      [&snap](const std::string& term) { return snap->lookup(term); }, snap->tombstones(),
      partition_strategy_name(GetParam()));
  EXPECT_GT(hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, NestedClusterOracle,
                         ::testing::Values(PartitionStrategy::kDocument,
                                           PartitionStrategy::kTerm,
                                           PartitionStrategy::kBlock),
                         [](const auto& info) {
                           return std::string(partition_strategy_name(info.param));
                         });

// ------------------------------------------ skipping and deadline rule

/// Dictionary terms of a batch index with their document frequencies,
/// most frequent first.
std::vector<std::pair<std::size_t, std::string>> terms_by_df(const InvertedIndex& index) {
  std::vector<std::pair<std::size_t, std::string>> out;
  index.for_each_term([&](std::string_view t) {
    out.emplace_back(index.lookup(t)->doc_ids.size(), std::string(t));
  });
  std::sort(out.begin(), out.end(), std::greater<>());
  return out;
}

TEST(NestedSkipping, RareAndCommonDisjunctionSkipsBlocks) {
  TempDir corpus_dir("kcorpus");
  TempDir index_dir("kindex");
  const auto corpus = make_corpus(corpus_dir.path(), 1 << 20, 0x5C1);
  IndexBuilder builder;
  builder.parsers(1).cpu_indexers(1).emit_segment(true);
  builder.build(corpus.files, index_dir.path());
  const auto index = InvertedIndex::open(index_dir.path(), {}).value();
  const auto by_df = terms_by_df(index);
  ASSERT_GE(by_df.size(), 2u);
  const std::string& common_a = by_df[0].second;
  const std::string& common_b = by_df[1].second;
  ASSERT_GT(by_df[1].first, 2 * kPostingsBlockSize);
  // A rare term found only past both common lists' first blocks: when it
  // drives, seeking the OR's cursors must pass those blocks undecoded.
  const std::uint32_t past = std::max(index.lookup(common_a)->doc_ids[kPostingsBlockSize],
                                      index.lookup(common_b)->doc_ids[kPostingsBlockSize]);
  std::string rare;
  for (auto it = by_df.rbegin(); it != by_df.rend() && rare.empty(); ++it) {
    if (index.lookup(it->second)->doc_ids.front() > past) rare = it->second;
  }
  ASSERT_FALSE(rare.empty());

  const auto searcher = Searcher::open(SearchSource::batch(index)).value();
  QueryRequest request;
  request.query =
      Query::and_of({Query::term(rare), Query::disjunction({common_a, common_b})});
  request.k = 1000;
  const auto r = searcher->search(request);
  ASSERT_TRUE(r.has_value()) << r.error().to_string();
  expect_hits_equal(
      r.value().hits,
      oracle_hits(request.query, [&](const std::string& t) { return index.lookup(t); },
                  nullptr, request.k),
      "nested skip");
  EXPECT_GT(searcher->metrics().snapshot().counter("search_blocks_skipped_total"), 0u);
}

TEST(ExecutorDeadline, OrRootDeadlineReturnsFlaggedSubset) {
  TempDir corpus_dir("dcorpus");
  TempDir live_dir("dlive");
  const auto corpus = make_corpus(corpus_dir.path(), 1 << 20, 0xDEAD);
  IndexWriterOptions opts;
  opts.flush_threshold_bytes = 0;
  opts.background_compaction = false;
  auto w = IndexWriter::open(live_dir.path(), opts).value();
  for (const auto& doc : corpus.docs) w.add_document(doc.url, doc.body);
  ASSERT_TRUE(w.flush().has_value());
  const auto snap = w.snapshot();

  // The most frequent terms: their union covers nearly every document.
  std::vector<std::pair<std::size_t, std::string>> by_df;
  snap->for_each_term([&](std::string_view t) {
    by_df.emplace_back(snap->lookup(t)->doc_ids.size(), std::string(t));
    return true;
  });
  std::sort(by_df.begin(), by_df.end(), std::greater<>());
  std::vector<std::string> commons;
  for (std::size_t i = 0; i < 8 && i < by_df.size(); ++i) commons.push_back(by_df[i].second);

  QueryRequest request;
  request.query = Query::disjunction(commons);
  request.k = 1 << 20;  // the whole answer, so a partial one must be a subset
  request.use_result_cache = false;
  const auto full = Searcher::open(SearchSource::snapshot(snap)).value()->search(request);
  ASSERT_TRUE(full.has_value());
  ASSERT_EQ(full.value().degradation, Degradation::kComplete);
  ASSERT_GT(full.value().hits.size(), 256u);  // the drain reaches a clock check

  // The provider runs after the entry deadline check, so a provider slower
  // than the budget expires the deadline mid-drain, deterministically.
  const auto slow = Searcher::open(SearchSource::live([snap] {
                      std::this_thread::sleep_for(std::chrono::milliseconds(20));
                      return snap;
                    })).value();
  const auto partial =
      slow->search(request, std::chrono::steady_clock::now() + std::chrono::milliseconds(5));
  ASSERT_TRUE(partial.has_value()) << partial.error().to_string();
  EXPECT_EQ(partial.value().degradation, Degradation::kDeadlinePartial);
  EXPECT_LT(partial.value().hits.size(), full.value().hits.size());
  std::map<std::uint32_t, double> truth;
  for (const auto& hit : full.value().hits) truth[hit.doc_id] = hit.score;
  for (const auto& hit : partial.value().hits) {
    const auto it = truth.find(hit.doc_id);
    ASSERT_NE(it, truth.end()) << "doc " << hit.doc_id << " is not in the full answer";
    EXPECT_EQ(it->second, hit.score) << "doc " << hit.doc_id;
  }
}
}  // namespace
}  // namespace hetindex
