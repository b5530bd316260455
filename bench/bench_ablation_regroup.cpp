/// \file bench_ablation_regroup.cpp
/// Ablation of the parser's Step 5 (regrouping by trie index), §III.C:
///  (a) "the overhead of this regrouping step is relatively small, about
///      5% of the total running time of the whole parser";
///  (b) "even in the case when indexing is carried out by a serial CPU
///      thread, regrouping results in approximately 15-fold speedup"
///      (cache locality: consecutive inserts hit the same small B-tree).
/// The measured speedup on this host depends on its cache hierarchy; the
/// check is that regrouping wins clearly, not the exact 15×.

#include <algorithm>
#include <cstdio>

#include "baseline/baselines.hpp"
#include "bench_common.hpp"
#include "corpus/container.hpp"
#include "parse/parser.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

using namespace hetindex;
using namespace hetindex::bench;

int main() {
  banner("Ablation — Step 5 regrouping (overhead and serial-indexing speedup)",
         "Wei & JaJa 2011, §III.C");

  auto spec = clueweb_like(scale());
  spec.total_bytes = static_cast<std::uint64_t>(32.0 * scale() * (1 << 20));
  spec.file_bytes = 2u << 20;
  const auto coll = cached_collection(spec);

  // (a) Regrouping overhead within the whole parser (Fig. 3: Step 1 read +
  // decompress through Step 5 regroup — the paper's ~5% is of this total).
  // parse() runs Steps 2–5 fused, one pass per token, so the steps are timed
  // in isolation: for_each_term with stemming and stop-word removal off,
  // then with stemming on, then with both (Steps 2–4), then parse(). Each
  // step is the difference to the pass before it; each pass is the minimum
  // of three rounds over the collection.
  struct Passes {
    double read = 0, tokenize = 0, stem = 0, stopword = 0, parse = 0;
  };
  struct Kept {
    std::uint64_t tokenize = 0, stem = 0, stopword = 0, parse = 0;
  };
  const Parser tokenize_only({.stem = false, .remove_stopwords = false});
  const Parser with_stem({.remove_stopwords = false});
  const Parser parser;
  auto time_terms = [](const Parser& p, const std::vector<Document>& docs,
                       std::uint64_t& kept) {
    WallTimer t;
    for (const auto& doc : docs) {
      kept += p.for_each_term(doc.body, [](std::string_view, std::uint32_t) {});
    }
    return t.seconds();
  };
  Passes best;
  for (int round = 0; round < 3; ++round) {
    Passes pass;
    Kept kept;
    for (const auto& file : coll.paths()) {
      WallTimer t;
      const auto docs = container_read(file);  // read + decompress + doc ids
      pass.read += t.seconds();
      pass.tokenize += time_terms(tokenize_only, docs, kept.tokenize);
      pass.stem += time_terms(with_stem, docs, kept.stem);
      pass.stopword += time_terms(parser, docs, kept.stopword);
      WallTimer tp;
      kept.parse += parser.parse(docs, 0, 0, 0).tokens;
      pass.parse += tp.seconds();
    }
    HET_CHECK_MSG(kept.tokenize == kept.stem && kept.stopword == kept.parse,
                  "the isolated passes kept different token counts");
    if (round == 0) {
      best = pass;
      continue;
    }
    best.read = std::min(best.read, pass.read);
    best.tokenize = std::min(best.tokenize, pass.tokenize);
    best.stem = std::min(best.stem, pass.stem);
    best.stopword = std::min(best.stopword, pass.stopword);
    best.parse = std::min(best.parse, pass.parse);
  }
  const double stem = best.stem - best.tokenize;
  const double stopword = best.stopword - best.stem;
  const double regroup = best.parse - best.stopword;
  const double whole_parser = best.read + best.parse;
  const double regroup_pct = regroup / whole_parser * 100.0;
  std::printf("\nParser step breakdown over %s:\n",
              format_bytes(coll.total_uncompressed()).c_str());
  std::printf("  read+decompress:%7.3f s\n  tokenize+strip: %7.3f s\n"
              "  stem:           %7.3f s\n"
              "  stop words:     %7.3f s\n  regroup:        %7.3f s  (%.1f%% of parser)\n",
              best.read, best.tokenize, stem, stopword, regroup, regroup_pct);

  // (b) Serial indexing with vs without regrouped input.
  const auto grouped = serial_trie_index(coll.paths(), /*regrouped=*/true);
  const auto ungrouped = serial_trie_index(coll.paths(), /*regrouped=*/false);
  const double speedup = ungrouped.index_seconds / grouped.index_seconds;
  std::printf("\nSerial indexing over the same parsed stream:\n");
  std::printf("  regrouped (Step 5 on):   %8.3f s\n", grouped.index_seconds);
  std::printf("  stream order (Step 5 off):%7.3f s\n", ungrouped.index_seconds);
  std::printf("  speedup from regrouping: %8.2fx  (paper: ~15x on ClueWeb-scale\n"
              "  dictionaries; the gap grows with dictionary size vs cache size)\n",
              speedup);
  const bool terms_agree = grouped.terms() == ungrouped.terms();
  std::printf("  terms agree: %s (%llu)\n", terms_agree ? "yes" : "NO",
              static_cast<unsigned long long>(grouped.terms()));

  std::printf("\nShape checks: regroup overhead a small fraction of the parser (<20%%;\n"
              "the paper reports ~5%% — its per-MB parse cost on real web documents is\n"
              "several times ours on synthetic text, diluting the share): %s;\n"
              "regrouped indexing faster: %s\n",
              regroup_pct < 20.0 ? "PASS" : "MISS", speedup > 1.15 ? "PASS" : "MISS");
  // A shape MISS is a finding about this host; a term-count disagreement is
  // a bug in one of the two indexing orders.
  return terms_agree ? 0 : 1;
}
