// Tests for the text substrate: tokenizer, Porter stemmer, stop words and
// HTML stripping (parser Steps 2–4 of Fig. 3).

#include <gtest/gtest.h>

#include "text/html_strip.hpp"
#include "text/porter.hpp"
#include "text/stopwords.hpp"
#include "text/tokenizer.hpp"

namespace hetindex {
namespace {

TEST(Tokenizer, SplitsOnNonAlnum) {
  EXPECT_EQ(tokenize_to_vector("Hello, world! foo-bar_baz"),
            (std::vector<std::string>{"hello", "world", "foo", "bar", "baz"}));
}

TEST(Tokenizer, Lowercases) {
  EXPECT_EQ(tokenize_to_vector("CamelCase UPPER"),
            (std::vector<std::string>{"camelcase", "upper"}));
}

TEST(Tokenizer, KeepsDigitsAndMixedTokens) {
  EXPECT_EQ(tokenize_to_vector("3d 0195 954"),
            (std::vector<std::string>{"3d", "0195", "954"}));
}

TEST(Tokenizer, PassesNonAsciiBytesThrough) {
  const auto tokens = tokenize_to_vector("caf\xC3\xA9 time");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], "caf\xC3\xA9");
}

TEST(Tokenizer, EmptyAndSeparatorOnlyInputs) {
  EXPECT_TRUE(tokenize_to_vector("").empty());
  EXPECT_TRUE(tokenize_to_vector("  .,;!?  \n\t").empty());
}

TEST(Tokenizer, TruncatesOverlongTokens) {
  const std::string longtok(600, 'a');
  const auto tokens = tokenize_to_vector(longtok + " next");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].size(), kMaxTokenBytes);
  EXPECT_EQ(tokens[1], "next");
}

TEST(Tokenizer, TokenAtEndOfInput) {
  EXPECT_EQ(tokenize_to_vector("trailing token"),
            (std::vector<std::string>{"trailing", "token"}));
}

struct StemCase {
  const char* in;
  const char* out;
};

class PorterVector : public ::testing::TestWithParam<StemCase> {};

TEST_P(PorterVector, MatchesReferenceBehaviour) {
  EXPECT_EQ(porter_stem(GetParam().in), GetParam().out)
      << "input: " << GetParam().in;
}

INSTANTIATE_TEST_SUITE_P(
    ClassicVectors, PorterVector,
    ::testing::Values(
        // Step 1a
        StemCase{"caresses", "caress"}, StemCase{"ponies", "poni"}, StemCase{"ties", "ti"},
        StemCase{"caress", "caress"}, StemCase{"cats", "cat"},
        // Step 1b
        StemCase{"feed", "feed"}, StemCase{"agreed", "agre"},
        StemCase{"plastered", "plaster"}, StemCase{"motoring", "motor"},
        StemCase{"hopping", "hop"}, StemCase{"falling", "fall"},
        StemCase{"hissing", "hiss"}, StemCase{"filing", "file"},
        StemCase{"conflated", "conflat"},
        // Step 1c
        StemCase{"happy", "happi"}, StemCase{"sky", "sky"},
        // Step 2
        StemCase{"relational", "relat"}, StemCase{"conditional", "condit"},
        StemCase{"valenci", "valenc"}, StemCase{"hesitanci", "hesit"},
        StemCase{"digitizer", "digit"}, StemCase{"operator", "oper"},
        StemCase{"feudalism", "feudal"}, StemCase{"decisiveness", "decis"},
        StemCase{"hopefulness", "hope"}, StemCase{"formaliti", "formal"},
        // Step 3
        StemCase{"triplicate", "triplic"}, StemCase{"formative", "form"},
        StemCase{"formalize", "formal"}, StemCase{"electriciti", "electr"},
        StemCase{"electrical", "electr"}, StemCase{"hopeful", "hope"},
        StemCase{"goodness", "good"},
        // Step 4
        StemCase{"revival", "reviv"}, StemCase{"allowance", "allow"},
        StemCase{"inference", "infer"}, StemCase{"airliner", "airlin"},
        StemCase{"adjustable", "adjust"}, StemCase{"defensible", "defens"},
        StemCase{"irritant", "irrit"}, StemCase{"replacement", "replac"},
        StemCase{"adjustment", "adjust"}, StemCase{"dependent", "depend"},
        StemCase{"adoption", "adopt"}, StemCase{"activate", "activ"},
        StemCase{"angulariti", "angular"}, StemCase{"homologous", "homolog"},
        StemCase{"effective", "effect"}, StemCase{"bowdlerize", "bowdler"},
        // Step 5
        StemCase{"probate", "probat"}, StemCase{"rate", "rate"},
        StemCase{"controll", "control"}, StemCase{"roll", "roll"},
        // Multi-step chains
        StemCase{"generalizations", "gener"}, StemCase{"oscillators", "oscil"}));

TEST(Porter, LeavesShortWordsAlone) {
  EXPECT_EQ(porter_stem("a"), "a");
  EXPECT_EQ(porter_stem("at"), "at");
  EXPECT_EQ(porter_stem("as"), "as");
}

TEST(Porter, LeavesNonAlphaWordsAlone) {
  EXPECT_EQ(porter_stem("3d"), "3d");
  EXPECT_EQ(porter_stem("0195"), "0195");
  EXPECT_EQ(porter_stem("caf\xC3\xA9"), "caf\xC3\xA9");
}

TEST(Porter, NeverLengthensOutput) {
  // The inverted-file format relies on stemmed tokens fitting the original
  // 255-byte bound.
  for (const char* w : {"parallelization", "parallelism", "parallelize", "running",
                        "connectivity", "internationalization"}) {
    EXPECT_LE(porter_stem(w).size(), std::string_view(w).size()) << w;
  }
}

TEST(Porter, PaperExampleParallelFamily) {
  // §II: "parallelize, parallelization, parallelism are all based on
  // parallel" — all three must map to the same stem.
  const auto a = porter_stem("parallelize");
  const auto b = porter_stem("parallelization");
  const auto c = porter_stem("parallelism");
  EXPECT_EQ(a, b);
  EXPECT_EQ(b, c);
}

TEST(Porter, InplaceMatchesStringApi) {
  for (const char* w : {"caresses", "hopping", "generalizations", "sky"}) {
    std::string buf(w);
    buf.push_back('\0');
    const std::size_t n = porter_stem_inplace(buf.data(), std::string_view(w).size());
    EXPECT_EQ(std::string_view(buf.data(), n), porter_stem(w));
  }
}

TEST(StopWords, DefaultListContainsPaperExamples) {
  const auto& sw = default_stopwords();
  // §II: common terms "such as 'the', 'to', 'and'".
  EXPECT_TRUE(sw.contains("the"));
  EXPECT_TRUE(sw.contains("to"));
  EXPECT_TRUE(sw.contains("and"));
  EXPECT_FALSE(sw.contains("parallel"));
  EXPECT_FALSE(sw.contains("indexer"));
}

TEST(StopWords, ContainsStemmedForms) {
  // Fig. 3 removes stop words after stemming, so the set must cover the
  // stemmed surface of every stop word.
  const auto& sw = default_stopwords();
  EXPECT_TRUE(sw.contains(porter_stem("above")));   // "abov"
  EXPECT_TRUE(sw.contains(porter_stem("being")));
  EXPECT_TRUE(sw.contains(porter_stem("ourselves")));
  EXPECT_TRUE(sw.contains(porter_stem("having")));
}

TEST(HtmlStrip, RemovesTagsKeepsText) {
  EXPECT_EQ(html_strip("<p>Hello <b>world</b></p>"), " Hello  world  ");
}

TEST(HtmlStrip, DropsScriptAndStyleBodies) {
  const auto out = html_strip("a<script>var x=1;</script>b<style>p{}</style>c");
  EXPECT_EQ(out, "a b c");
}

TEST(HtmlStrip, DropsComments) {
  EXPECT_EQ(html_strip("x<!-- hidden words -->y"), "x y");
}

TEST(HtmlStrip, DecodesCommonEntities) {
  EXPECT_EQ(html_strip("a&amp;b &lt;tag&gt; &quot;q&quot; &nbsp;"), "a&b <tag> \"q\"  ");
}

TEST(HtmlStrip, NumericEntitiesBecomeSeparators) {
  EXPECT_EQ(html_strip("a&#8212;b"), "a b");
}

TEST(HtmlStrip, UnterminatedTagIsLiteral) {
  EXPECT_EQ(html_strip("3 < 4 and text"), "3 < 4 and text");
}

TEST(HtmlStrip, TokenizerIntegration) {
  const auto text = html_strip("<html><body><h1>Fast Indexing</h1>"
                               "<script>ignore()</script><p>on GPUs</p></body></html>");
  EXPECT_EQ(tokenize_to_vector(text),
            (std::vector<std::string>{"fast", "indexing", "on", "gpus"}));
}

}  // namespace
}  // namespace hetindex
