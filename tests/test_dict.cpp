// Tests for the hybrid trie + B-tree dictionary (§III.B, Tables I & II).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <string>

#include "dict/btree.hpp"
#include "dict/dictionary.hpp"
#include "dict/trie_table.hpp"
#include "util/rng.hpp"

namespace hetindex {
namespace {

// ---------------------------------------------------------------- Table I

TEST(TrieTable, CollectionCountMatchesTableI) {
  EXPECT_EQ(kTrieCollections, 17613u);
}

TEST(TrieTable, SpecialTermsMapToZero) {
  // Table I examples for index 0: "-80", "3d", "Česky".
  EXPECT_EQ(trie_index("3d"), 0u);
  EXPECT_EQ(trie_index("\xC4\x8C"
                       "esky"),
            0u);
  EXPECT_EQ(trie_index(""), 0u);
  EXPECT_EQ(trie_index("9lives"), 0u);  // digit-led but not a pure number
}

TEST(TrieTable, PureNumbersGroupByFirstDigit) {
  EXPECT_EQ(trie_index("01"), 1u);    // Table I: "01", "0195" → 1
  EXPECT_EQ(trie_index("0195"), 1u);
  EXPECT_EQ(trie_index("9"), 10u);    // Table I: "9", "954" → 10
  EXPECT_EQ(trie_index("954"), 10u);
  EXPECT_EQ(trie_index("5"), 6u);
}

TEST(TrieTable, ShortOrSpecialLetterTermsGroupByFirstLetter) {
  // Table I index 11 examples: "a", "at", "act", "año"-likes.
  EXPECT_EQ(trie_index("a"), 11u);
  EXPECT_EQ(trie_index("at"), 11u);
  EXPECT_EQ(trie_index("act"), 11u);
  EXPECT_EQ(trie_index("z"), 36u);
  EXPECT_EQ(trie_index("zoo"), 36u);
  // >3 letters but special char within the first 3 → still the letter bucket.
  EXPECT_EQ(trie_index("zo\xC3\xA9"), 36u);
  EXPECT_EQ(trie_index("a1bc"), 11u);
}

TEST(TrieTable, LongTermsUseThreeLetterPrefix) {
  EXPECT_EQ(trie_index("aaat"), 37u);          // Table I: "aaat" → 37
  EXPECT_EQ(trie_index("aabomycin"), 38u);     // Table I: "aabomycin" → 38
  EXPECT_EQ(trie_index("zzzy"), 17612u);       // Table I: "zzzy" → 17612
  EXPECT_EQ(trie_index("application"), 37u + (0 * 676 + 15 * 26 + 15));  // "app"
}

TEST(TrieTable, SpecialCharAfterThirdLetterDoesNotDemote) {
  EXPECT_EQ(trie_index("aaa\xC3\xA9"), 37u);  // Table I: "aaaé" → 37
}

TEST(TrieTable, BoundaryBetweenShortAndLong) {
  EXPECT_EQ(trie_index("abc"), 11u);   // exactly 3 letters → letter bucket
  EXPECT_EQ(trie_index("abcd"), kTrieThreeLetterBase + 0 * 676 + 1 * 26 + 2);
}

TEST(TrieTable, PrefixLengthsPerRegion) {
  EXPECT_EQ(trie_prefix_length(0), 0u);
  EXPECT_EQ(trie_prefix_length(1), 1u);
  EXPECT_EQ(trie_prefix_length(10), 1u);
  EXPECT_EQ(trie_prefix_length(11), 1u);
  EXPECT_EQ(trie_prefix_length(36), 1u);
  EXPECT_EQ(trie_prefix_length(37), 3u);
  EXPECT_EQ(trie_prefix_length(17612), 3u);
}

TEST(TrieTable, PrefixReconstruction) {
  EXPECT_EQ(trie_prefix(0), "");
  EXPECT_EQ(trie_prefix(1), "0");
  EXPECT_EQ(trie_prefix(10), "9");
  EXPECT_EQ(trie_prefix(11), "a");
  EXPECT_EQ(trie_prefix(36), "z");
  EXPECT_EQ(trie_prefix(37), "aaa");
  EXPECT_EQ(trie_prefix(38), "aab");
  EXPECT_EQ(trie_prefix(17612), "zzz");
}

TEST(TrieTable, PrefixPlusSuffixReconstructsTerm) {
  for (const char* term : {"a", "at", "zoo", "01", "954", "application",
                           "parallel", "zzzy", "3d", "aabomycin"}) {
    const auto idx = trie_index(term);
    EXPECT_EQ(trie_prefix(idx) + std::string(trie_suffix(term, idx)), term) << term;
  }
}

TEST(TrieTable, EveryIndexConsistentWithItsPrefix) {
  // Property: for every three-letter region index, a synthetic member term
  // maps back to that index.
  for (std::uint32_t idx = kTrieThreeLetterBase; idx < kTrieCollections; idx += 101) {
    const auto term = trie_prefix(idx) + "xyz";
    EXPECT_EQ(trie_index(term), idx);
  }
  for (std::uint32_t idx = 11; idx <= 36; ++idx) {
    EXPECT_EQ(trie_index(trie_prefix(idx)), idx);
  }
  for (std::uint32_t idx = 1; idx <= 10; ++idx) {
    EXPECT_EQ(trie_index(trie_prefix(idx) + "77"), idx);
  }
}

// --------------------------------------------------------------- Table II

TEST(BTreeNode, LayoutIs512Bytes) {
  static_assert(sizeof(BTreeNode) == 512);
  EXPECT_EQ(sizeof(BTreeNode), 512u);
  EXPECT_EQ(kBTreeMaxKeys, 31u);  // "each node can hold up to 31 terms"
}

TEST(BTreeNode, CacheWordOrderMatchesMemcmp) {
  EXPECT_LT(compare_cache_words(make_cache_word("abc"), make_cache_word("abd")), 0);
  EXPECT_GT(compare_cache_words(make_cache_word("b"), make_cache_word("ab")), 0);
  EXPECT_EQ(compare_cache_words(make_cache_word("same"), make_cache_word("samething")), 0);
  // Zero padding sorts shorter strings first, like memcmp on length-padded.
  EXPECT_LT(compare_cache_words(make_cache_word("ab"), make_cache_word("abc")), 0);
}

// ----------------------------------------------------------------- BTree

TEST(BTree, InsertAndFindSingle) {
  Arena arena;
  BTree tree(arena);
  auto res = tree.find_or_insert("lication");
  EXPECT_TRUE(res.created);
  *res.postings_slot = 42;
  const auto* found = tree.find("lication");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(*found, 42u);
  EXPECT_EQ(tree.find("other"), nullptr);
}

TEST(BTree, DuplicateInsertReturnsSameSlot) {
  Arena arena;
  BTree tree(arena);
  auto first = tree.find_or_insert("term");
  *first.postings_slot = 7;
  auto second = tree.find_or_insert("term");
  EXPECT_FALSE(second.created);
  EXPECT_EQ(*second.postings_slot, 7u);
  EXPECT_EQ(tree.size(), 1u);
}

TEST(BTree, EmptySuffixIsAValidKey) {
  // Term "a" in collection 11 has an empty suffix after prefix stripping.
  Arena arena;
  BTree tree(arena);
  auto res = tree.find_or_insert("");
  EXPECT_TRUE(res.created);
  *res.postings_slot = 9;
  ASSERT_NE(tree.find(""), nullptr);
  EXPECT_EQ(*tree.find(""), 9u);
  tree.find_or_insert("x");
  EXPECT_EQ(*tree.find(""), 9u);
}

TEST(BTree, ShortKeysFullyCached) {
  // Keys of ≤ 4 bytes must not allocate string records (paper: "short
  // strings can be fully stored within the B-tree node").
  Arena arena;
  BTree tree(arena);
  const std::size_t before = arena.used_bytes();
  tree.find_or_insert("ab");
  tree.find_or_insert("abcd");
  EXPECT_EQ(arena.used_bytes(), before);  // no string records allocated
  EXPECT_NE(tree.find("ab"), nullptr);
  EXPECT_NE(tree.find("abcd"), nullptr);
  EXPECT_EQ(tree.find("abc"), nullptr);
  EXPECT_EQ(tree.find("abcde"), nullptr);
}

TEST(BTree, DistinguishesSharedPrefixKeys) {
  Arena arena;
  BTree tree(arena);
  // All share the first 4 bytes — forces full-string comparisons.
  const std::vector<std::string> keys = {"lication", "licational", "lica", "licat",
                                         "lication2", "licb"};
  for (const auto& k : keys) tree.find_or_insert(k);
  EXPECT_EQ(tree.size(), keys.size());
  for (const auto& k : keys) EXPECT_NE(tree.find(k), nullptr) << k;
  EXPECT_EQ(tree.find("licatio"), nullptr);
}

TEST(BTree, SplitsPreserveAllKeys) {
  Arena arena;
  BTree tree(arena);
  // > 31 keys forces root split; a few hundred forces height 3.
  std::set<std::string> keys;
  Rng rng(99);
  while (keys.size() < 500) {
    std::string k;
    const std::size_t len = 1 + rng.below(10);
    for (std::size_t i = 0; i < len; ++i)
      k.push_back(static_cast<char>('a' + rng.below(26)));
    keys.insert(k);
  }
  for (const auto& k : keys) tree.find_or_insert(k);
  EXPECT_EQ(tree.size(), keys.size());
  EXPECT_GE(tree.height(), 2u);
  for (const auto& k : keys) EXPECT_NE(tree.find(k), nullptr) << k;
}

TEST(BTree, InOrderTraversalIsSorted) {
  Arena arena;
  BTree tree(arena);
  Rng rng(5);
  std::set<std::string> keys;
  while (keys.size() < 300) {
    std::string k;
    const std::size_t len = rng.below(12);  // includes empty
    for (std::size_t i = 0; i < len; ++i)
      k.push_back(static_cast<char>('a' + rng.below(26)));
    keys.insert(k);
  }
  for (const auto& k : keys) tree.find_or_insert(k);
  std::vector<std::string> traversed;
  tree.for_each([&](std::string_view s, std::uint32_t) { traversed.emplace_back(s); });
  ASSERT_EQ(traversed.size(), keys.size());
  EXPECT_TRUE(std::is_sorted(traversed.begin(), traversed.end()));
  EXPECT_TRUE(std::equal(traversed.begin(), traversed.end(), keys.begin()));
}

TEST(BTree, PostingsSlotsSurviveSplits) {
  Arena arena;
  BTree tree(arena);
  std::map<std::string, std::uint32_t> expected;
  Rng rng(7);
  for (std::uint32_t i = 0; i < 2000; ++i) {
    std::string k = "k" + std::to_string(rng.below(800));
    auto res = tree.find_or_insert(k);
    if (res.created) {
      *res.postings_slot = i + 1;
      expected[k] = i + 1;
    }
  }
  for (const auto& [k, v] : expected) {
    const auto* slot = tree.find(k);
    ASSERT_NE(slot, nullptr) << k;
    EXPECT_EQ(*slot, v) << k;
  }
}

TEST(BTree, SequentialInsertsAreHandled) {
  // Ascending insert order is the B-tree's worst case for split churn.
  Arena arena;
  BTree tree(arena);
  for (int i = 0; i < 1000; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%06d", i);
    tree.find_or_insert(buf);
  }
  EXPECT_EQ(tree.size(), 1000u);
  EXPECT_LE(tree.height(), 3u);  // log_16 bound of §III.B
}

TEST(BTree, HeightStaysLogarithmic) {
  Arena arena;
  BTree tree(arena);
  Rng rng(13);
  std::set<std::string> keys;
  while (keys.size() < 5000) {
    std::string k;
    for (int i = 0; i < 8; ++i) k.push_back(static_cast<char>('a' + rng.below(26)));
    keys.insert(k);
  }
  for (const auto& k : keys) tree.find_or_insert(k);
  // height <= log_t((n+1)/2) + 1 with t = 16.
  EXPECT_LE(tree.height(), 4u);
}

TEST(BTree, CacheModeAndNoCacheModeAgree) {
  Arena arena_a, arena_b;
  BTree cached(arena_a, /*use_cache=*/true);
  BTree plain(arena_b, /*use_cache=*/false);
  Rng rng(31);
  std::vector<std::string> keys;
  for (int i = 0; i < 800; ++i) {
    std::string k;
    const std::size_t len = rng.below(10);
    for (std::size_t j = 0; j < len; ++j)
      k.push_back(static_cast<char>('a' + rng.below(4)));  // heavy prefix sharing
    keys.push_back(k);
    cached.find_or_insert(k);
    plain.find_or_insert(k);
  }
  EXPECT_EQ(cached.size(), plain.size());
  std::vector<std::string> a, b;
  cached.for_each([&](std::string_view s, std::uint32_t) { a.emplace_back(s); });
  plain.for_each([&](std::string_view s, std::uint32_t) { b.emplace_back(s); });
  EXPECT_EQ(a, b);
}

TEST(BTree, CacheResolvesMostComparisons) {
  Arena arena;
  BTree tree(arena);
  Rng rng(41);
  for (int i = 0; i < 3000; ++i) {
    std::string k;
    for (int j = 0; j < 7; ++j) k.push_back(static_cast<char>('a' + rng.below(26)));
    tree.find_or_insert(k);
  }
  const auto stats = tree.stats();
  // Random 7-char keys rarely share 4-byte prefixes: the cache should
  // absorb the overwhelming majority of comparisons (§III.B.2).
  EXPECT_GT(stats.cache_hits, stats.string_reads * 10);
}

// ------------------------------------------------------------- Dictionary

TEST(DictionaryShard, RoutesTermsThroughTrieTable) {
  DictionaryShard shard;
  auto res = shard.insert_term("application");
  EXPECT_TRUE(res.created);
  EXPECT_FALSE(shard.insert_term("application").created);
  EXPECT_NE(shard.find_term("application"), nullptr);
  EXPECT_EQ(shard.find_term("applicative"), nullptr);
  // Same suffix under different prefixes must not collide.
  shard.insert_term("boblication");  // "bob" + "lication"
  EXPECT_EQ(shard.term_count(), 2u);
}

TEST(DictionaryShard, CountsCollections) {
  DictionaryShard shard;
  shard.insert_term("apple");
  shard.insert_term("apply");   // same collection "app"
  shard.insert_term("banana");  // "ban"
  shard.insert_term("01");      // number bucket
  EXPECT_EQ(shard.collection_count(), 3u);
  EXPECT_EQ(shard.term_count(), 4u);
}

TEST(Dictionary, OwnershipRouting) {
  Dictionary dict;
  const auto s0 = dict.add_shard();
  const auto s1 = dict.add_shard();
  dict.assign(trie_index("apple"), s0);
  dict.assign(trie_index("banana"), s1);
  dict.insert("apple");
  dict.insert("banana");
  EXPECT_EQ(dict.shard(s0).term_count(), 1u);
  EXPECT_EQ(dict.shard(s1).term_count(), 1u);
  EXPECT_NE(dict.find("apple"), nullptr);
  EXPECT_NE(dict.find("banana"), nullptr);
  EXPECT_EQ(dict.find("cherry"), nullptr);
}

TEST(Dictionary, CombineProducesSortedUniqueTerms) {
  Dictionary dict;
  dict.add_shard();
  dict.add_shard();
  const char* words[] = {"zebra", "apple", "at", "01", "3d", "application",
                         "applications", "zzzy", "banana"};
  // Route half the collections to shard 1 to exercise cross-shard combine.
  for (const char* w : words) {
    const auto idx = trie_index(w);
    dict.assign(idx, idx % 2);
    dict.insert(w);
  }
  const auto entries = dict.combine();
  EXPECT_EQ(entries.size(), std::size(words));
  EXPECT_TRUE(std::is_sorted(entries.begin(), entries.end(),
                             [](const auto& a, const auto& b) { return a.term < b.term; }));
  std::set<std::string> expected(std::begin(words), std::end(words));
  for (const auto& e : entries) EXPECT_TRUE(expected.contains(e.term)) << e.term;
}

TEST(Dictionary, PersistRoundTrip) {
  Dictionary dict;
  dict.add_shard();
  std::set<std::string> words;
  Rng rng(77);
  for (int i = 0; i < 500; ++i) {
    std::string w;
    const std::size_t len = 1 + rng.below(12);
    for (std::size_t j = 0; j < len; ++j)
      w.push_back(static_cast<char>('a' + rng.below(26)));
    words.insert(w);
  }
  std::uint32_t h = 1;
  for (const auto& w : words) {
    auto res = dict.insert(w);
    if (res.created) *res.postings_slot = h++;
  }
  const auto path =
      (std::filesystem::temp_directory_path() / "hetindex_dict_test.bin").string();
  const auto original = dict.combine();
  dictionary_write(original, path);
  const auto loaded = dictionary_read(path).value();
  ASSERT_EQ(loaded.size(), words.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].term, original[i].term);
    EXPECT_EQ(loaded[i].handle, original[i].handle);
    EXPECT_EQ(loaded[i].shard, original[i].shard);
    EXPECT_EQ(loaded[i].trie_idx, original[i].trie_idx);
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace hetindex
