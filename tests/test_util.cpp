// Unit tests for the util substrate: arena, queues, thread pool, RNG/Zipf,
// stats, CRC and binary I/O.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <set>
#include <thread>

#include "util/arena.hpp"
#include "util/binary_io.hpp"
#include "util/bounded_queue.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/zipf.hpp"

namespace hetindex {
namespace {

TEST(Arena, StoresAndResolvesOffsets) {
  Arena arena(256);
  const char* msg = "hello";
  const ArenaOffset off = arena.store(msg, 5);
  ASSERT_NE(off, kArenaNull);
  EXPECT_EQ(0, std::memcmp(arena.pointer(off), msg, 5));
}

TEST(Arena, NeverReturnsNullOffset) {
  Arena arena(128);
  for (int i = 0; i < 100; ++i) EXPECT_NE(arena.allocate(1), kArenaNull);
}

TEST(Arena, OffsetsRemainValidAcrossChunkGrowth) {
  Arena arena(128);
  std::vector<std::pair<ArenaOffset, int>> allocs;
  for (int i = 0; i < 1000; ++i) {
    const ArenaOffset off = arena.allocate(sizeof(int), alignof(int));
    *arena.object<int>(off) = i;
    allocs.emplace_back(off, i);
  }
  for (const auto& [off, v] : allocs) EXPECT_EQ(*arena.object<int>(off), v);
}

TEST(Arena, RespectsAlignment) {
  Arena arena(1 << 12);
  for (std::size_t align : {1u, 2u, 4u, 8u, 16u, 64u}) {
    arena.allocate(3);  // misalign
    const ArenaOffset off = arena.allocate(8, align);
    EXPECT_EQ(off % align, 0u) << "alignment " << align;
  }
}

TEST(Arena, DistinctAllocationsDoNotOverlap) {
  Arena arena(512);
  const ArenaOffset a = arena.allocate(100);
  const ArenaOffset b = arena.allocate(100);
  std::memset(arena.pointer(a), 0xAA, 100);
  std::memset(arena.pointer(b), 0xBB, 100);
  EXPECT_EQ(arena.pointer(a)[99], 0xAA);
  EXPECT_EQ(arena.pointer(b)[0], 0xBB);
}

TEST(BoundedQueue, FifoOrder) {
  BoundedQueue<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(q.pop(), i);
}

TEST(BoundedQueue, TryPushFailsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
}

TEST(BoundedQueue, CloseDrainsThenSignalsEnd) {
  BoundedQueue<int> q(4);
  q.push(7);
  q.close();
  EXPECT_FALSE(q.push(8));
  EXPECT_EQ(q.pop(), 7);
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(BoundedQueue, BlockingProducerConsumerTransfersEverything) {
  BoundedQueue<int> q(8);
  constexpr int kItems = 10000;
  std::atomic<long> sum{0};
  std::jthread consumer([&] {
    while (auto v = q.pop()) sum += *v;
  });
  std::jthread producer([&] {
    for (int i = 1; i <= kItems; ++i) ASSERT_TRUE(q.push(i));
    q.close();
  });
  producer.join();
  consumer.join();
  EXPECT_EQ(sum.load(), static_cast<long>(kItems) * (kItems + 1) / 2);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a(), b());
  Rng a2(123);
  EXPECT_NE(a2(), c());
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Zipf, RanksInRange) {
  ZipfSampler zipf(1000, 1.0);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const auto k = zipf(rng);
    ASSERT_GE(k, 1u);
    ASSERT_LE(k, 1000u);
  }
}

TEST(Zipf, Rank1FrequencyMatchesTheory) {
  ZipfSampler zipf(10000, 1.0);
  Rng rng(42);
  constexpr int kSamples = 200000;
  int rank1 = 0;
  for (int i = 0; i < kSamples; ++i)
    if (zipf(rng) == 1) ++rank1;
  const double expected = zipf.probability(1);
  EXPECT_NEAR(static_cast<double>(rank1) / kSamples, expected, expected * 0.1);
}

TEST(Zipf, SkewZeroIsUniform) {
  ZipfSampler zipf(10, 0.0);
  Rng rng(7);
  std::vector<int> counts(11, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf(rng)];
  for (int k = 1; k <= 10; ++k) EXPECT_NEAR(counts[k], 10000, 600) << "rank " << k;
}

TEST(Zipf, HigherSkewConcentratesMass) {
  Rng rng(3);
  auto head_mass = [&](double s) {
    ZipfSampler zipf(1000, s);
    int head = 0;
    for (int i = 0; i < 50000; ++i)
      if (zipf(rng) <= 10) ++head;
    return head;
  };
  EXPECT_GT(head_mass(1.4), head_mass(0.8));
}

TEST(OnlineStats, MeanVarianceMinMax) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.571428, 1e-5);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(Histogram, CountsAndQuantiles) {
  Histogram h(0, 100, 10);
  for (int i = 0; i < 100; ++i) h.add(i);
  EXPECT_EQ(h.total(), 100u);
  for (std::size_t b = 0; b < 10; ++b) EXPECT_EQ(h.bucket_count(b), 10u);
  EXPECT_NEAR(h.quantile(0.5), 45.0, 10.0);
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram h(0, 10, 5);
  h.add(-100);
  h.add(1e9);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(4), 1u);
}

TEST(Crc32, MatchesKnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (IEEE).
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32, DetectsSingleBitFlips) {
  std::vector<std::uint8_t> data(64, 0x5A);
  const auto base = crc32(data.data(), data.size());
  for (std::size_t bit = 0; bit < 64 * 8; bit += 37) {
    auto copy = data;
    copy[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_NE(crc32(copy.data(), copy.size()), base);
  }
}

/// The textbook bitwise CRC-32 (reflected IEEE polynomial): the oracle the
/// table-driven implementation must match.
std::uint32_t crc32_reference(const std::uint8_t* p, std::size_t n, std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, SliceBy8MatchesBytewiseAtEveryLengthAndAlignment) {
  std::vector<std::uint8_t> buf(64 + 8);
  Rng rng(0xC3C);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
  // Start offsets 0..7 put the 8-byte word loads on every alignment; lengths
  // 0..64 cover the word loop, the byte tail and both together.
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::uint8_t* p = buf.data() + start;
      EXPECT_EQ(crc32(p, len), crc32_reference(p, len)) << "start " << start << " len " << len;
      EXPECT_EQ(crc32(p, len, 0x1234ABCDu), crc32_reference(p, len, 0x1234ABCDu))
          << "seeded, start " << start << " len " << len;
    }
  }
}

TEST(Crc32, ChainingThroughSeedEqualsOneCall) {
  std::vector<std::uint8_t> buf(1000);
  Rng rng(0x5EED);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
  const std::uint32_t whole = crc32(buf.data(), buf.size());
  for (const std::size_t split : {0, 1, 7, 8, 9, 63, 500, 993, 1000}) {
    const std::uint32_t head = crc32(buf.data(), split);
    EXPECT_EQ(crc32(buf.data() + split, buf.size() - split, head), whole) << "split " << split;
  }
}

TEST(BinaryIo, PrimitivesRoundTrip) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u8(7);
  w.u16(65535);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.f64(3.25);
  w.str("hetindex");
  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u16(), 65535);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.f64(), 3.25);
  EXPECT_EQ(r.str(), "hetindex");
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BinaryIo, PatchBackfillsHeader) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  const auto at = w.offset();
  w.u32(0);
  w.str("payload");
  w.patch_u32(at, 99);
  ByteReader r(buf);
  EXPECT_EQ(r.u32(), 99u);
}

TEST(BinaryIo, FileRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "hetindex_io_test.bin";
  std::vector<std::uint8_t> data(1000);
  std::iota(data.begin(), data.end(), 0);
  write_file(path.string(), data);
  EXPECT_TRUE(file_exists(path.string()));
  EXPECT_EQ(read_file(path.string()), data);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace hetindex
