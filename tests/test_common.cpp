// Unit tests: common utilities, RNG, and the cell codec.

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <set>
#include <string>

#include "common/cell.hpp"
#include "common/fifo.hpp"
#include "common/rng.hpp"
#include "common/util.hpp"

namespace pmsb {
namespace {

TEST(Util, BitsFor) {
  EXPECT_EQ(bits_for(1), 1u);
  EXPECT_EQ(bits_for(2), 1u);
  EXPECT_EQ(bits_for(3), 2u);
  EXPECT_EQ(bits_for(4), 2u);
  EXPECT_EQ(bits_for(5), 3u);
  EXPECT_EQ(bits_for(8), 3u);
  EXPECT_EQ(bits_for(9), 4u);
  EXPECT_EQ(bits_for(256), 8u);
  EXPECT_EQ(bits_for(257), 9u);
}

TEST(Util, LowMask) {
  EXPECT_EQ(low_mask(0), 0u);
  EXPECT_EQ(low_mask(1), 1u);
  EXPECT_EQ(low_mask(8), 0xFFu);
  EXPECT_EQ(low_mask(16), 0xFFFFu);
  EXPECT_EQ(low_mask(64), ~std::uint64_t{0});
}

TEST(Util, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(12));
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(13), 13u);
}

TEST(Rng, NextBelowUniform) {
  Rng r(11);
  std::vector<int> counts(8, 0);
  const int kTrials = 80000;
  for (int i = 0; i < kTrials; ++i) ++counts[r.next_below(8)];
  for (int c : counts) {
    EXPECT_NEAR(c, kTrials / 8, 5 * std::sqrt(kTrials / 8.0));
  }
}

// next_below's power-of-two fast path must draw exactly what the rejection
// formula draws, and every other bound must still take the formula.
TEST(Rng, NextBelowMatchesRejectionFormula) {
  const auto reference = [](Rng& r, std::uint64_t bound) {
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
      const std::uint64_t v = r.next_u64();
      if (v >= threshold) return v % bound;
    }
  };
  constexpr std::uint64_t kTop = std::uint64_t{1} << 63;
  const std::uint64_t bounds[] = {1,  2,  3,    4,    5,    7,        8,
                                  12, 16, 31,   32,   1000, 1024,     kTop,
                                  kTop + 1, ~std::uint64_t{0}};
  for (const std::uint64_t bound : bounds) {
    Rng fast(bound * 31 + 5), ref(bound * 31 + 5);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(fast.next_below(bound), reference(ref, bound)) << "bound " << bound;
    }
    EXPECT_EQ(fast.next_u64(), ref.next_u64()) << "streams diverged, bound " << bound;
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliMean) {
  Rng r(5);
  int hits = 0;
  const int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) hits += r.next_bool(0.3);
  EXPECT_NEAR(hits / double(kTrials), 0.3, 0.01);
}

TEST(Rng, BernoulliEdges) {
  Rng r(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.next_bool(0.0));
    EXPECT_TRUE(r.next_bool(1.0));
  }
}

TEST(Rng, GeometricMean) {
  Rng r(9);
  const double p = 0.2;
  double sum = 0;
  const int kTrials = 200000;
  for (int i = 0; i < kTrials; ++i) sum += static_cast<double>(r.next_geometric(p));
  EXPECT_NEAR(sum / kTrials, (1 - p) / p, 0.05);
}

TEST(Rng, GeometricP1IsZero) {
  Rng r(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(r.next_geometric(1.0), 0u);
}

TEST(Rng, SplitIndependent) {
  Rng a(13);
  Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Mix64, Avalanche) {
  // Flipping one input bit should flip roughly half the output bits.
  int total = 0;
  for (int bit = 0; bit < 64; ++bit) {
    total += __builtin_popcountll(mix64(12345) ^ mix64(12345 ^ (1ULL << bit)));
  }
  EXPECT_NEAR(total / 64.0, 32.0, 6.0);
}

class CellCodec : public ::testing::Test {
 protected:
  CellFormat fmt{16, 3, 16};
};

TEST_F(CellCodec, HeadEncodesDest) {
  for (unsigned dest = 0; dest < 8; ++dest) {
    const Word head = cell_word(99, dest, 0, fmt);
    EXPECT_EQ(decode_dest(head, fmt), dest);
  }
}

TEST_F(CellCodec, HeadCarriesTag) {
  const Word head = cell_word(1234, 5, 0, fmt);
  EXPECT_EQ(decode_tag(head, fmt), mix64(1234) & low_mask(fmt.tag_bits()));
}

TEST_F(CellCodec, WordsFitWidth) {
  const auto words = make_cell_words(777, 3, fmt);
  ASSERT_EQ(words.size(), fmt.length_words);
  for (Word w : words) EXPECT_EQ(w & ~low_mask(fmt.word_bits), 0u);
}

TEST_F(CellCodec, MatchesItself) {
  const auto words = make_cell_words(42, 1, fmt);
  EXPECT_TRUE(cell_matches(words, 42, 1, fmt));
}

TEST_F(CellCodec, DetectsWrongId) {
  const auto words = make_cell_words(42, 1, fmt);
  EXPECT_FALSE(cell_matches(words, 43, 1, fmt));
}

TEST_F(CellCodec, DetectsCorruptedWord) {
  auto words = make_cell_words(42, 1, fmt);
  words[7] ^= 1;
  EXPECT_FALSE(cell_matches(words, 42, 1, fmt));
}

TEST_F(CellCodec, DetectsSwappedWords) {
  auto words = make_cell_words(42, 1, fmt);
  std::swap(words[3], words[4]);
  EXPECT_FALSE(cell_matches(words, 42, 1, fmt));
}

TEST_F(CellCodec, DetectsWrongLength) {
  auto words = make_cell_words(42, 1, fmt);
  words.pop_back();
  EXPECT_FALSE(cell_matches(words, 42, 1, fmt));
}

TEST_F(CellCodec, DistinctCellsDistinctPayloads) {
  std::set<std::vector<Word>> seen;
  for (std::uint64_t id = 0; id < 100; ++id) seen.insert(make_cell_words(id, 2, fmt));
  EXPECT_EQ(seen.size(), 100u);
}

TEST_F(CellCodec, NarrowWordWidth) {
  // Telegraphos I uses 8-bit words with 2 dest bits.
  CellFormat narrow{8, 2, 8};
  const auto words = make_cell_words(5, 3, narrow);
  EXPECT_EQ(decode_dest(words[0], narrow), 3u);
  for (Word w : words) EXPECT_LE(w, 0xFFu);
}

TEST(FlitStruct, Equality) {
  EXPECT_EQ((Flit{true, false, 7}), (Flit{true, false, 7}));
  EXPECT_FALSE((Flit{true, false, 7}) == (Flit{true, true, 7}));
}

// --- Fifo ---------------------------------------------------------------------

// Random interleavings of push and pop, checked element by element against
// std::deque: across every doubling, with the head wrapped round the ring,
// and through front() and indexing.
TEST(Fifo, MatchesDequeUnderRandomPushPop) {
  Rng rng(2024);
  Fifo<std::string> q;
  std::deque<std::string> ref;
  std::size_t max_capacity = 0;
  for (int step = 0; step < 20000; ++step) {
    // Phases that drift the size up, hold it, and drain it, so the ring
    // grows from non-zero heads and wraps at every capacity it reaches.
    const std::uint64_t phase = (static_cast<std::uint64_t>(step) / 1000) % 3;
    const std::uint64_t push_odds = phase == 0 ? 6 : phase == 1 ? 4 : 2;
    if (ref.empty() || rng.next_below(8) < push_odds) {
      const std::string v = std::to_string(rng.next_u64());
      q.push(v);
      ref.push_back(v);
    } else {
      ASSERT_EQ(q.front(), ref.front());
      q.pop();
      ref.pop_front();
    }
    ASSERT_EQ(q.size(), ref.size());
    ASSERT_EQ(q.empty(), ref.empty());
    if (!ref.empty()) {
      ASSERT_EQ(q.front(), ref.front());
      const std::size_t i = static_cast<std::size_t>(rng.next_below(ref.size()));
      ASSERT_EQ(q[i], ref[i]);
    }
    if (step % 97 == 0) {
      for (std::size_t k = 0; k < ref.size(); ++k) ASSERT_EQ(q[k], ref[k]);
    }
    ASSERT_TRUE(is_pow2(q.capacity()));
    ASSERT_GE(q.capacity(), q.size());
    ASSERT_GE(q.capacity(), max_capacity) << "a ring never shrinks";
    max_capacity = q.capacity();
  }
  EXPECT_GE(max_capacity, 64u) << "the walk should have grown the ring several times";
}

TEST(Fifo, AllocatesOnFirstPushAndDoublesWhenFull) {
  constexpr int kMin = static_cast<int>(Fifo<int>::kMinCapacity);
  Fifo<int> q;
  EXPECT_EQ(q.capacity(), 0u);
  q.push(0);
  EXPECT_EQ(q.capacity(), Fifo<int>::kMinCapacity);
  for (int i = 1; i < kMin; ++i) q.push(i);
  EXPECT_EQ(q.capacity(), Fifo<int>::kMinCapacity);  // Full, not grown.
  q.push(kMin);
  EXPECT_EQ(q.capacity(), 2 * Fifo<int>::kMinCapacity);
  // Steady push/pop at a constant depth stays in the ring it has.
  for (int i = kMin + 1; i < 1000; ++i) {
    q.pop();
    q.push(i);
  }
  EXPECT_EQ(q.capacity(), 2 * Fifo<int>::kMinCapacity);
  EXPECT_EQ(q.front(), 1000 - kMin - 1);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), 2 * Fifo<int>::kMinCapacity);
  q.push(7);
  EXPECT_EQ(q.front(), 7);
  EXPECT_EQ(q.size(), 1u);
}

TEST(FifoDeath, EmptyFrontPopAndOutOfRangeIndexAbort) {
  Fifo<int> q;
  EXPECT_DEATH(q.front(), "front\\(\\) of empty queue");
  EXPECT_DEATH(q.pop(), "pop\\(\\) of empty queue");
  q.push(1);
  q.pop();  // Empty again, with an allocated ring.
  EXPECT_DEATH(q.front(), "front\\(\\) of empty queue");
  EXPECT_DEATH(q.pop(), "pop\\(\\) of empty queue");
  q.push(2);
  EXPECT_DEATH(q[1], "queue index out of range");
}

}  // namespace
}  // namespace pmsb
