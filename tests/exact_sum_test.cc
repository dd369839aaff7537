// ExactSum is the error-free accumulator behind the distributed distance
// histogram: any insertion order, any merge tree, one rounding at the end.
// These tests pin the exactness and rounding contracts the serving layer's
// bitwise-determinism guarantees rest on.

#include "util/exact_sum.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace hipads {
namespace {

std::string Encoded(const ExactSum& s) {
  std::string out;
  s.EncodeTo(&out);
  return out;
}

// The canonical digits of a sum, as a comparable value.
std::vector<uint32_t> DigitsOf(const ExactSum& s, uint32_t* lo) {
  uint32_t d[ExactSum::kDigits];
  uint32_t n = s.Digits(lo, d);
  return std::vector<uint32_t>(d, d + n);
}

TEST(ExactSumTest, EmptyAndZeroSumsRoundToZero) {
  ExactSum s;
  uint32_t lo = 1;
  EXPECT_TRUE(DigitsOf(s, &lo).empty());
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(s.Round(), 0.0);
  s.Add(0.0);
  EXPECT_TRUE(DigitsOf(s, &lo).empty());
  EXPECT_EQ(s.Round(), 0.0);
  EXPECT_EQ(Encoded(s).size(), ExactSum::kWireHeaderBytes);
}

// Sums whose exact value is representable must come back exactly —
// including when a naive double fold would already have rounded.
TEST(ExactSumTest, ExactlyRepresentableSumsAreExact) {
  ExactSum s;
  double expected = 0.0;
  // Multiples of 2^-10 below 2^20: any partial sum of 10k of them needs
  // at most 44 significand bits, so the reference fold is itself exact.
  std::mt19937_64 rng(7);
  for (int i = 0; i < 10000; ++i) {
    double v = std::ldexp(static_cast<double>(rng() % (1u << 30)), -10);
    s.Add(v);
    expected += v;
  }
  EXPECT_EQ(s.Round(), expected);
}

// 2^-53 is half an ulp of 1.0: a tie, which must round to even (1.0);
// any extra sticky bit below must break the tie upward.
TEST(ExactSumTest, RoundsToNearestTiesToEven) {
  const double half_ulp = std::ldexp(1.0, -53);
  {
    ExactSum s;
    s.Add(1.0);
    s.Add(half_ulp);
    EXPECT_EQ(s.Round(), 1.0);
  }
  {
    ExactSum s;
    s.Add(1.0);
    s.Add(half_ulp);
    s.Add(std::numeric_limits<double>::denorm_min());  // sticky, 1021 bits down
    EXPECT_EQ(s.Round(), 1.0 + std::ldexp(1.0, -52));
  }
  {
    ExactSum s;  // two half-ulps are a whole ulp: exact
    s.Add(1.0);
    s.Add(half_ulp);
    s.Add(half_ulp);
    EXPECT_EQ(s.Round(), 1.0 + std::ldexp(1.0, -52));
  }
  {
    // 1.5 ulp above an odd significand: tie rounds up to even.
    ExactSum s;
    s.Add(1.0 + std::ldexp(1.0, -52));
    s.Add(half_ulp);
    EXPECT_EQ(s.Round(), 1.0 + std::ldexp(2.0, -52));
  }
}

TEST(ExactSumTest, ExtremeMagnitudesCoexist) {
  ExactSum s;
  s.Add(1e308);
  s.Add(5e-324);  // the smallest subnormal, ~632 orders of magnitude down
  EXPECT_EQ(s.Round(), 1e308);  // sticky bit alone cannot move the result
  ExactSum tiny;
  tiny.Add(5e-324);
  tiny.Add(5e-324);
  EXPECT_EQ(tiny.Round(), 2 * 5e-324);
  ExactSum max;
  for (int i = 0; i < 4; ++i) max.Add(std::numeric_limits<double>::max());
  EXPECT_TRUE(std::isinf(max.Round()));  // exact sum beyond the double range
}

// The core property the distributed gather relies on: the value — and the
// canonical encoding — depend only on the multiset of added values, not
// on insertion order or on how the values were partitioned across
// accumulators before their digit windows were added together.
TEST(ExactSumTest, OrderAndPartitionIndependent) {
  std::mt19937_64 rng(42);
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    // Adversarial spread: exponents across ~180 orders of magnitude.
    int exp = static_cast<int>(rng() % 600) - 300;
    double mant = static_cast<double>(rng()) / static_cast<double>(~0ull);
    values.push_back(std::ldexp(1.0 + mant, exp));
  }
  ExactSum reference;
  for (double v : values) reference.Add(v);
  const double expected = reference.Round();
  const std::string expected_bytes = Encoded(reference);

  std::vector<double> shuffled = values;
  for (int trial = 0; trial < 5; ++trial) {
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    // Partition into a random number of chunks, one accumulator each,
    // whose windows are added in a left fold.
    size_t chunks = 1 + rng() % 7;
    std::vector<ExactSum> parts(chunks);
    for (size_t i = 0; i < shuffled.size(); ++i) {
      parts[rng() % chunks].Add(shuffled[i]);
    }
    uint32_t lo = 0;
    std::vector<uint32_t> merged;
    for (const ExactSum& p : parts) {
      uint32_t part_lo, sum[ExactSum::kDigits];
      std::vector<uint32_t> part = DigitsOf(p, &part_lo);
      uint32_t n = ExactSum::AddDigits(lo, merged.data(), merged.size(),
                                       part_lo, part.data(), part.size(),
                                       &lo, sum);
      merged.assign(sum, sum + n);
    }
    EXPECT_EQ(ExactSum::RoundDigits(lo, merged.data(), merged.size()),
              expected)
        << "trial " << trial;
    std::string bytes;
    ExactSum::AppendWire(&bytes, lo, merged.data(), merged.size());
    EXPECT_EQ(bytes, expected_bytes) << "trial " << trial;
  }
}

TEST(ExactSumTest, WireRoundTripsAndRejectsMalformed) {
  ExactSum s;
  s.Add(3.25);
  s.Add(1e-9);
  s.Add(7e12);
  std::string wire = Encoded(s);

  uint32_t lo, count, d[ExactSum::kDigits];
  size_t consumed = 0;
  ASSERT_TRUE(ExactSum::DecodeWire(wire, &consumed, &lo, d, &count));
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(ExactSum::RoundDigits(lo, d, count), s.Round());
  std::string again;
  ExactSum::AppendWire(&again, lo, d, count);
  EXPECT_EQ(again, wire);

  // A decoded window adds exactly: twice it is the values added twice.
  uint32_t lo2, sum[ExactSum::kDigits];
  uint32_t n2 = ExactSum::AddDigits(lo, d, count, lo, d, count, &lo2, sum);
  ExactSum doubled;
  for (double v : {3.25, 1e-9, 7e12, 3.25, 1e-9, 7e12}) doubled.Add(v);
  std::string twice;
  ExactSum::AppendWire(&twice, lo2, sum, n2);
  EXPECT_EQ(twice, Encoded(doubled));

  // Truncated header, truncated digits, and out-of-range windows fail.
  EXPECT_FALSE(
      ExactSum::DecodeWire(wire.substr(0, 3), &consumed, &lo, d, &count));
  EXPECT_FALSE(ExactSum::DecodeWire(wire.substr(0, wire.size() - 1),
                                    &consumed, &lo, d, &count));
  std::string bad_lo = wire;
  uint32_t huge = 1000;
  std::memcpy(bad_lo.data(), &huge, 4);
  EXPECT_FALSE(ExactSum::DecodeWire(bad_lo, &consumed, &lo, d, &count));
  std::string bad_count = wire;
  std::memcpy(bad_count.data() + 4, &huge, 4);
  EXPECT_FALSE(ExactSum::DecodeWire(bad_count, &consumed, &lo, d, &count));
}

// The short-window helpers the distance histogram keeps per distance must
// agree with the full accumulator digit for digit: windows that fit,
// windows that spill, sums of windows, and the rounding of a window.
TEST(ExactSumTest, DigitWindowsAgreeWithTheFullAccumulator) {
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 400; ++trial) {
    // Mostly similar magnitudes (the window's case), sometimes any.
    int base = static_cast<int>(rng() % 2000) - 1000;
    int spread = trial % 4 == 0 ? 2000 : 40;
    std::vector<double> values(2 + rng() % 30);
    for (double& v : values) {
      int e = std::clamp(base + static_cast<int>(rng() % spread) - spread / 2,
                         -1074, 1000);
      v = std::ldexp(static_cast<double>(rng() >> 11), e - 53);
    }
    values[0] = std::max(values[0], std::numeric_limits<double>::denorm_min());
    values[1] = std::max(values[1], std::numeric_limits<double>::denorm_min());

    ExactSum full;
    for (double v : values) full.Add(v);
    uint32_t full_lo;
    std::vector<uint32_t> full_digits = DigitsOf(full, &full_lo);

    // The window route, spilling into a full accumulator when it must.
    ExactWindow window;
    ExactSum spilled;
    bool in_window = window.Start(values[0], values[1]);
    if (!in_window) {
      spilled.Add(values[0]);
      spilled.Add(values[1]);
    }
    for (size_t i = 2; i < values.size(); ++i) {
      if (in_window && !window.TryAdd(values[i])) {
        window.SpillTo(&spilled);
        in_window = false;
      }
      if (!in_window) spilled.Add(values[i]);
    }
    uint32_t lo;
    std::vector<uint32_t> digits;
    if (in_window) {
      uint32_t d[ExactWindow::kLimbs + 1];
      uint32_t n = window.Digits(&lo, d);
      digits.assign(d, d + n);
    } else {
      digits = DigitsOf(spilled, &lo);
    }
    EXPECT_EQ(lo, full_lo) << "trial " << trial;
    EXPECT_EQ(digits, full_digits) << "trial " << trial;
    EXPECT_EQ(ExactSum::RoundDigits(lo, digits.data(), digits.size()),
              full.Round())
        << "trial " << trial;

    // Sum of the two halves' windows == the whole.
    ExactSum head, tail;
    for (size_t i = 0; i < values.size(); ++i) {
      (i % 2 == 0 ? head : tail).Add(values[i]);
    }
    uint32_t lo_h, lo_t, lo_sum;
    std::vector<uint32_t> h = DigitsOf(head, &lo_h), t = DigitsOf(tail, &lo_t);
    uint32_t sum[ExactSum::kDigits];
    uint32_t n = ExactSum::AddDigits(lo_h, h.data(), h.size(), lo_t, t.data(),
                                     t.size(), &lo_sum, sum);
    EXPECT_EQ(lo_sum, full_lo) << "trial " << trial;
    EXPECT_EQ(std::vector<uint32_t>(sum, sum + n), full_digits)
        << "trial " << trial;

    // A single value's window is what the accumulator holds for it.
    ExactSum one;
    one.Add(values[0]);
    uint32_t lo_one, lo_v, d_v[3];
    uint32_t n_v = ExactSum::DigitsOf(values[0], &lo_v, d_v);
    EXPECT_EQ(lo_v, (DigitsOf(one, &lo_one), lo_one));
    EXPECT_EQ(std::vector<uint32_t>(d_v, d_v + n_v), DigitsOf(one, &lo_one));
  }
}

// Windows decoded off the wire come back canonical (padding zero digits
// trimmed), and an empty window is zero at digit 0.
TEST(ExactSumTest, DecodedWindowsAreCanonical) {
  std::string wire;
  const uint32_t padded[] = {0, 5, 0, 7, 0, 0};
  ExactSum::AppendWire(&wire, 10, padded, 6);
  uint32_t lo, count, d[ExactSum::kDigits];
  size_t consumed = 0;
  ASSERT_TRUE(ExactSum::DecodeWire(wire, &consumed, &lo, d, &count));
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(lo, 11u);
  ASSERT_EQ(count, 3u);
  EXPECT_EQ(d[0], 5u);
  EXPECT_EQ(d[2], 7u);

  std::string zeros;
  const uint32_t nothing[] = {0, 0};
  ExactSum::AppendWire(&zeros, 30, nothing, 2);
  ASSERT_TRUE(ExactSum::DecodeWire(zeros, &consumed, &lo, d, &count));
  EXPECT_EQ(count, 0u);
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(ExactSum::RoundDigits(lo, d, count), 0.0);
}

// Delayed carries must normalize transparently: enough same-limb adds to
// overflow 32-bit digits many times over still round exactly.
TEST(ExactSumTest, CarryPropagationSurvivesManyAdds) {
  ExactSum s;
  const int n = 200000;
  for (int i = 0; i < n; ++i) s.Add(1.0);
  EXPECT_EQ(s.Round(), static_cast<double>(n));
}

}  // namespace
}  // namespace hipads
