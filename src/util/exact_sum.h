// ExactSum: an error-free accumulator for nonnegative doubles.
//
// The distributed sweep gather (src/serve/) needs to merge per-range
// floating-point accumulations into exactly the value a single-process
// fold produces, bit for bit, for every way of partitioning the ranges. A
// left fold of doubles cannot be split that way — (s + w1) + w2 differs
// from s + (w1 + w2) — so instead of replaying the fold, ExactSum removes
// rounding from the accumulation entirely: it is a fixed-point
// superaccumulator (a Kulisch accumulator with base-2^32 digits) wide
// enough to hold any sum of doubles exactly. Adds and merges are exact
// integer arithmetic, so the represented value is independent of insertion
// order and of how the inputs were partitioned; the single IEEE rounding
// happens in Round(), round-to-nearest-even of the exact value. Two
// processes that added the same multiset of values — in any order, merged
// through any tree — round to the same double.
//
// Layout: value = sum over i of digit[i] * 2^(32*i - 1074). 66 digits
// cover every finite-double bit position [2^-1074, 2^1023]; the spare top
// digits absorb carry growth, supporting sums of at least 2^60 values of
// any magnitude. Digits are held in uint64 limbs with delayed carries;
// Add touches at most three limbs, so accumulation is O(1) per value.
//
// Only nonnegative finite values are supported (the serving sweeps
// accumulate HIP estimate weights, which are >= 0); Add asserts this in
// debug builds and ignores out-of-domain values in release builds.
//
// Code that holds many sums (the distance histogram keeps one per
// distance) should not hold 568-byte accumulators: a sum of a few values
// of similar magnitude touches a handful of digits. ExactWindow
// accumulates into five limbs, and the static canonical-window helpers
// (Digits, DigitsOf, AddDigits, RoundDigits, AppendWire, DecodeWire)
// combine, round and encode such digit windows with results identical to
// ExactSum's, bit for bit.

#ifndef HIPADS_UTIL_EXACT_SUM_H_
#define HIPADS_UTIL_EXACT_SUM_H_

#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace hipads {

class ExactSum {
 public:
  /// Number of base-2^32 digits: 66 span the finite-double bit positions,
  /// plus 4 of carry headroom for the running sum's growth.
  static constexpr uint32_t kDigits = 70;

  /// Where one value's bits land: v = (d[0] + d[1] 2^32 + d[2] 2^64) *
  /// 2^(32 limb - 1074), each d < 2^32 (so the three digits are already
  /// normalized). Requires a finite v > 0.
  struct Split {
    uint32_t limb;
    uint64_t d[3];
  };
  static Split SplitValue(double v) {
    auto bits = std::bit_cast<uint64_t>(v);
    auto exp = static_cast<uint32_t>(bits >> 52);
    uint64_t m = bits & ((uint64_t{1} << 52) - 1);
    // Normal v = (2^52 + frac) * 2^(exp - 1075): its unit bit sits at
    // offset exp - 1 above the accumulator's lowest bit 2^-1074. A
    // subnormal is frac * 2^-1074, at offset 0.
    uint32_t off = 0;
    if (exp != 0) {
      m |= uint64_t{1} << 52;
      off = exp - 1;
    }
    auto wide = static_cast<unsigned __int128>(m) << (off % 32);  // <= 84 bits
    return Split{off / 32,
                 {static_cast<uint64_t>(wide) & 0xffffffffu,
                  static_cast<uint64_t>(wide >> 32) & 0xffffffffu,
                  static_cast<uint64_t>(wide >> 64)}};
  }

  /// Adds a finite value >= 0 exactly. O(1): at most three limbs change.
  void Add(double v) {
    assert(std::isfinite(v) && v >= 0.0);
    if (!(v > 0.0) || !std::isfinite(v)) return;
    Split s = SplitValue(v);
    limbs_[s.limb] += s.d[0];
    limbs_[s.limb + 1] += s.d[1];
    limbs_[s.limb + 2] += s.d[2];
    // Each Add grows a limb by < 2^32; normalized limbs are < 2^32, so
    // 2^31 - 1 delayed adds keep every limb below 2^63 + 2^32 < 2^64.
    if (++pending_ >= kMaxPending) Normalize();
  }

  /// The exact value rounded once, to nearest, ties to even. Sums beyond
  /// the double range return +infinity.
  double Round() const {
    uint32_t lo;
    uint32_t d[kDigits];
    uint32_t count = Digits(&lo, d);
    return RoundDigits(lo, d, count);
  }

  /// The canonical digit window of the normalized value: writes its
  /// nonzero digits [lo, lo + count) to out (room for kDigits) and
  /// returns count. Zero is the empty window at lo 0. Independent of the
  /// add/merge history — the form the wire carries.
  uint32_t Digits(uint32_t* lo, uint32_t* out) const {
    std::array<uint64_t, kDigits> d = NormalizedDigits();
    return Trim(0, d.data(), kDigits, lo, out);
  }

  /// Appends the wire form: u32 lo, u32 count, count little-endian u32
  /// digits — the canonical window (see Digits).
  void EncodeTo(std::string* out) const {
    uint32_t lo;
    uint32_t d[kDigits];
    uint32_t count = Digits(&lo, d);
    AppendWire(out, lo, d, count);
  }

  /// Fixed prefix of the wire form ahead of the digits.
  static constexpr size_t kWireHeaderBytes = 8;

  // --- Canonical digit windows -------------------------------------------
  //
  // The digits of a normalized value, trimmed to [lo, lo + count) with
  // nonzero ends — what Digits and the wire produce. Small sums touch a
  // handful of digits, so code holding many of them (the distance
  // histogram) keeps windows instead of 70-limb accumulators and combines
  // them with these helpers; every result equals the ExactSum route.

  /// The canonical window of one finite value v >= 0 (out: 3 digits).
  static uint32_t DigitsOf(double v, uint32_t* lo, uint32_t* out) {
    *lo = 0;
    if (!(v > 0.0)) return 0;
    Split s = SplitValue(v);
    return Trim(s.limb, s.d, 3, lo, out);
  }

  /// The window of a + b, canonical; out needs room for kDigits. Digits
  /// carried past the top of the layout are dropped, as Normalize does.
  static uint32_t AddDigits(uint32_t lo_a, const uint32_t* a, uint32_t na,
                            uint32_t lo_b, const uint32_t* b, uint32_t nb,
                            uint32_t* lo, uint32_t* out) {
    uint32_t first = lo_a < lo_b ? lo_a : lo_b;
    uint32_t end = lo_a + na > lo_b + nb ? lo_a + na : lo_b + nb;
    if (end < kDigits) ++end;  // room for the carry
    uint64_t sum[kDigits];
    uint64_t carry = 0;
    for (uint32_t i = first; i < end; ++i) {
      uint64_t digit = carry;
      if (i >= lo_a && i < lo_a + na) digit += a[i - lo_a];
      if (i >= lo_b && i < lo_b + nb) digit += b[i - lo_b];
      sum[i - first] = digit & 0xffffffffu;
      carry = digit >> 32;
    }
    return Trim(first, sum, end - first, lo, out);
  }

  /// A canonical window rounded once, to nearest, ties to even — the
  /// value Round() returns for the same exact sum.
  static double RoundDigits(uint32_t lo, const uint32_t* d, uint32_t count) {
    if (count == 0) return 0.0;
    auto digit = [&](int gi) -> uint64_t {
      int i = gi - static_cast<int>(lo);
      return i >= 0 && i < static_cast<int>(count) ? d[i] : 0;
    };
    int h = static_cast<int>(lo + count) - 1;
    int top = 31 - std::countl_zero(d[count - 1]);
    int b_max = 32 * h + top;       // highest set bit of the exact value
    int cut = b_max > 52 ? b_max - 52 : 0;  // keep 53 bits (fewer: exact)
    int cd = cut / 32;
    // 128-bit window over digits [cd-1, cd+2]; b_max - cut <= 52 puts the
    // top digit within it. Base bit of the window: 32 * (cd - 1).
    unsigned __int128 w = 0;
    for (int i = 3; i >= 0; --i) w = (w << 32) | digit(cd - 1 + i);
    int ws = cut - 32 * (cd - 1);  // in [32, 63]
    auto mant = static_cast<uint64_t>(w >> ws);
    if (cut > 0) {
      bool round_bit = (static_cast<uint64_t>(w >> (ws - 1)) & 1) != 0;
      bool sticky = (w & ((static_cast<unsigned __int128>(1) << (ws - 1)) -
                          1)) != 0;
      for (int i = static_cast<int>(lo); i < cd - 1 && !sticky; ++i) {
        sticky = digit(i) != 0;
      }
      if (round_bit && (sticky || (mant & 1))) ++mant;
      if (mant >> 53) {  // carried into bit 53: renormalize
        mant >>= 1;
        ++cut;
      }
    }
    return std::ldexp(static_cast<double>(mant), cut - 1074);
  }

  /// Appends the wire form of a window: u32 lo, u32 count, the digits.
  static void AppendWire(std::string* out, uint32_t lo, const uint32_t* d,
                         uint32_t count) {
    AppendU32(out, lo);
    AppendU32(out, count);
    for (uint32_t i = 0; i < count; ++i) AppendU32(out, d[i]);
  }

  /// Parses one wire-form window from the front of `data` into its
  /// canonical form (out needs room for kDigits). Returns false on a
  /// truncated or out-of-range window; otherwise sets *consumed.
  static bool DecodeWire(std::string_view data, size_t* consumed,
                         uint32_t* lo, uint32_t* out, uint32_t* count) {
    if (data.size() < kWireHeaderBytes) return false;
    uint32_t wire_lo = ReadU32(data.data());
    uint32_t n = ReadU32(data.data() + 4);
    if (wire_lo > kDigits || n > kDigits - wire_lo) return false;
    size_t need = kWireHeaderBytes + static_cast<size_t>(n) * 4;
    if (data.size() < need) return false;
    uint64_t d[kDigits];
    for (uint32_t i = 0; i < n; ++i) {
      d[i] = ReadU32(data.data() + kWireHeaderBytes + i * 4);
    }
    *count = Trim(wire_lo, d, n, lo, out);
    *consumed = need;
    return true;
  }

 private:
  friend class ExactWindow;

  // Delayed-carry budget; see Add.
  static constexpr uint32_t kMaxPending = 1u << 31;

  // Copies normalized digits d[0, n) — digit indices [first, first + n),
  // the ones at or past kDigits dropped — trimmed to their canonical
  // window.
  static uint32_t Trim(uint32_t first, const uint64_t* d, uint32_t n,
                       uint32_t* lo, uint32_t* out) {
    if (first + n > kDigits) n = first < kDigits ? kDigits - first : 0;
    uint32_t b = 0, e = n;
    while (b < e && d[b] == 0) ++b;
    while (e > b && d[e - 1] == 0) --e;
    *lo = b == e ? 0 : first + b;
    for (uint32_t i = b; i < e; ++i) out[i - b] = static_cast<uint32_t>(d[i]);
    return e - b;
  }

  void Normalize() {
    uint64_t carry = 0;
    for (uint32_t i = 0; i < kDigits; ++i) {
      uint64_t limb = limbs_[i] + carry;
      limbs_[i] = limb & 0xffffffffu;
      carry = limb >> 32;
    }
    assert(carry == 0 && "ExactSum overflow: sum exceeds 2^1056");
    pending_ = 0;
  }

  std::array<uint64_t, kDigits> NormalizedDigits() const {
    ExactSum copy = *this;
    copy.Normalize();
    return copy.limbs_;
  }

  static void AppendU32(std::string* out, uint32_t v) {
    char buf[4];
    std::memcpy(buf, &v, 4);
    out->append(buf, 4);
  }
  static uint32_t ReadU32(const char* p) {
    uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
  }

  std::array<uint64_t, kDigits> limbs_{};
  uint32_t pending_ = 0;
};

/// A short stretch of the ExactSum layout: limbs [lo, lo + kLimbs),
/// unnormalized, with the same delayed-carry budget. 48 bytes instead of
/// ExactSum's 568, for the common case of summing a few values of similar
/// magnitude: a value fits when its three digits land inside the window
/// (values within a factor of ~2^32 of the first two always do). Adds
/// that do not fit return false and leave the window unchanged; the
/// caller then moves the sum into a full ExactSum (SpillTo).
class ExactWindow {
 public:
  static constexpr uint32_t kLimbs = 5;

  /// Starts at a + b (finite, > 0), centred so values a little below and
  /// above them still fit. False when a and b are too far apart to share
  /// a window.
  bool Start(double a, double b) {
    ExactSum::Split sa = ExactSum::SplitValue(a);
    ExactSum::Split sb = ExactSum::SplitValue(b);
    uint32_t low = sa.limb < sb.limb ? sa.limb : sb.limb;
    uint32_t high = sa.limb < sb.limb ? sb.limb : sa.limb;
    if (high - low > kLimbs - 3) return false;
    lo_ = high - low < kLimbs - 3 && low > 0 ? low - 1 : low;
    pending_ = 0;
    for (uint64_t& limb : limbs_) limb = 0;
    Put(sa);
    Put(sb);
    return true;
  }

  /// Adds a finite v > 0 exactly, or returns false if it does not fit.
  bool TryAdd(double v) {
    ExactSum::Split s = ExactSum::SplitValue(v);
    if (s.limb < lo_ || s.limb > lo_ + kLimbs - 3 ||
        pending_ >= ExactSum::kMaxPending - 1) {
      return false;
    }
    Put(s);
    return true;
  }

  /// Adds this window's exact value into `sum`.
  void SpillTo(ExactSum* sum) const {
    sum->Normalize();
    for (uint32_t i = 0; i < kLimbs; ++i) sum->limbs_[lo_ + i] += limbs_[i];
    sum->Normalize();
  }

  /// The canonical window of the value (out needs kLimbs + 1 digits).
  uint32_t Digits(uint32_t* lo, uint32_t* out) const {
    uint64_t d[kLimbs + 1];
    uint64_t carry = 0;
    for (uint32_t i = 0; i < kLimbs; ++i) {
      uint64_t limb = limbs_[i] + carry;  // limbs < 2^63, carries < 2^32
      d[i] = limb & 0xffffffffu;
      carry = limb >> 32;
    }
    d[kLimbs] = carry;
    return ExactSum::Trim(lo_, d, kLimbs + 1, lo, out);
  }

 private:
  void Put(const ExactSum::Split& s) {
    uint32_t at = s.limb - lo_;
    limbs_[at] += s.d[0];
    limbs_[at + 1] += s.d[1];
    limbs_[at + 2] += s.d[2];
    ++pending_;
  }

  uint32_t lo_ = 0;
  uint32_t pending_ = 0;
  uint64_t limbs_[kLimbs] = {};
};

}  // namespace hipads

#endif  // HIPADS_UTIL_EXACT_SUM_H_
