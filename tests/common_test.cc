// Unit tests for the common substrate: Status, Result, codec, hex,
// histogram, RNG.

#include <gtest/gtest.h>

#include "common/codec.h"
#include "common/hex.h"
#include "common/histogram.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/slice.h"
#include "common/status.h"

namespace wedge {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::SecurityViolation("bad signature");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsSecurityViolation());
  EXPECT_EQ(s.message(), "bad signature");
  EXPECT_EQ(s.ToString(), "SecurityViolation: bad signature");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_NE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_NE(Status::NotFound("x"), Status::NotFound("y"));
  EXPECT_NE(Status::NotFound("x"), Status::Corruption("x"));
}

TEST(StatusTest, ReturnNotOkMacro) {
  auto fails = []() -> Status {
    WEDGE_RETURN_NOT_OK(Status::Timeout("t"));
    return Status::OK();
  };
  EXPECT_TRUE(fails().IsTimeout());

  auto passes = []() -> Status {
    WEDGE_RETURN_NOT_OK(Status::OK());
    return Status::Internal("reached");
  };
  EXPECT_TRUE(passes().IsInternal());
}

// ---------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

// Reading the value of an error Result aborts with the status, in every
// build type: an assert alone vanishes under NDEBUG and returns garbage.
TEST(ResultDeathTest, DereferencingAnErrorDies) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_DEATH((void)*r, "NotFound: nope");
  EXPECT_DEATH((void)std::move(r).ValueOrDie(), "NotFound: nope");
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string v = std::move(r).ValueOrDie();
  EXPECT_EQ(v, "payload");
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::Unavailable("down");
    return 7;
  };
  auto outer = [&](bool fail) -> Status {
    int v = 0;
    WEDGE_ASSIGN_OR_RETURN(v, inner(fail));
    return v == 7 ? Status::OK() : Status::Internal("bad value");
  };
  EXPECT_TRUE(outer(false).ok());
  EXPECT_TRUE(outer(true).IsUnavailable());
}

// ---------------------------------------------------------------- Slice

TEST(SliceTest, CompareAndEquality) {
  EXPECT_EQ(Slice("abc"), Slice("abc"));
  EXPECT_LT(Slice("abc"), Slice("abd"));
  EXPECT_LT(Slice("ab"), Slice("abc"));
  EXPECT_NE(Slice("a"), Slice("b"));
  EXPECT_TRUE(Slice().empty());
}

TEST(SliceTest, RemovePrefix) {
  Slice s("hello");
  s.RemovePrefix(2);
  EXPECT_EQ(s.ToString(), "llo");
}

// ---------------------------------------------------------------- Codec

TEST(CodecTest, RoundTripPrimitives) {
  Encoder enc;
  enc.PutU8(0xab);
  enc.PutU16(0x1234);
  enc.PutU32(0xdeadbeef);
  enc.PutU64(0x0123456789abcdefULL);
  enc.PutI64(-42);
  enc.PutBool(true);
  enc.PutBool(false);
  enc.PutString("wedge");

  Decoder dec(enc.buffer());
  EXPECT_EQ(*dec.GetU8(), 0xab);
  EXPECT_EQ(*dec.GetU16(), 0x1234);
  EXPECT_EQ(*dec.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(*dec.GetU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(*dec.GetI64(), -42);
  EXPECT_TRUE(*dec.GetBool());
  EXPECT_FALSE(*dec.GetBool());
  EXPECT_EQ(*dec.GetString(), "wedge");
  EXPECT_TRUE(dec.ExpectDone().ok());
}

TEST(CodecTest, VarintRoundTrip) {
  const uint64_t values[] = {0,    1,    127,        128,
                             300,  1u << 20, 1ull << 40, ~0ull};
  Encoder enc;
  for (uint64_t v : values) enc.PutVarint(v);
  Decoder dec(enc.buffer());
  for (uint64_t v : values) EXPECT_EQ(*dec.GetVarint(), v);
  EXPECT_TRUE(dec.ExpectDone().ok());
}

TEST(CodecTest, VarintIsCompactForSmallValues) {
  Encoder enc;
  enc.PutVarint(5);
  EXPECT_EQ(enc.size(), 1u);
}

TEST(CodecTest, UnderflowIsCorruption) {
  Encoder enc;
  enc.PutU16(7);
  Decoder dec(enc.buffer());
  EXPECT_TRUE(dec.GetU64().status().IsCorruption());
}

TEST(CodecTest, BoolByteOutOfRange) {
  Bytes b = {2};
  Decoder dec(b);
  EXPECT_TRUE(dec.GetBool().status().IsCorruption());
}

TEST(CodecTest, TrailingBytesDetected) {
  Encoder enc;
  enc.PutU32(1);
  enc.PutU8(9);
  Decoder dec(enc.buffer());
  ASSERT_TRUE(dec.GetU32().ok());
  EXPECT_FALSE(dec.ExpectDone().ok());
}

TEST(CodecTest, BytesLengthPrefixed) {
  Encoder enc;
  Bytes payload = {1, 2, 3, 4, 5};
  enc.PutBytes(payload);
  Decoder dec(enc.buffer());
  EXPECT_EQ(*dec.GetBytes(), payload);
}

TEST(CodecTest, EmptyBytesRoundTrip) {
  Encoder enc;
  enc.PutBytes(Slice());
  Decoder dec(enc.buffer());
  EXPECT_TRUE(dec.GetBytes()->empty());
  EXPECT_TRUE(dec.ExpectDone().ok());
}

TEST(CodecTest, OwningDecoderOutlivesTemporary) {
  // Decoder must keep an rvalue buffer alive: `Decoder dec(MakeBytes())`
  // would otherwise read freed memory.
  auto make_bytes = [] {
    Encoder enc;
    enc.PutU32(0xfeedface);
    enc.PutString("still alive");
    return enc.TakeBuffer();
  };
  Decoder dec(make_bytes());
  EXPECT_EQ(*dec.GetU32(), 0xfeedfaceu);
  EXPECT_EQ(*dec.GetString(), "still alive");
  EXPECT_TRUE(dec.ExpectDone().ok());
}

// ---------------------------------------------------------------- Hex

TEST(HexTest, EncodeDecodeRoundTrip) {
  Bytes b = {0x00, 0xde, 0xad, 0xbe, 0xef, 0xff};
  std::string h = HexEncode(b);
  EXPECT_EQ(h, "00deadbeefff");
  EXPECT_EQ(*HexDecode(h), b);
}

TEST(HexTest, UpperCaseAccepted) {
  EXPECT_EQ(*HexDecode("DEADBEEF"), (*HexDecode("deadbeef")));
}

TEST(HexTest, OddLengthRejected) {
  EXPECT_TRUE(HexDecode("abc").status().IsInvalidArgument());
}

TEST(HexTest, NonHexRejected) {
  EXPECT_TRUE(HexDecode("zz").status().IsInvalidArgument());
}

// ---------------------------------------------------------------- Histogram

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(50), 0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1000);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_DOUBLE_EQ(h.Mean(), 1000.0);
  // Percentile answers within bucket resolution (~6%).
  EXPECT_NEAR(h.Percentile(50), 1000, 70);
}

TEST(HistogramTest, PercentilesOrdered) {
  Histogram h;
  for (int i = 1; i <= 10000; ++i) h.Record(i);
  int64_t p50 = h.Percentile(50);
  int64_t p90 = h.Percentile(90);
  int64_t p99 = h.Percentile(99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_NEAR(static_cast<double>(p50), 5000.0, 5000.0 * 0.07);
  EXPECT_NEAR(static_cast<double>(p99), 9900.0, 9900.0 * 0.07);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  a.Record(10);
  b.Record(20);
  b.Record(30);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 30);
  EXPECT_DOUBLE_EQ(a.Mean(), 20.0);
}

TEST(HistogramTest, NegativeClampedToZero) {
  Histogram h;
  h.Record(-5);
  EXPECT_EQ(h.min(), 0);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(123);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0);
}

// ---------------------------------------------------------------- RNG

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) same++;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextBelowInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = r.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng r(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

}  // namespace
}  // namespace wedge
