#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "common/bitmap.h"
#include "common/random.h"
#include "common/rw_lock.h"
#include "common/status.h"
#include "common/string_util.h"

namespace xia {
namespace {

// ---------------------------------------------------------------- Status.

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("widget");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "widget");
  EXPECT_EQ(s.ToString(), "NotFound: widget");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::ParseError("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  XIA_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::Ok();
}

TEST(ResultTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseHalf(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_EQ(UseHalf(3, &out).code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------- Strings.

TEST(StringUtilTest, SplitKeepsEmptyPieces) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  std::vector<std::string> pieces = {"x", "y", "z"};
  EXPECT_EQ(Split(Join(pieces, "/"), '/'), pieces);
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("cand42", "cand"));
  EXPECT_FALSE(StartsWith("ca", "cand"));
  EXPECT_TRUE(EndsWith("file.xml", ".xml"));
  EXPECT_FALSE(EndsWith("xml", ".xml"));
}

TEST(StringUtilTest, ParseDoubleStrict) {
  EXPECT_EQ(ParseDouble("3.5"), 3.5);
  EXPECT_EQ(ParseDouble(" 42 "), 42.0);
  EXPECT_EQ(ParseDouble("-7"), -7.0);
  EXPECT_FALSE(ParseDouble("3.5x").has_value());
  EXPECT_FALSE(ParseDouble("").has_value());
  EXPECT_FALSE(ParseDouble("Creditcard").has_value());
}

TEST(StringUtilTest, FormatDoubleCompactsIntegers) {
  EXPECT_EQ(FormatDouble(5.0), "5");
  EXPECT_EQ(FormatDouble(-3.0), "-3");
}

TEST(StringUtilTest, FormatBytesUnits) {
  EXPECT_EQ(FormatBytes(512), "512.0 B");
  EXPECT_EQ(FormatBytes(2048), "2.0 KB");
  EXPECT_EQ(FormatBytes(3.0 * 1024 * 1024), "3.0 MB");
}

// ---------------------------------------------------------------- Random.

TEST(RandomTest, DeterministicFromSeed) {
  Random a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1000), b.Uniform(0, 1000));
  }
}

TEST(RandomTest, UniformRespectsBounds) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, ZipfSkewsTowardLowRanks) {
  Random rng(7);
  size_t low = 0;
  const int kDraws = 5000;
  for (int i = 0; i < kDraws; ++i) {
    if (rng.Zipf(100, 1.0) < 10) ++low;
  }
  // Under uniform, ~10%; Zipf(1.0) concentrates far more mass up front.
  EXPECT_GT(low, static_cast<size_t>(kDraws / 4));
}

TEST(RandomTest, ZipfThetaZeroIsUniform) {
  Random rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(rng.Zipf(10, 0.0), 10u);
  }
}

TEST(RandomTest, WordLengthInRange) {
  Random rng(7);
  for (int i = 0; i < 100; ++i) {
    std::string w = rng.Word(3, 8);
    EXPECT_GE(w.size(), 3u);
    EXPECT_LE(w.size(), 8u);
  }
}

// ---------------------------------------------------------------- Bitmap.

TEST(BitmapTest, SetTestClear) {
  Bitmap bm(130);
  EXPECT_EQ(bm.size(), 130u);
  EXPECT_TRUE(bm.None());
  bm.Set(0);
  bm.Set(64);
  bm.Set(129);
  EXPECT_TRUE(bm.Test(0));
  EXPECT_TRUE(bm.Test(64));
  EXPECT_TRUE(bm.Test(129));
  EXPECT_FALSE(bm.Test(1));
  EXPECT_EQ(bm.Count(), 3u);
  bm.Clear(64);
  EXPECT_FALSE(bm.Test(64));
  EXPECT_EQ(bm.Count(), 2u);
}

TEST(BitmapTest, UnionAndIntersection) {
  Bitmap a(10), b(10);
  a.Set(1);
  a.Set(3);
  b.Set(3);
  b.Set(5);
  Bitmap u = a;
  u |= b;
  EXPECT_TRUE(u.Test(1));
  EXPECT_TRUE(u.Test(3));
  EXPECT_TRUE(u.Test(5));
  Bitmap i = a;
  i &= b;
  EXPECT_FALSE(i.Test(1));
  EXPECT_TRUE(i.Test(3));
  EXPECT_EQ(i.Count(), 1u);
}

TEST(BitmapTest, SubsetAndIntersects) {
  Bitmap a(8), b(8);
  a.Set(2);
  b.Set(2);
  b.Set(4);
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  EXPECT_TRUE(a.Intersects(b));
  Bitmap c(8);
  c.Set(7);
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(c.IsSubsetOf(c));
}

TEST(BitmapTest, AllAndEquality) {
  Bitmap a(3);
  a.Set(0);
  a.Set(1);
  EXPECT_FALSE(a.All());
  a.Set(2);
  EXPECT_TRUE(a.All());
  Bitmap b(3);
  b.Set(0);
  b.Set(1);
  b.Set(2);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.ToString(), "111");
}

// ---------------------------------------------------------------- RwLock.

TEST(RwLockTest, ReadersShareAndAWriterExcludes) {
  RwLock lock;
  {
    std::shared_lock<RwLock> first(lock);
    EXPECT_TRUE(lock.try_lock_shared());
    lock.unlock_shared();
    EXPECT_FALSE(lock.try_lock());
  }
  {
    std::unique_lock<RwLock> writer(lock);
    EXPECT_FALSE(lock.try_lock_shared());
  }
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

// Once a writer waits, a new reader queues behind it even though only
// readers hold the lock: glibc's default rwlock (std::shared_mutex) lets
// the reader in, which starves the writer while readers overlap.
TEST(RwLockTest, AWaitingWriterHoldsOffNewReaders) {
  RwLock lock;
  lock.lock_shared();
  std::thread writer([&] {
    std::unique_lock<RwLock> exclusive(lock);
  });
  bool refused = false;
  for (int waited_ms = 0; waited_ms < 10000 && !refused; ++waited_ms) {
    if (lock.try_lock_shared()) {
      lock.unlock_shared();  // The writer is not queued yet.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } else {
      refused = true;
    }
  }
  lock.unlock_shared();
  writer.join();
  EXPECT_TRUE(refused);
}

}  // namespace
}  // namespace xia
