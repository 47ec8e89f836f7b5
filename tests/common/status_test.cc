#include "common/status.h"

#include <gtest/gtest.h>

namespace scoop {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("no such node");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "no such node");
  EXPECT_EQ(s.ToString(), "NotFound: no such node");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), Status::Code::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), Status::Code::kOutOfRange);
  EXPECT_EQ(Status::ResourceExhausted("x").code(), Status::Code::kResourceExhausted);
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::OutOfRange("a"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("bad"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  ASSERT_TRUE(r.ok());
  std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "hello");
}

TEST(ResultTest, MutableAccess) {
  Result<std::vector<int>> r(std::vector<int>{1, 2});
  r.value().push_back(3);
  EXPECT_EQ(r.value().size(), 3u);
}

}  // namespace
}  // namespace scoop
