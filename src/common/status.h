// Error-handling primitives in the RocksDB idiom: fallible library calls
// return Status (or Result<T> for value-producing calls) instead of throwing.
#ifndef SCOOP_COMMON_STATUS_H_
#define SCOOP_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/check.h"

namespace scoop {

/// Outcome of a fallible operation. Default-constructed Status is OK.
class Status {
 public:
  /// Machine-inspectable error category.
  enum class Code : uint8_t {
    kOk = 0,
    kInvalidArgument,
    kNotFound,
    kOutOfRange,
    kResourceExhausted,
  };

  Status() = default;

  /// Named constructors, one per error category.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string_view msg) {
    return Status(Code::kInvalidArgument, msg);
  }
  static Status NotFound(std::string_view msg) { return Status(Code::kNotFound, msg); }
  static Status OutOfRange(std::string_view msg) { return Status(Code::kOutOfRange, msg); }
  static Status ResourceExhausted(std::string_view msg) {
    return Status(Code::kResourceExhausted, msg);
  }

  /// True iff the operation succeeded.
  bool ok() const { return code_ == Code::kOk; }
  Code code() const { return code_; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }

  /// Human-readable error message (empty for OK).
  const std::string& message() const { return message_; }

  /// "OK" or "<category>: <message>"; for logs and test failure output.
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  Status(Code code, std::string_view msg) : code_(code), message_(msg) {}

  Code code_ = Code::kOk;
  std::string message_;
};

/// Either a value of type T or an error Status. Accessing the value of an
/// errored Result is a checked programming error.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value or an error status keeps call sites
  /// terse (`return 42;` / `return Status::NotFound(...)`).
  Result(T value) : value_(std::move(value)) {}       // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {  // NOLINT(runtime/explicit)
    SCOOP_CHECK(!status_.ok());  // OK statuses must carry a value.
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    SCOOP_CHECK(ok());
    return *value_;
  }
  T& value() & {
    SCOOP_CHECK(ok());
    return *value_;
  }
  T&& value() && {
    SCOOP_CHECK(ok());
    return *std::move(value_);
  }

  /// Returns the value, or `fallback` when errored.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace scoop

#endif  // SCOOP_COMMON_STATUS_H_
