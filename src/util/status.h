// Lightweight error-handling types (no exceptions, per the project style).
//
// Status carries an error code plus a human-readable message; Result<T>
// carries either a value or a Status. Both are cheap value types used
// pervasively by fallible SEP2P APIs.

#ifndef SEP2P_UTIL_STATUS_H_
#define SEP2P_UTIL_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace sep2p {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kFailedPrecondition,
  kInternal,
  kUnavailable,
  kPermissionDenied,
  kResourceExhausted,
  kSecurityViolation,  // a cryptographic or protocol check failed
};

// Returns a stable, human-readable name for `code` (e.g. "INVALID_ARGUMENT").
const char* StatusCodeName(StatusCode code);

class Status {
 public:
  // Default status is OK.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status PermissionDenied(std::string msg) {
    return Status(StatusCode::kPermissionDenied, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status SecurityViolation(std::string msg) {
    return Status(StatusCode::kSecurityViolation, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "<CODE>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

// Result<T> holds either a T or a non-OK Status.
template <typename T>
class Result {
 public:
  // Implicit construction from a value or an error keeps call sites terse,
  // mirroring absl::StatusOr.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;
};

// Propagates errors out of the enclosing function (which must return Status).
#define SEP2P_RETURN_IF_ERROR(expr)          \
  do {                                       \
    ::sep2p::Status _st = (expr);            \
    if (!_st.ok()) return _st;               \
  } while (false)

}  // namespace sep2p

#endif  // SEP2P_UTIL_STATUS_H_
