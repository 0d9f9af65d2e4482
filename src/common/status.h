#ifndef XIA_COMMON_STATUS_H_
#define XIA_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <utility>

namespace xia {

/// Error category for a failed operation. `kOk` means success.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kParseError,
  kInternal,
  kUnimplemented,
  kResourceExhausted,
  kCancelled,
  kUnavailable,
};

/// Returns a stable human-readable name for a status code, e.g.
/// "InvalidArgument".
const char* StatusCodeName(StatusCode code);

/// Lightweight status object used for error handling throughout the library.
/// Exceptions are not used; fallible operations return `Status` or
/// `Result<T>`.
class Status {
 public:
  /// Constructs an OK status.
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
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  /// Cooperative-cancellation outcome: the operation was stopped (by a
  /// CancelToken or because a sibling what-if task failed first), not
  /// wrong. Callers that degrade gracefully branch on IsCancelled().
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  /// Transient availability failure: the peer is overloaded, restarting,
  /// or the connection dropped — the canonical "retry later" verdict, as
  /// opposed to "this request can never succeed". Retry policies
  /// (common/retry.h) treat kUnavailable and kResourceExhausted as
  /// retryable and every other code as permanent.
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsCancelled() const { return code_ == StatusCode::kCancelled; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders as "Ok" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Result<T> is either a value or an error Status. Modeled after
/// absl::StatusOr but self-contained.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value or a non-OK status keeps call sites
  /// terse: `return value;` / `return Status::ParseError(...)`.
  Result(T value) : value_(std::move(value)) {}        // NOLINT
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    if (status_.ok()) {
      status_ = Status::Internal("Result constructed from OK status");
    }
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return *std::move(value_); }

  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Propagates a non-OK status from an expression producing `Status`.
#define XIA_RETURN_IF_ERROR(expr)              \
  do {                                         \
    ::xia::Status _xia_status = (expr);        \
    if (!_xia_status.ok()) return _xia_status; \
  } while (0)

/// Assigns the value of a `Result<T>` expression to `lhs`, propagating errors.
#define XIA_ASSIGN_OR_RETURN(lhs, expr)             \
  XIA_ASSIGN_OR_RETURN_IMPL(                        \
      XIA_STATUS_CONCAT(_xia_result, __LINE__), lhs, expr)

#define XIA_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                              \
  if (!tmp.ok()) return tmp.status();             \
  lhs = std::move(tmp).value()

#define XIA_STATUS_CONCAT_IMPL(a, b) a##b
#define XIA_STATUS_CONCAT(a, b) XIA_STATUS_CONCAT_IMPL(a, b)

}  // namespace xia

#endif  // XIA_COMMON_STATUS_H_
