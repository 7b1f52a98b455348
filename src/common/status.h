// Lightweight error-propagation types (Status / StatusOr) used instead of
// exceptions throughout the library, in keeping with OS-systems C++ practice.
#ifndef SRC_COMMON_STATUS_H_
#define SRC_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

// Discarding a Status silently swallows an error. The build compiles with
// -Werror=unused-result, so a call whose result is neither assigned,
// returned, checked, nor explicitly (void)-cast fails to compile
// (DESIGN.md §4c; the `status_discard_rejected` ctest probes it).
#define TS_NODISCARD [[nodiscard]]

namespace tierscape {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfMemory,       // allocation failed: medium or pool exhausted
  kNotFound,          // handle / entry does not exist
  kFailedPrecondition,
  kResourceExhausted,  // capacity limits other than raw memory
  kRejected,           // e.g. zswap refusing an incompressible page
  kCorruption,         // round-trip integrity failure
  kUnavailable,        // transient failure; retrying may succeed
  kDeadlineExceeded,   // operation blew its (virtual-time) budget
  kInternal,
};

std::string_view StatusCodeName(StatusCode code);

class TS_NODISCARD Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    if (ok()) {
      return "OK";
    }
    std::string out(StatusCodeName(code_));
    if (!message_.empty()) {
      out += ": ";
      out += message_;
    }
    return out;
  }

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  StatusCode code_;
  std::string message_;
};

inline Status OkStatus() { return Status::Ok(); }
inline Status InvalidArgument(std::string msg) {
  return Status(StatusCode::kInvalidArgument, std::move(msg));
}
inline Status OutOfMemory(std::string msg) {
  return Status(StatusCode::kOutOfMemory, std::move(msg));
}
inline Status NotFound(std::string msg) { return Status(StatusCode::kNotFound, std::move(msg)); }
inline Status FailedPrecondition(std::string msg) {
  return Status(StatusCode::kFailedPrecondition, std::move(msg));
}
inline Status ResourceExhausted(std::string msg) {
  return Status(StatusCode::kResourceExhausted, std::move(msg));
}
inline Status Rejected(std::string msg) { return Status(StatusCode::kRejected, std::move(msg)); }
inline Status Corruption(std::string msg) {
  return Status(StatusCode::kCorruption, std::move(msg));
}
inline Status Unavailable(std::string msg) {
  return Status(StatusCode::kUnavailable, std::move(msg));
}
inline Status DeadlineExceeded(std::string msg) {
  return Status(StatusCode::kDeadlineExceeded, std::move(msg));
}
inline Status Internal(std::string msg) { return Status(StatusCode::kInternal, std::move(msg)); }

// Minimal StatusOr: either a value or a non-OK status.
template <typename T>
class TS_NODISCARD StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    assert(!status_.ok() && "StatusOr constructed from OK status without a value");
  }
  StatusOr(T value)  // NOLINT(google-explicit-constructor)
      : status_(Status::Ok()), value_(std::move(value)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  T& value() & {
    assert(ok());
    return *value_;
  }
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

#define TS_RETURN_IF_ERROR(expr)          \
  do {                                    \
    ::tierscape::Status _st = (expr);     \
    if (!_st.ok()) {                      \
      return _st;                         \
    }                                     \
  } while (0)

#define TS_ASSIGN_OR_RETURN(lhs, expr)    \
  auto _so_##__LINE__ = (expr);           \
  if (!_so_##__LINE__.ok()) {             \
    return _so_##__LINE__.status();       \
  }                                       \
  lhs = std::move(_so_##__LINE__).value()

}  // namespace tierscape

#endif  // SRC_COMMON_STATUS_H_
