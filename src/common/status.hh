/**
 * @file
 * Lightweight Status / Result<T> error propagation used across module
 * boundaries where failures are expected behaviour (e.g. out-of-memory in
 * allocators), as opposed to panic()/fatal() which terminate.
 */

#ifndef VATTN_COMMON_STATUS_HH
#define VATTN_COMMON_STATUS_HH

#include <optional>
#include <string>
#include <utility>

#include "common/logging.hh"

namespace vattn
{

/** Error taxonomy shared by the substrates. */
enum class ErrorCode
{
    kOk = 0,
    kOutOfMemory,     ///< physical or virtual space exhausted
    kInvalidArgument, ///< caller error: bad size/alignment/id
    kNotFound,        ///< handle/address unknown
    kAlreadyExists,   ///< double insert / double map
    kFailedPrecondition, ///< operation not legal in current state
    kUnimplemented,
};

const char *toString(ErrorCode code);

/** A success-or-error value with an optional human-readable message. */
class Status
{
  public:
    Status() : code_(ErrorCode::kOk) {}
    Status(ErrorCode code, std::string msg)
        : code_(code), message_(std::move(msg)) {}

    static Status ok() { return Status(); }

    bool isOk() const { return code_ == ErrorCode::kOk; }
    ErrorCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** panic unless the status is OK (for call sites where failure is
     *  a bug, not an expected outcome). */
    void
    expectOk(const char *what) const
    {
        panic_if(!isOk(), what, ": ", toString(code_), " (", message_, ")");
    }

    bool operator==(const Status &o) const { return code_ == o.code_; }

  private:
    ErrorCode code_;
    std::string message_;
};

inline Status
errorStatus(ErrorCode code, std::string msg = "")
{
    return Status(code, std::move(msg));
}

/** A value or a Status describing why it could not be produced. */
template <typename T>
class Result
{
  public:
    Result(T value) : value_(std::move(value)) {}
    Result(Status status) : status_(std::move(status))
    {
        panic_if(status_.isOk(), "Result error ctor given OK status");
    }
    Result(ErrorCode code, std::string msg = "")
        : status_(code, std::move(msg)) {}

    bool isOk() const { return value_.has_value(); }
    const Status &status() const { return status_; }
    ErrorCode code() const
    {
        return isOk() ? ErrorCode::kOk : status_.code();
    }

    /** Access the value; panics if the result holds an error. */
    const T &
    value() const
    {
        panic_if(!isOk(), "Result::value() on error: ",
                 toString(status_.code()), " (", status_.message(), ")");
        return *value_;
    }

    T &
    value()
    {
        panic_if(!isOk(), "Result::value() on error: ",
                 toString(status_.code()), " (", status_.message(), ")");
        return *value_;
    }

    T
    valueOr(T fallback) const
    {
        return isOk() ? *value_ : std::move(fallback);
    }

    /** Same error code and, when OK, equal values. */
    bool
    operator==(const Result &o) const
    {
        return code() == o.code() && (!isOk() || *value_ == *o.value_);
    }

  private:
    std::optional<T> value_;
    Status status_;
};

inline const char *
toString(ErrorCode code)
{
    switch (code) {
      case ErrorCode::kOk: return "OK";
      case ErrorCode::kOutOfMemory: return "OUT_OF_MEMORY";
      case ErrorCode::kInvalidArgument: return "INVALID_ARGUMENT";
      case ErrorCode::kNotFound: return "NOT_FOUND";
      case ErrorCode::kAlreadyExists: return "ALREADY_EXISTS";
      case ErrorCode::kFailedPrecondition: return "FAILED_PRECONDITION";
      case ErrorCode::kUnimplemented: return "UNIMPLEMENTED";
    }
    return "?";
}

} // namespace vattn

#endif // VATTN_COMMON_STATUS_HH
