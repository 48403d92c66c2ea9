// Result<T>: a Status or a value of type T (Arrow-style).

#pragma once

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

#include "common/status.h"

namespace wedge {

namespace result_internal {

/// Prints `status` and aborts. A check that survives NDEBUG: reading the
/// value of an error Result would otherwise be silent undefined behavior
/// in release builds.
[[noreturn]] inline void DieOnError(const Status& status) {
  std::fprintf(stderr, "Result::ValueOrDie on an error: %s\n",
               status.ToString().c_str());
  std::abort();
}

}  // namespace result_internal

/// Holds either a value of type `T` or an error `Status`. Never holds both.
///
/// Typical use:
///   Result<Block> r = log.GetBlock(bid);
///   if (!r.ok()) return r.status();
///   const Block& b = *r;
template <typename T>
class Result {
 public:
  /// Constructs from a value (implicit, so functions can `return value;`).
  Result(T value)  // NOLINT(google-explicit-constructor)
      : value_(std::move(value)) {}

  /// Constructs from an error status. Must not be OK.
  Result(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  bool ok() const { return value_.has_value(); }

  /// The error status; Status::OK() if a value is held.
  const Status& status() const { return status_; }

  /// The held value. Prints the status and aborts, in every build type,
  /// if this Result holds an error.
  const T& ValueOrDie() const& {
    if (!ok()) result_internal::DieOnError(status_);
    return *value_;
  }
  T& ValueOrDie() & {
    if (!ok()) result_internal::DieOnError(status_);
    return *value_;
  }
  T ValueOrDie() && {
    if (!ok()) result_internal::DieOnError(status_);
    return std::move(*value_);
  }

  const T& operator*() const& { return ValueOrDie(); }
  T& operator*() & { return ValueOrDie(); }
  T operator*() && { return std::move(*this).ValueOrDie(); }

  const T* operator->() const { return &ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }

  /// Returns the value, or `fallback` if this Result holds an error.
  T ValueOr(T fallback) const& { return ok() ? *value_ : std::move(fallback); }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace wedge
