// Error-handling helpers shared across all hvcache modules.
//
// Style follows the C++ Core Guidelines: preconditions are checked with
// ensure()/expects() which throw rather than abort, so library users can
// recover and tests can assert on failures.
//
// A passing check costs only its test: the message is a string_view, so a
// literal builds no std::string, and the text (plus the
// "at file:line (function)" suffix) is formatted out of line, only on the
// failing branch. Replay loops call these once per trace record.
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace hvc {

/// Thrown when a precondition (caller error) is violated.
class PreconditionError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown when an internal invariant is violated (library bug or
/// configuration that escaped validation).
class InvariantError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown when a user-supplied configuration is rejected.
class ConfigError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {
/// Throw PreconditionError / InvariantError with the text
/// "<msg> at <file>:<line> (<function>)".
[[noreturn]] void throw_precondition(std::string_view msg,
                                     const std::source_location& loc);
[[noreturn]] void throw_invariant(std::string_view msg,
                                  const std::source_location& loc);
}  // namespace detail

/// Precondition check: throws PreconditionError when `cond` is false.
inline void expects(bool cond, std::string_view msg,
                    std::source_location loc = std::source_location::current()) {
  if (!cond) [[unlikely]] {
    detail::throw_precondition(msg, loc);
  }
}

/// Invariant check: throws InvariantError when `cond` is false.
inline void ensure(bool cond, std::string_view msg,
                   std::source_location loc = std::source_location::current()) {
  if (!cond) [[unlikely]] {
    detail::throw_invariant(msg, loc);
  }
}

}  // namespace hvc
