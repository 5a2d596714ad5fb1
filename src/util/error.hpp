// Error handling primitives for the plc1901 framework.
//
// Following the C++ Core Guidelines (E.2, E.3), exceptions are reserved for
// programming and configuration errors that callers cannot reasonably
// recover from in-band. Expected runtime conditions (a frame failing to
// decode, a counter query racing a reset) are reported through status
// returns, never through exceptions.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace plc {

/// Exception thrown on invalid configuration or API misuse.
///
/// Every throw site goes through `util::require()` / `util::check_arg()` so
/// that the invariant being violated is spelled out at the call site.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace util {

/// Throws `plc::Error` with `message`; the out-of-line half of require.
[[noreturn]] void throw_error(std::string_view message);

/// Throws `plc::Error` with `message` if `condition` is false.
///
/// Use for preconditions on public API entry points (invalid N, empty CW
/// vector, mismatched vector sizes, ...). Inline, so a passing check on a
/// hot path costs a branch, not a call.
inline void require(bool condition, std::string_view message) {
  if (!condition) [[unlikely]] throw_error(message);
}

/// Like `require`, but prefixes the message with the offending argument
/// name, producing "invalid argument 'cw': ...".
void check_arg(bool condition, std::string_view arg_name,
               std::string_view message);

}  // namespace util
}  // namespace plc
