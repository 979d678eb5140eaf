// Error handling for gemmtune.
//
// The library reports unrecoverable misuse (bad parameters, out-of-range
// accesses in the simulator, malformed kernels) through gemmtune::Error,
// which carries a human-readable message and the source location of the
// failed check. Recoverable conditions (a candidate kernel that fails
// validation during tuning) are reported through return values instead.
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace gemmtune {

/// Exception thrown on precondition violations and internal invariant
/// failures anywhere in the library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
// Builds the "file:line: message" text; only reached on failure, so a
// passing check allocates nothing.
[[noreturn, gnu::cold, gnu::noinline]] inline void raise(
    std::string_view msg, const std::source_location& loc) {
  std::string what(loc.file_name());
  what += ':';
  what += std::to_string(loc.line());
  what += ": ";
  what += msg;
  throw Error(what);
}
}  // namespace detail

/// Checks a precondition; throws gemmtune::Error with the caller's source
/// location when `cond` is false. The message is taken as a view, so a
/// literal costs nothing on the passing path.
inline void check(bool cond, std::string_view msg,
                  const std::source_location loc =
                      std::source_location::current()) {
  if (!cond) detail::raise(msg, loc);
}

/// Unconditional failure with message; used for unreachable branches.
[[noreturn]] inline void fail(std::string_view msg,
                              const std::source_location loc =
                                  std::source_location::current()) {
  detail::raise(msg, loc);
}

}  // namespace gemmtune
