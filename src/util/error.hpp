// coopcr/util/error.hpp
//
// Error handling primitives shared by all coopcr modules.
//
// The library throws `coopcr::Error` for contract violations that a caller
// could plausibly trigger (bad configuration, inconsistent workload
// definitions) and uses COOPCR_ASSERT for internal invariants whose failure
// indicates a bug in the simulator itself.

#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace coopcr {

/// Exception type thrown by all coopcr components on contract violation.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& message) : std::runtime_error(message) {}

  /// what() is `context` + `message`; message() leaves the context out.
  Error(const std::string& context, const std::string& message)
      : std::runtime_error(context + message),
        message_offset_(context.size()) {}

  /// what() without the "file:line: check failed: <condition> — " prefix a
  /// COOPCR_CHECK adds: the caller's own text, the one to show a client.
  /// It is the same from every checkout and build path, and renaming a
  /// variable in a checked condition does not change it.
  const char* message() const noexcept { return what() + message_offset_; }

 private:
  std::size_t message_offset_ = 0;
};

namespace detail {

/// Throws Error whose context is "file:line: " + `what_failed`.
[[noreturn]] inline void throw_error(const char* file, int line,
                                     const char* what_failed,
                                     const std::string& message) {
  throw Error(std::string(file) + ":" + std::to_string(line) + ": " +
                  what_failed,
              message);
}

}  // namespace detail

}  // namespace coopcr

/// Throw coopcr::Error with file/line context when `cond` is false.
/// Used for caller-facing contract checks; always enabled.
#define COOPCR_CHECK(cond, msg)                                 \
  do {                                                          \
    if (!(cond)) {                                              \
      ::coopcr::detail::throw_error(__FILE__, __LINE__,         \
                                    "check failed: " #cond " — ", (msg)); \
    }                                                           \
  } while (false)

/// Internal invariant check. Enabled in all build types: the simulator is
/// cheap enough that correctness beats the last few percent of speed.
#define COOPCR_ASSERT(cond, msg)                                \
  do {                                                          \
    if (!(cond)) {                                              \
      ::coopcr::detail::throw_error(__FILE__, __LINE__,         \
                                    "invariant violated: " #cond " — ", (msg)); \
    }                                                           \
  } while (false)
