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

  /// what() is `location` + `message`; message() leaves the location out.
  Error(const std::string& location, const std::string& message)
      : std::runtime_error(location + message),
        message_offset_(location.size()) {}

  /// what() without the "file:line: " prefix a COOPCR_CHECK adds: the text
  /// to show a client, the same from every checkout and build path.
  const char* message() const noexcept { return what() + message_offset_; }

 private:
  std::size_t message_offset_ = 0;
};

namespace detail {

[[noreturn]] inline void throw_error(const char* file, int line,
                                     const std::string& message) {
  throw Error(std::string(file) + ":" + std::to_string(line) + ": ",
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
                                    std::string("check failed: " #cond " — ") + (msg)); \
    }                                                           \
  } while (false)

/// Internal invariant check. Enabled in all build types: the simulator is
/// cheap enough that correctness beats the last few percent of speed.
#define COOPCR_ASSERT(cond, msg)                                \
  do {                                                          \
    if (!(cond)) {                                              \
      ::coopcr::detail::throw_error(__FILE__, __LINE__,         \
                                    std::string("invariant violated: " #cond " — ") + (msg)); \
    }                                                           \
  } while (false)
