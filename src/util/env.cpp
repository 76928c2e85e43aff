#include "util/env.hpp"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>

#include "util/error.hpp"

namespace coopcr::env {

std::optional<std::string> raw(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return std::nullopt;
  return std::string(value);
}

int parse_int(const std::string& text, const std::string& name,
              int min_value) {
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(text.c_str(), &end, 10);
  // strtol tolerates leading whitespace; a knob must not.
  const char front = text.empty() ? '\0' : text.front();
  COOPCR_CHECK((front == '-' || (front >= '0' && front <= '9')) &&
                   end != text.c_str() && *end == '\0',
               name + "=\"" + text + "\" is not a valid integer");
  COOPCR_CHECK(errno != ERANGE && parsed >= min_value && parsed <= INT_MAX,
               name + "=" + text + " is out of range (minimum " +
                   std::to_string(min_value) + ")");
  return static_cast<int>(parsed);
}

double parse_double(const std::string& text, const std::string& name,
                    double min_value) {
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  // strtod tolerates leading whitespace and accepts "inf"/"nan"; a knob must
  // not.
  const char front = text.empty() ? '\0' : text.front();
  COOPCR_CHECK((front == '-' || front == '.' ||
                (front >= '0' && front <= '9')) &&
                   end != text.c_str() && *end == '\0' &&
                   std::isfinite(parsed),
               name + "=\"" + text + "\" is not a valid number");
  COOPCR_CHECK(errno != ERANGE && parsed >= min_value,
               name + "=" + text + " is out of range (minimum " +
                   std::to_string(min_value) + ")");
  return parsed;
}

int int_knob(const char* name, int fallback, int min_value) {
  const std::optional<std::string> value = raw(name);
  return value ? parse_int(*value, name, min_value) : fallback;
}

std::uint64_t u64_knob(const char* name, std::uint64_t fallback) {
  const std::optional<std::string> value = raw(name);
  if (!value) return fallback;
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value->c_str(), &end, 0);
  COOPCR_CHECK(value->front() >= '0' && value->front() <= '9' &&
                   end != value->c_str() && *end == '\0',
               std::string(name) + "=\"" + *value +
                   "\" is not a valid unsigned integer");
  COOPCR_CHECK(errno != ERANGE,
               std::string(name) + "=" + *value + " is out of range");
  return static_cast<std::uint64_t>(parsed);
}

double double_knob(const char* name, double fallback, double min_value) {
  const std::optional<std::string> value = raw(name);
  return value ? parse_double(*value, name, min_value) : fallback;
}

std::optional<std::string> string_knob(const char* name) { return raw(name); }

bool flag_knob(const char* name) {
  const std::optional<std::string> value = raw(name);
  if (!value || *value == "0") return false;
  COOPCR_CHECK(*value == "1", std::string(name) + "=\"" + *value +
                                  "\" is not a valid flag (use 0 or 1)");
  return true;
}

}  // namespace coopcr::env
