// coopcr/util/env.hpp
//
// The one strict parser for every COOPCR_* environment knob.
//
// Every binary in the repo reads its runtime knobs (COOPCR_REPLICAS,
// COOPCR_THREADS, COOPCR_CSV_DIR, COOPCR_SHARDS, COOPCR_JOURNAL,
// COOPCR_PLOT) through these helpers instead of hand-rolling std::getenv +
// strtol. The contract is uniform: an unset or empty variable falls back to
// the caller's default, and a malformed value *always* throws coopcr::Error
// naming the knob — a typo'd COOPCR_REPLICAS=1o must abort the sweep, not
// silently run with a default. The CLIs parse their numeric flag values
// through the same parse_int/parse_double, so a flag and its env knob
// accept exactly the same text.

#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace coopcr::env {

/// Raw value of `name`; nullopt when unset or empty. The one getenv wrapper
/// everything else builds on.
std::optional<std::string> raw(const char* name);

/// Strict base-10 integer in [min_value, INT_MAX]. Throws coopcr::Error
/// naming `name` (a knob or a flag) on empty or non-numeric input, leading
/// whitespace, trailing garbage or out-of-range values.
int parse_int(const std::string& text, const std::string& name,
              int min_value);

/// Strict finite floating-point number in [min_value, +inf). Throws
/// coopcr::Error naming `name` on empty or non-numeric input, leading
/// whitespace, trailing garbage, inf/nan or out-of-range values.
double parse_double(const std::string& text, const std::string& name,
                    double min_value);

/// parse_int of the knob's value. Unset/empty falls back to `fallback`
/// (which is not range-checked — callers own their defaults).
int int_knob(const char* name, int fallback, int min_value);

/// Strict unsigned 64-bit knob (base 10, or base 16 with an 0x prefix —
/// seeds read naturally in hex). Unset/empty falls back.
std::uint64_t u64_knob(const char* name, std::uint64_t fallback);

/// parse_double of the knob's value (COOPCR_TARGET_CI and friends).
/// Unset/empty falls back (fallback is not range-checked).
double double_knob(const char* name, double fallback, double min_value);

/// String-valued knob (paths, spec names); unset/empty yields nullopt so
/// callers can distinguish "not configured" from any real value.
std::optional<std::string> string_knob(const char* name);

/// Boolean knob: unset/empty/"0" → false, "1" → true, anything else throws
/// (a silent typo like COOPCR_PLOT=yes must not disable the plot it asked
/// for).
bool flag_knob(const char* name);

}  // namespace coopcr::env
