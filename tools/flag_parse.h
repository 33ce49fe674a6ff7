// Checked numeric flag parsing shared by the command-line tools. A value
// silently read as 0 or truncated (atoi's "5abc" -> 5, "4294967298" -> 2)
// would run a different experiment than the one asked for, so malformed
// or out-of-range values die with exit 1 and one
// "<tool>: <flag> expects ..." line on stderr.
//
// Each tool defines diablo::cli::Die, which prints its own prefix.

#ifndef DIABLO_TOOLS_FLAG_PARSE_H_
#define DIABLO_TOOLS_FLAG_PARSE_H_

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string>

namespace diablo::cli {

/// Prints "<tool>: message" to stderr and exits 1.
[[noreturn]] void Die(const std::string& message);

/// A number; one too large for a double ("1e999") dies rather than
/// reading as infinity. Underflow rounds, as in the lexer.
inline double ParseDoubleFlag(const std::string& flag,
                              const std::string& text) {
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end == nullptr || *end != '\0' ||
      (errno == ERANGE && std::isinf(v))) {
    Die(flag + " expects a number, got '" + text + "'");
  }
  return v;
}

/// ParseDoubleFlag restricted to a probability: NaN, infinities and
/// values outside [0, 1] die instead of acting as 0 or 1 downstream.
inline double ParseRateFlag(const std::string& flag, const std::string& text) {
  double v = ParseDoubleFlag(flag, text);
  if (!(v >= 0.0 && v <= 1.0)) {
    Die(flag + " expects a probability in [0, 1], got '" + text + "'");
  }
  return v;
}

inline long long ParseIntFlag(const std::string& flag,
                              const std::string& text) {
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || end == nullptr || *end != '\0' || errno == ERANGE) {
    Die(flag + " expects an integer, got '" + text + "'");
  }
  return v;
}

/// ParseIntFlag restricted to [lo, hi]. Sizes and counts are checked
/// here because a zero or negative one reaches the engine as a silent
/// clamp, a division by zero in the cost model, or a negative shift.
inline long long ParseIntFlagIn(const std::string& flag,
                                const std::string& text, long long lo,
                                long long hi) {
  long long v = ParseIntFlag(flag, text);
  if (v < lo || v > hi) {
    Die(flag + " expects an integer in [" + std::to_string(lo) + ", " +
        std::to_string(hi) + "], got '" + text + "'");
  }
  return v;
}

}  // namespace diablo::cli

#endif  // DIABLO_TOOLS_FLAG_PARSE_H_
