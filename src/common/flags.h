#ifndef MODIS_COMMON_FLAGS_H_
#define MODIS_COMMON_FLAGS_H_

/// The numeric-flag parser of the modis_server, modis_cli, and worker
/// process command lines. Every numeric value goes through
/// ParseNumericFlag, so a bad value is reported with its flag and the
/// binary exits 2: it never throws out of main, and it never narrows
/// into a wrapped value.

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <type_traits>

#include "common/strings.h"

namespace modis {

/// Parses `text` as the value of numeric flag `flag`: the whole string
/// must be one number (an integer when T is integral) within [min, max],
/// and max must not exceed INT64_MAX. On success stores it in `*out`; on
/// failure prints "FLAG: 'TEXT' is not ... in [MIN, MAX]" to stderr and
/// returns false, leaving `*out` unchanged.
template <typename T>
bool ParseNumericFlag(const std::string& flag, const std::string& text,
                      T min, T max, T* out) {
  bool ok = false;
  if constexpr (std::is_integral_v<T>) {
    int64_t value = 0;
    ok = ParseInt64(text, &value) && value >= static_cast<int64_t>(min) &&
         value <= static_cast<int64_t>(max);
    if (ok) *out = static_cast<T>(value);
  } else {
    double value = 0.0;
    ok = ParseDouble(text, &value) && value >= double(min) &&
         value <= double(max);  // NaN fails both comparisons.
    if (ok) *out = static_cast<T>(value);
  }
  if (!ok) {
    std::ostringstream range;
    range << "[" << min << ", " << max << "]";
    std::fprintf(stderr, "%s: '%s' is not %s in %s\n", flag.c_str(),
                 text.c_str(),
                 std::is_integral_v<T> ? "an integer" : "a number",
                 range.str().c_str());
  }
  return ok;
}

}  // namespace modis

#endif  // MODIS_COMMON_FLAGS_H_
