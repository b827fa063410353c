#include "ldcf/common/parse.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

#include "ldcf/common/error.hpp"

namespace ldcf::common {

void reject(std::string_view what, std::string_view text,
            std::string_view why) {
  throw InvalidArgument("bad " + std::string(what) + ": '" +
                        std::string(text) + "' (" + std::string(why) + ")");
}

std::uint64_t parse_u64(std::string_view text, std::string_view what) {
  if (text.empty()) reject(what, text, "empty");
  if (text.front() == '-') {
    reject(what, text, "negative values are not allowed");
  }
  if (text.front() == '+') reject(what, text, "explicit sign not allowed");
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') reject(what, text, "not a decimal integer");
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      reject(what, text, "out of range for a 64-bit unsigned value");
    }
    value = value * 10 + digit;
  }
  return value;
}

std::uint32_t parse_u32(std::string_view text, std::string_view what) {
  const std::uint64_t value = parse_u64(text, what);
  if (value > std::numeric_limits<std::uint32_t>::max()) {
    reject(what, text, "out of range for a 32-bit unsigned value");
  }
  return static_cast<std::uint32_t>(value);
}

double parse_double(std::string_view text, std::string_view what) {
  if (text.empty()) reject(what, text, "empty");
  const char first = text.front();
  // strtod skips leading whitespace and accepts "inf"/"nan"; gate the
  // first character so only an actual number can start the parse.
  if (first != '-' && first != '.' && (first < '0' || first > '9')) {
    reject(what, text, "not a number");
  }
  const std::string owned(text);  // strtod needs NUL termination.
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(owned.c_str(), &end);
  if (end != owned.c_str() + owned.size() || end == owned.c_str()) {
    reject(what, text, "trailing characters after the number");
  }
  if (errno == ERANGE && (value == HUGE_VAL || value == -HUGE_VAL)) {
    reject(what, text, "out of range for a double");
  }
  if (!std::isfinite(value)) reject(what, text, "not a finite number");
  return value;
}

}  // namespace ldcf::common
