// Strict scalar parsing for every CLI flag and server request field, used
// through the option table (options.hpp). Each helper rejects the whole
// input unless it is exactly one well-formed value: no sign-wrapped
// negatives ("--reps -1" as 2^64-1), no trailing junk ("10x"), no silent
// saturation or 32-bit truncation.
//
// Failures throw InvalidArgument("bad <what>: '<text>' (<why>)") with the
// caller's label (e.g. "--reps"), so a CLI can print it as a usage error
// and the server can echo it in a structured error frame.
#pragma once

#include <cstdint>
#include <string_view>

namespace ldcf::common {

/// Throw InvalidArgument("bad <what>: '<text>' (<why>)").
[[noreturn]] void reject(std::string_view what, std::string_view text,
                         std::string_view why);

/// Strict unsigned decimal: one or more digits, nothing else. Rejects an
/// empty string, any sign (unsigned flags have no meaningful negative),
/// whitespace, trailing junk ("10x"), and values that do not fit UINT64.
[[nodiscard]] std::uint64_t parse_u64(std::string_view text,
                                      std::string_view what = "integer");

/// parse_u64 plus a UINT32 range check, for flags whose target is 32-bit —
/// the old pattern static_cast<uint32_t>(parse_u64(...)) truncated silently.
[[nodiscard]] std::uint32_t parse_u32(std::string_view text,
                                      std::string_view what = "integer");

/// Strict finite double: the whole input must be one number (optional
/// leading '-' allowed — signed ranges are the caller's business), and the
/// result must be finite. Rejects empty input, leading whitespace, trailing
/// junk ("1.5x"), "inf"/"nan", and values that overflow to infinity.
[[nodiscard]] double parse_double(std::string_view text,
                                  std::string_view what = "number");

}  // namespace ldcf::common
