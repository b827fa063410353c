// parse_json bounds its recursion: nesting up to kMaxJsonDepth parses,
// one level more is a typed error carrying the byte offset, and a hostile
// megabyte of '[' is rejected at the cap instead of exhausting the stack.
#include "ldcf/obs/json_reader.hpp"

#include <gtest/gtest.h>

#include <string>

#include "ldcf/common/error.hpp"

namespace ldcf::obs {
namespace {

std::string nested_arrays(std::size_t depth) {
  return std::string(depth, '[') + std::string(depth, ']');
}

TEST(JsonReader, AcceptsNestingAtTheCap) {
  JsonPtr doc = parse_json(nested_arrays(kMaxJsonDepth));
  std::size_t depth = 0;
  for (const JsonValue* v = doc.get(); v != nullptr;
       v = v->items.empty() ? nullptr : v->items[0].get()) {
    EXPECT_EQ(v->kind, JsonValue::Kind::kArray);
    ++depth;
  }
  EXPECT_EQ(depth, kMaxJsonDepth);
}

TEST(JsonReader, RejectsNestingOneBeyondTheCapWithItsOffset) {
  try {
    (void)parse_json(nested_arrays(kMaxJsonDepth + 1));
    FAIL() << "nesting beyond the cap parsed";
  } catch (const InvalidArgument& error) {
    // The offending '[' is the (cap + 1)-th byte, at offset cap.
    const std::string expected =
        "at byte " + std::to_string(kMaxJsonDepth) + ":";
    EXPECT_NE(std::string(error.what()).find(expected), std::string::npos)
        << error.what();
  }
}

TEST(JsonReader, RejectsAMillionOpenBracketsWithoutDeepRecursion) {
  EXPECT_THROW((void)parse_json(std::string(1'000'000, '[')),
               InvalidArgument);
  std::string objects;
  for (int i = 0; i < 100'000; ++i) objects += "{\"a\":";
  EXPECT_THROW((void)parse_json(objects), InvalidArgument);
}

}  // namespace
}  // namespace ldcf::obs
