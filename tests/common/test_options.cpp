// The option table (common/options.hpp): one set of rows read by a
// command-line front-end and a JSON front-end, with the same typed errors.
#include "ldcf/common/options.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ldcf/analysis/knobs.hpp"
#include "ldcf/common/error.hpp"
#include "ldcf/obs/json_reader.hpp"

namespace {

using ldcf::InvalidArgument;
using ldcf::common::OptionTable;

/// Every field a test table binds, with a table over them.
struct Fixture {
  double duty = 5.0;
  std::uint32_t packets = 20;
  std::uint64_t seed = 1;
  std::string generator = "clustered";
  bool csv = false;
  std::vector<std::string> kills;
  OptionTable table{"tool", "A test tool."};

  explicit Fixture(bool json_names = false) {
    table
        .add(json_names ? "duty_pct" : "--duty", &duty,
             ldcf::analysis::knobs::duty_pct())
        .add(json_names ? "num_packets" : "--packets", &packets,
             ldcf::analysis::knobs::packets())
        .add(json_names ? "seed" : "--seed", &seed, {"S", "run seed"})
        .add(json_names ? "generator" : "--generator", &generator,
             ldcf::analysis::knobs::generator())
        .add(json_names ? "csv" : "--csv", &csv, {"", "CSV output"})
        .add(json_names ? "kill" : "--kill",
             [this](std::string_view text) { kills.emplace_back(text); },
             {"NODE@SLOT", "inject a node death (repeatable)"});
  }
  // The rows point into this object.
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;
};

/// The InvalidArgument message parse_argv throws for `args`.
std::string argv_error(std::vector<const char*> args) {
  Fixture f;
  args.insert(args.begin(), "tool");
  try {
    (void)f.table.parse_argv(static_cast<int>(args.size()), args.data());
  } catch (const InvalidArgument& error) {
    return error.what();
  }
  return "no error";
}

/// The InvalidArgument message parse_json throws for `json`.
std::string json_error(const std::string& json) {
  Fixture f(/*json_names=*/true);
  try {
    f.table.parse_json(*ldcf::obs::parse_json(json));
  } catch (const InvalidArgument& error) {
    return error.what();
  }
  return "no error";
}

TEST(Options, ArgvStoresTypedValues) {
  Fixture f;
  const std::vector<const char*> args = {
      "tool",   "--duty", "2.5",  "--packets", "7",           "--seed", "9",
      "--csv",  "--kill", "1@5",  "--kill",    "2@6",         "--generator",
      "grid"};
  ASSERT_TRUE(f.table.parse_argv(static_cast<int>(args.size()), args.data()));
  EXPECT_DOUBLE_EQ(f.duty, 2.5);
  EXPECT_EQ(f.packets, 7u);
  EXPECT_EQ(f.seed, 9u);
  EXPECT_TRUE(f.csv);
  EXPECT_EQ(f.generator, "grid");
  EXPECT_EQ(f.kills, (std::vector<std::string>{"1@5", "2@6"}));
  EXPECT_TRUE(f.table.seen("--duty"));
  EXPECT_FALSE(Fixture().table.seen("--duty"));
}

TEST(Options, JsonStoresTypedValues) {
  Fixture f(/*json_names=*/true);
  f.table.parse_json(*ldcf::obs::parse_json(
      R"({"duty_pct":2.5,"num_packets":7,"seed":18446744073709551615,)"
      R"("generator":"disk","csv":true,"kill":"3@4"})"));
  EXPECT_DOUBLE_EQ(f.duty, 2.5);
  EXPECT_EQ(f.packets, 7u);
  EXPECT_EQ(f.seed, 18446744073709551615ull);
  EXPECT_EQ(f.generator, "disk");
  EXPECT_TRUE(f.csv);
  EXPECT_EQ(f.kills, std::vector<std::string>{"3@4"});

  Fixture off(/*json_names=*/true);
  off.csv = true;
  off.table.parse_json(*ldcf::obs::parse_json(R"({"csv":false})"));
  EXPECT_FALSE(off.csv);
}

TEST(Options, UnknownFlagOrKeyIsNamed) {
  EXPECT_EQ(argv_error({"--dutty", "5"}),
            "bad option: '--dutty' (unknown option)");
  EXPECT_EQ(json_error(R"({"dutty_pct":5})"),
            "bad key: 'dutty_pct' (unknown key)");
}

TEST(Options, MissingValueNamesTheFlag) {
  EXPECT_EQ(argv_error({"--packets"}), "bad --packets: '' (missing value)");
}

TEST(Options, WrongJsonKindNamesTheKey) {
  EXPECT_EQ(json_error(R"({"num_packets":"20"})"),
            "bad num_packets: '20' (expected a number)");
  EXPECT_EQ(json_error(R"({"generator":4})"),
            "bad generator: '4' (expected a string)");
  EXPECT_EQ(json_error(R"({"csv":"yes"})"),
            "bad csv: 'yes' (expected a boolean)");
  EXPECT_EQ(json_error(R"({"seed":[1]})"),
            "bad seed: 'an array' (expected a number)");
  EXPECT_EQ(json_error("[1]"),
            "bad tool: 'an array' (expected a JSON object)");
}

TEST(Options, OutOfRangeValueNamesTheFlagAndTheRange) {
  EXPECT_EQ(argv_error({"--packets", "0"}),
            "bad --packets: '0' (must be >= 1)");
  EXPECT_EQ(argv_error({"--duty", "100.5"}),
            "bad --duty: '100.5' (must be in [0.01, 100])");
  // The type's own range comes first: no silent 32-bit wrap.
  EXPECT_EQ(argv_error({"--packets", "4294967299"}),
            "bad --packets: '4294967299' (out of range for a 32-bit unsigned "
            "value)");
  EXPECT_EQ(json_error(R"({"num_packets":-1})"),
            "bad num_packets: '-1' (negative values are not allowed)");
  EXPECT_EQ(argv_error({"--duty", "5x"}),
            "bad --duty: '5x' (trailing characters after the number)");
}

TEST(Options, BadChoiceListsTheChoices) {
  const std::string why = " (must be one of clustered|uniform|grid|disk)";
  EXPECT_EQ(argv_error({"--generator", "torus"}),
            "bad --generator: 'torus'" + why);
  EXPECT_EQ(json_error(R"({"generator":""})"), "bad generator: ''" + why);
}

TEST(Options, SharedDutyRowRejectsZeroIdenticallyFromArgvAndJson) {
  const std::string why = "'0' (must be in [0.01, 100])";
  EXPECT_EQ(argv_error({"--duty", "0"}), "bad --duty: " + why);
  EXPECT_EQ(json_error(R"({"duty_pct":0})"), "bad duty_pct: " + why);
}

TEST(Options, PositionalsMatchInOrder) {
  std::string in;
  std::uint32_t count = 3;
  OptionTable table("tool", "A test tool.");
  table.positional("IN", &in, {"", "input file"}, true)
      .positional("COUNT", &count, {"", "how many"}, false);

  const std::vector<const char*> both = {"tool", "a.json", "4"};
  ASSERT_TRUE(table.parse_argv(3, both.data()));
  EXPECT_EQ(in, "a.json");
  EXPECT_EQ(count, 4u);

  const std::vector<const char*> none = {"tool"};
  EXPECT_THROW((void)table.parse_argv(1, none.data()), InvalidArgument);
  const std::vector<const char*> extra = {"tool", "a", "1", "b"};
  try {
    (void)table.parse_argv(4, extra.data());
    FAIL() << "surplus positional accepted";
  } catch (const InvalidArgument& error) {
    EXPECT_STREQ(error.what(), "bad argument: 'b' (unexpected argument)");
  }
}

TEST(Options, HelpStopsParsingAndListsEveryRow) {
  Fixture f;
  const std::vector<const char*> args = {"tool", "--help", "--duty", "0"};
  EXPECT_FALSE(f.table.parse_argv(4, args.data()));
  EXPECT_DOUBLE_EQ(f.duty, 5.0);

  const std::string usage = f.table.usage();
  EXPECT_EQ(usage.rfind("usage: tool [options]\n", 0), 0u) << usage;
  for (const char* row : {"--duty PCT", "--packets M", "--seed S",
                          "--generator clustered|uniform|grid|disk", "--csv",
                          "--kill NODE@SLOT", "--help"}) {
    EXPECT_NE(usage.find("\n  " + std::string(row) + "\n"), std::string::npos)
        << row << " missing from:\n" << usage;
  }
  // Ranges and defaults are rendered from the rows themselves.
  EXPECT_NE(usage.find("(in [0.01, 100]) [default:\n      5]"),
            std::string::npos);
  EXPECT_NE(usage.find("(>= 1) [default: 20]"), std::string::npos);
}

TEST(Options, DefaultIsHiddenWhenTheRowWouldRejectIt) {
  double duty = 0.0;  // "unset": outside the knob's range.
  OptionTable table("tool", "A test tool.");
  table.add("--duty", &duty, ldcf::analysis::knobs::duty_pct());
  EXPECT_EQ(table.usage().find("[default:"), std::string::npos);
}

}  // namespace
