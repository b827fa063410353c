// One option table for every command line and the job spec.
//
// A tool's flags and the sweep service's job keys are rows of an
// OptionTable: a name, the field the value lands in, and a Knob (usage
// placeholder, help line, range or choices). parse_argv reads a command
// line, parse_json a job's "config" object; both run each value through
// the strict common/parse helpers and the row's range check, so a flag and
// a key bound to one Knob reject alike ("bad --duty: '0' (must be in
// (0, 100])", "bad duty_pct: '0' (...)"). The usage text is rendered from
// the rows, so --help lists exactly what the tool parses.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace ldcf::obs {
struct JsonValue;
}

namespace ldcf::common {

/// What a value must be, independent of how it is spelled, e.g.
/// Knob("PCT", "duty cycle").above(0).at_most(100).
struct Knob {
  Knob(std::string metavar_text, std::string help_text)
      : metavar(std::move(metavar_text)), help(std::move(help_text)) {}

  // Numeric rows reject values <= / < / > the bound; text rows reject
  // anything but the listed spellings.
  Knob& above(double bound) {
    min = bound;
    min_open = true;
    return *this;
  }
  Knob& at_least(double bound) {
    min = bound;
    return *this;
  }
  Knob& at_most(double bound) {
    max = bound;
    return *this;
  }
  Knob& one_of(std::vector<std::string> accepted) {
    choices = std::move(accepted);
    return *this;
  }

  std::string metavar;  ///< usage placeholder; empty shows the choices.
  std::string help;     ///< one line; the usage renderer wraps it.
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  bool min_open = false;
  std::vector<std::string> choices;
};

class OptionTable {
 public:
  /// Receives each occurrence's raw text, for repeatable or structured
  /// values (--kill NODE@SLOT); it parses with the common/parse helpers.
  using Handler = std::function<void(std::string_view)>;
  /// Where a row's value lands; the type picks the parser. A bool is a
  /// switch (true when given; JSON wants true/false), integers are strict
  /// unsigned decimals, a double is finite, strings and Handlers take text.
  using Target = std::variant<bool*, std::uint32_t*, std::uint64_t*, double*,
                              std::string*, Handler>;

  /// `program` names the tool in the usage and in usage errors; `summary`
  /// is printed under the synopsis.
  OptionTable(std::string program, std::string summary);

  /// A named row: "--duty" on a command line, "duty_pct" in a job config.
  /// The target's current value is shown as the default in the usage.
  OptionTable& add(std::string name, Target target, Knob knob);
  /// A positional argument, matched in order (command line only).
  OptionTable& positional(std::string name, Target target, Knob knob,
                          bool required);

  /// Command-line front-end over argv[1..argc). Throws InvalidArgument on
  /// an unknown flag, a missing value, a missing or surplus positional, or
  /// a value its row rejects. Returns false at "--help", reading no further.
  bool parse_argv(int argc, const char* const* argv);
  /// JSON front-end: every member of `object` must name a row and carry
  /// the row's JSON kind; values then go through the same checks as argv.
  void parse_json(const obs::JsonValue& object);

  /// parse_argv for a tool's main(): "--help" prints the usage to stdout
  /// and exits 0, a bad command line goes to usage_error.
  void parse_or_exit(int argc, const char* const* argv);
  /// Print "<program>: <message>" and the usage to stderr, exit 2.
  [[noreturn]] void usage_error(std::string_view message) const;

  /// Whether a parse has set the named row.
  [[nodiscard]] bool seen(std::string_view name) const;
  /// Synopsis, summary and one entry per row.
  [[nodiscard]] std::string usage() const;

 private:
  struct Row {
    std::string name;
    Target target;
    Knob knob;
    std::string fallback;  ///< rendered default; empty shows none.
    bool positional = false;
    bool required = false;
    bool seen = false;
  };

  Row* find(std::string_view name);
  static void store(Row& row, std::string_view text);

  std::string program_;
  std::string summary_;
  std::vector<Row> rows_;
};

}  // namespace ldcf::common
