#include "ldcf/common/options.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "ldcf/common/error.hpp"
#include "ldcf/common/parse.hpp"
#include "ldcf/obs/json_reader.hpp"

namespace ldcf::common {

namespace {

using obs::JsonValue;

template <class... F>
struct Overloaded : F... {
  using F::operator()...;
};
template <class... F>
Overloaded(F...) -> Overloaded<F...>;

// Indexed by JsonValue::Kind.
constexpr const char* kKindNames[] = {"null",     "a boolean", "a number",
                                      "a string", "an array",  "an object"};

std::string number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.15g", value);
  return buffer;
}

/// "in (0, 100]", ">= 1", "<= 65535", or empty for an unbounded knob.
std::string range_text(const Knob& knob) {
  const bool low = std::isfinite(knob.min);
  const bool high = std::isfinite(knob.max);
  std::string out;
  if (low && high) {
    out.append("in ").append(knob.min_open ? "(" : "[");
    out.append(number(knob.min)).append(", ").append(number(knob.max));
    out.append("]");
  } else if (low) {
    out.append(knob.min_open ? "> " : ">= ").append(number(knob.min));
  } else if (high) {
    out.append("<= ").append(number(knob.max));
  }
  return out;
}

bool in_range(double value, const Knob& knob) {
  const bool too_low = knob.min_open ? value <= knob.min : value < knob.min;
  return !too_low && value <= knob.max;
}

std::string joined_choices(const Knob& knob) {
  std::string out;
  for (const std::string& choice : knob.choices) {
    out += (out.empty() ? "" : "|") + choice;
  }
  return out;
}

void check_choice(std::string_view name, std::string_view text,
                  const Knob& knob) {
  for (const std::string& choice : knob.choices) {
    if (choice == text) return;
  }
  if (!knob.choices.empty()) {
    reject(name, text, "must be one of " + joined_choices(knob));
  }
}

/// The target's value as the usage shows it; empty for switches, handlers
/// and "unset" sentinels the row itself would reject.
std::string default_text(const OptionTable::Target& target, const Knob& knob) {
  const auto ranged = [&](double value, std::string text) {
    return in_range(value, knob) ? text : std::string();
  };
  return std::visit(
      Overloaded{
          [](bool*) { return std::string(); },
          [&](std::uint32_t* v) { return ranged(*v, std::to_string(*v)); },
          [&](std::uint64_t* v) {
            return ranged(static_cast<double>(*v), std::to_string(*v));
          },
          [&](double* v) { return ranged(*v, number(*v)); },
          [](std::string* v) { return *v; },
          [](const OptionTable::Handler&) { return std::string(); }},
      target);
}

/// The JSON value as an error message quotes it.
std::string shown(const JsonValue& value) {
  if (value.kind == JsonValue::Kind::kBool) {
    return value.boolean ? "true" : "false";
  }
  if (value.is_number() || value.is_string()) return value.text;
  return kKindNames[static_cast<int>(value.kind)];
}

/// Greedy word wrap at 79 columns, every line indented by `indent`.
std::string wrap(std::string_view text, std::size_t indent) {
  std::string out;
  std::string line(indent, ' ');
  std::istringstream words{std::string(text)};
  for (std::string word; words >> word;) {
    if (line.size() > indent && line.size() + 1 + word.size() > 79) {
      out.append(line).append("\n");
      line.assign(indent, ' ');
    }
    line.append(line.size() > indent ? " " : "").append(word);
  }
  return out.append(line).append("\n");
}

}  // namespace

OptionTable::OptionTable(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

OptionTable& OptionTable::add(std::string name, Target target, Knob knob) {
  LDCF_CHECK(find(name) == nullptr, "duplicate option " + name);
  std::string fallback = default_text(target, knob);
  rows_.push_back(Row{std::move(name), std::move(target), std::move(knob),
                      std::move(fallback), false, false, false});
  return *this;
}

OptionTable& OptionTable::positional(std::string name, Target target,
                                     Knob knob, bool required) {
  add(std::move(name), std::move(target), std::move(knob));
  rows_.back().positional = true;
  rows_.back().required = required;
  return *this;
}

OptionTable::Row* OptionTable::find(std::string_view name) {
  for (Row& row : rows_) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

void OptionTable::store(Row& row, std::string_view text) {
  const std::string_view name = row.name;
  const auto ranged = [&](auto value) {
    if (!in_range(static_cast<double>(value), row.knob)) {
      reject(name, text, "must be " + range_text(row.knob));
    }
    return value;
  };
  std::visit(
      Overloaded{
          [&](bool* field) { *field = text == "true"; },
          [&](std::uint32_t* field) { *field = ranged(parse_u32(text, name)); },
          [&](std::uint64_t* field) { *field = ranged(parse_u64(text, name)); },
          [&](double* field) { *field = ranged(parse_double(text, name)); },
          [&](std::string* field) {
            check_choice(name, text, row.knob);
            *field = text;
          },
          [&](const Handler& handler) {
            check_choice(name, text, row.knob);
            handler(text);
          }},
      row.target);
  row.seen = true;
}

bool OptionTable::parse_argv(int argc, const char* const* argv) {
  std::vector<Row*> positionals;
  for (Row& row : rows_) {
    if (row.positional) positionals.push_back(&row);
  }
  std::size_t next_positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help") return false;
    if (arg.size() > 2 && arg.substr(0, 2) == "--") {
      Row* row = find(arg);
      if (row == nullptr || row->positional) {
        reject("option", arg, "unknown option");
      }
      if (std::holds_alternative<bool*>(row->target)) {
        store(*row, "true");
      } else if (i + 1 < argc) {
        store(*row, argv[++i]);
      } else {
        reject(arg, "", "missing value");
      }
    } else if (next_positional < positionals.size()) {
      store(*positionals[next_positional++], arg);
    } else {
      reject("argument", arg, "unexpected argument");
    }
  }
  for (; next_positional < positionals.size(); ++next_positional) {
    const Row& row = *positionals[next_positional];
    if (row.required) reject(row.name, "", "missing argument");
  }
  return true;
}

void OptionTable::parse_json(const JsonValue& object) {
  if (!object.is_object()) {
    reject(program_, shown(object), "expected a JSON object");
  }
  for (const auto& [key, value] : object.members) {
    Row* row = find(key);
    if (row == nullptr || row->positional) reject("key", key, "unknown key");
    JsonValue::Kind want = JsonValue::Kind::kNumber;
    if (std::holds_alternative<bool*>(row->target)) {
      want = JsonValue::Kind::kBool;
    } else if (std::holds_alternative<std::string*>(row->target) ||
               std::holds_alternative<Handler>(row->target)) {
      want = JsonValue::Kind::kString;
    }
    if (value->kind != want) {
      reject(key, shown(*value),
             std::string("expected ") + kKindNames[static_cast<int>(want)]);
    }
    store(*row, shown(*value));
  }
}

void OptionTable::parse_or_exit(int argc, const char* const* argv) {
  try {
    if (parse_argv(argc, argv)) return;
  } catch (const InvalidArgument& error) {
    usage_error(error.what());
  }
  std::cout << usage();
  std::exit(0);
}

void OptionTable::usage_error(std::string_view message) const {
  std::cerr << program_ << ": " << message << "\n\n" << usage();
  std::exit(2);
}

bool OptionTable::seen(std::string_view name) const {
  for (const Row& row : rows_) {
    if (row.name == name) return row.seen;
  }
  throw InternalError("no option named " + std::string(name));
}

std::string OptionTable::usage() const {
  std::string synopsis = "usage: " + program_ + " [options]";
  std::string arguments;
  std::string options;
  for (const Row& row : rows_) {
    std::string help = row.knob.help;
    const std::string range = range_text(row.knob);
    if (!range.empty()) help.append(" (").append(range).append(")");
    if (!row.fallback.empty()) {
      help.append(" [default: ").append(row.fallback).append("]");
    }
    std::string head = row.name;
    if (row.positional) {
      synopsis.append(row.required ? " " + head : " [" + head + "]");
    } else if (!std::holds_alternative<bool*>(row.target)) {
      head.append(" ").append(row.knob.metavar.empty()
                                  ? joined_choices(row.knob)
                                  : row.knob.metavar);
    }
    (row.positional ? arguments : options)
        .append("  ")
        .append(head)
        .append("\n")
        .append(wrap(help, 6));
  }
  options.append("  --help\n").append(wrap("print this help and exit", 6));
  std::string out = synopsis;
  out.append("\n\n").append(wrap(summary_, 0));
  if (!arguments.empty()) out.append("\narguments:\n").append(arguments);
  return out.append("\noptions:\n").append(options);
}

}  // namespace ldcf::common
