// Minimal command-line argument parser for the tools/ binaries.
//
// Supports long options with values (`--seed=42` or `--seed 42`), boolean
// flags (`--verbose`), typed access with defaults, positional arguments,
// and generated --help text. Errors (unknown option, missing value, bad
// number) surface as ArgError with a human-readable message.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace dam::util {

class ArgError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ArgParser {
 public:
  explicit ArgParser(std::string program_description)
      : description_(std::move(program_description)) {}

  /// Declares a boolean flag (present/absent; no value).
  void add_flag(std::string_view name, std::string_view help);

  /// Declares an option taking a value, with a default.
  void add_option(std::string_view name, std::string_view default_value,
                  std::string_view help);

  /// Parses argv (excluding argv[0]). Throws ArgError on unknown options,
  /// missing values, or repeated definitions. `--` ends option parsing;
  /// everything after it is positional.
  void parse(int argc, const char* const* argv);

  [[nodiscard]] bool flag(std::string_view name) const;
  [[nodiscard]] std::string str(std::string_view name) const;

  [[nodiscard]] std::int64_t integer(std::string_view name) const;
  [[nodiscard]] double real(std::string_view name) const;

  /// Comma-separated list of unsigned integers ("10,100,1000").
  [[nodiscard]] std::vector<std::size_t> size_list(
      std::string_view name) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  [[nodiscard]] bool help_requested() const noexcept {
    return help_requested_;
  }

  [[nodiscard]] std::string help_text() const;

 private:
  struct Spec {
    bool is_flag = false;
    std::string default_value;
    std::string help;
  };

  const Spec& spec_of(std::string_view name) const;

  std::string description_;
  std::vector<std::pair<std::string, Spec>> specs_;  // declaration order
  std::unordered_map<std::string, std::string> values_;
  std::unordered_map<std::string, bool> flags_;
  std::vector<std::string> positional_;
  bool help_requested_ = false;
};

}  // namespace dam::util
