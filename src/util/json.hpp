// Minimal JSON reader for the tools that consume our own machine-readable
// reports (damlab-bench-v1 documents, tools/bench_diff), parsed into one
// variant-ish Value tree; numbers are doubles (exactly how the emitter
// writes them). This is deliberately a reader for documents WE produce —
// a few KB to a few MB — not a general-purpose JSON library: no streaming,
// no surrogate-pair decoding beyond pass-through, friendly errors with
// byte offsets. Structure/string/escape syntax is enforced per RFC 8259;
// the number grammar is slightly looser than the RFC (leading zeros and
// bare '1.' / '.5' forms are accepted — from_chars decides), which our own
// emitter never produces.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dam::util::json {

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  /// Members in document order (bench documents have no duplicate keys).
  std::vector<std::pair<std::string, Value>> object;

  [[nodiscard]] bool is_null() const noexcept { return kind == Kind::kNull; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind == Kind::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind == Kind::kString;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind == Kind::kArray; }
  [[nodiscard]] bool is_object() const noexcept {
    return kind == Kind::kObject;
  }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;

  /// find() + number coercion with a fallback for absent/null members.
  [[nodiscard]] double number_or(std::string_view key,
                                 double fallback) const;

  /// find() + string coercion ("" when absent or not a string).
  [[nodiscard]] std::string string_or(std::string_view key) const;
};

/// Parses exactly one JSON value covering the whole input. Throws
/// std::runtime_error with a byte offset on malformed input, including
/// arrays/objects nested deeper than 256 levels.
[[nodiscard]] Value parse(std::string_view text);

/// Reads and parses a whole file. Throws std::runtime_error when the file
/// cannot be read or does not parse.
[[nodiscard]] Value parse_file(const std::string& path);

}  // namespace dam::util::json
