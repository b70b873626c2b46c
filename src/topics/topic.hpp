// Topic identities and path syntax.
//
// Topics are written as dot-prefixed paths, e.g. ".dsn04.reviewers"
// (Section III-A of the paper). The root topic is ".". Internally topics
// are interned into dense `TopicId`s by `TopicDag` (topics/dag.hpp, whose
// intern_path reads this syntax); all protocol code manipulates ids only.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dam::topics {

/// Dense handle for a topic of a TopicDag: topics are numbered 0..n-1 in
/// the order they were added.
struct TopicId {
  std::uint32_t value = 0;

  friend auto operator<=>(const TopicId&, const TopicId&) = default;
};

/// The id intern_path gives the root "." in an empty TopicDag.
inline constexpr TopicId kRootTopic{0};

/// A parsed, validated topic path: the sequence of segments below the root.
/// ".":  {} (root);  ".a.b": {"a","b"}.
class TopicPath {
 public:
  TopicPath() = default;  // root

  /// Parses `text`. Returns nullopt unless `text` is "." or a '.'-prefixed
  /// sequence of non-empty segments of [a-zA-Z0-9_-] characters.
  static std::optional<TopicPath> parse(std::string_view text);

  [[nodiscard]] const std::vector<std::string>& segments() const noexcept {
    return segments_;
  }

 private:
  std::vector<std::string> segments_;
};

/// True iff `segment` is a valid single path segment.
[[nodiscard]] bool valid_segment(std::string_view segment) noexcept;

}  // namespace dam::topics
