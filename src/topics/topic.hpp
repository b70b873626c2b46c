// Topic identities and path syntax.
//
// Topics are written as dot-prefixed paths, e.g. ".dsn04.reviewers"
// (Section III-A of the paper). The root topic is ".". Internally topics
// are interned into dense `TopicId`s by `TopicHierarchy`; all protocol code
// manipulates ids only.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dam::topics {

/// Dense handle for an interned topic. Id 0 is always the root topic ".".
struct TopicId {
  std::uint32_t value = 0;

  friend auto operator<=>(const TopicId&, const TopicId&) = default;
};

inline constexpr TopicId kRootTopic{0};

/// A parsed, validated topic path: the sequence of segments below the root.
/// ".":  {} (root);  ".a.b": {"a","b"}.
class TopicPath {
 public:
  TopicPath() = default;  // root

  /// Parses `text`. Returns nullopt unless `text` is "." or a '.'-prefixed
  /// sequence of non-empty segments of [a-zA-Z0-9_-] characters.
  static std::optional<TopicPath> parse(std::string_view text);

  /// Builds from explicit segments (assumed already validated).
  static TopicPath from_segments(std::vector<std::string> segments);

  [[nodiscard]] bool is_root() const noexcept { return segments_.empty(); }
  [[nodiscard]] std::size_t depth() const noexcept { return segments_.size(); }
  [[nodiscard]] const std::vector<std::string>& segments() const noexcept {
    return segments_;
  }

  /// The direct supertopic; root for depth-1 topics. Precondition: !is_root().
  [[nodiscard]] TopicPath super() const;

  /// This path extended by one segment.
  [[nodiscard]] TopicPath child(std::string_view segment) const;

  /// True iff `this` is `other` or an ancestor of `other` ("includes" in
  /// the paper's terminology: events of `other` are also events of `this`).
  [[nodiscard]] bool includes(const TopicPath& other) const noexcept;

  /// Canonical string form, e.g. "." or ".a.b".
  [[nodiscard]] std::string str() const;

  friend bool operator==(const TopicPath&, const TopicPath&) = default;

 private:
  std::vector<std::string> segments_;
};

/// True iff `segment` is a valid single path segment.
[[nodiscard]] bool valid_segment(std::string_view segment) noexcept;

}  // namespace dam::topics
