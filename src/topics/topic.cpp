#include "topics/topic.hpp"

namespace dam::topics {

bool valid_segment(std::string_view segment) noexcept {
  if (segment.empty()) return false;
  for (char c : segment) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::optional<TopicPath> TopicPath::parse(std::string_view text) {
  if (text.empty() || text.front() != '.') return std::nullopt;
  TopicPath path;
  if (text == ".") return path;
  std::string_view rest = text.substr(1);
  while (!rest.empty()) {
    const std::size_t dot = rest.find('.');
    const std::string_view segment =
        dot == std::string_view::npos ? rest : rest.substr(0, dot);
    if (!valid_segment(segment)) return std::nullopt;
    path.segments_.emplace_back(segment);
    if (dot == std::string_view::npos) break;
    rest = rest.substr(dot + 1);
    if (rest.empty()) return std::nullopt;  // trailing dot
  }
  return path;
}

}  // namespace dam::topics
