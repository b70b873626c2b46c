#include "core/params.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dam::core {

std::size_t TopicParams::fanout(std::size_t group_size) const {
  if (group_size < 2) return 1;
  const double raw = std::log(static_cast<double>(group_size)) + c;
  return static_cast<std::size_t>(std::ceil(std::max(raw, 1.0)));
}

std::size_t TopicParams::view_capacity(std::size_t group_size) const {
  if (group_size < 2) return 1;
  const double raw = (b + 1.0) * std::log(static_cast<double>(group_size));
  return static_cast<std::size_t>(std::ceil(std::max(raw, 1.0)));
}

double TopicParams::psel(std::size_t group_size) const {
  if (group_size == 0) return 1.0;
  return std::clamp(g / static_cast<double>(group_size), 0.0, 1.0);
}

double TopicParams::pa() const {
  if (z == 0) return 0.0;
  return std::clamp(a / static_cast<double>(z), 0.0, 1.0);
}

void TopicParams::validate() const {
  if (b < 0.0) throw std::invalid_argument("TopicParams: b must be >= 0");
  if (c < 0.0) throw std::invalid_argument("TopicParams: c must be >= 0");
  if (g < 1.0) throw std::invalid_argument("TopicParams: g must be >= 1");
  if (z == 0) throw std::invalid_argument("TopicParams: z must be >= 1");
  if (a < 1.0 || a > static_cast<double>(z)) {
    throw std::invalid_argument("TopicParams: need 1 <= a <= z");
  }
  if (tau > z) throw std::invalid_argument("TopicParams: need tau <= z");
  if (psucc < 0.0 || psucc > 1.0) {
    throw std::invalid_argument("TopicParams: psucc must be in [0,1]");
  }
}

}  // namespace dam::core
