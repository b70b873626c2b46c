// PubSub — the application-facing facade.
//
// Wraps DamSystem behind the API a downstream user actually wants:
// string topics, string payloads, per-subscriber delivery callbacks, and a
// pump() call that advances the simulated network. Everything underneath is
// plain daMulticast; the facade adds no protocol behaviour.
//
//   dam::core::PubSub bus(config);
//   auto alice = bus.subscribe(".news.eu", [](const dam::core::Delivery& d) {
//     std::cout << d.topic << ": " << d.text() << "\n";
//   });
//   bus.publish(alice, "bonjour");
//   bus.pump(20);
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/system.hpp"
#include "topics/dag.hpp"

namespace dam::core {

/// One delivered event, as seen by a subscriber callback.
struct Delivery {
  ProcessId subscriber{};
  std::string topic;             ///< topic the event was published on
  net::EventId event{};
  std::vector<std::uint8_t> payload;

  /// Payload reinterpreted as text (publish(string) round-trips through
  /// this).
  [[nodiscard]] std::string text() const {
    return std::string(payload.begin(), payload.end());
  }
};

class PubSub {
 public:
  struct Config {
    DamSystem::Config system{};
    sim::Round rounds_per_publish = 0;  ///< auto-pump after each publish
  };

  using Callback = std::function<void(const Delivery&)>;

  PubSub() : PubSub(Config{}) {}
  explicit PubSub(Config config);

  PubSub(const PubSub&) = delete;
  PubSub& operator=(const PubSub&) = delete;

  /// Creates a subscriber process on `topic` (interned on first use;
  /// ancestors are interned automatically). The callback fires once per
  /// first delivery; pass nullptr for a silent subscriber.
  ProcessId subscribe(std::string_view topic, Callback callback = nullptr);

  /// Publishes text from `publisher` on its own topic. Returns the event
  /// id. Runs `rounds_per_publish` network rounds if configured.
  net::EventId publish(ProcessId publisher, std::string_view text);
  net::EventId publish(ProcessId publisher, std::vector<std::uint8_t> bytes);

  /// Advances the simulated network.
  void pump(std::size_t rounds) { system_->run_rounds(rounds); }

  // --- introspection -------------------------------------------------------
  [[nodiscard]] const DamSystem& system() const noexcept { return *system_; }
  [[nodiscard]] DamSystem& system() noexcept { return *system_; }
  [[nodiscard]] const topics::TopicDag& hierarchy() const noexcept {
    return hierarchy_;
  }
  [[nodiscard]] std::string topic_of(ProcessId subscriber) const {
    return hierarchy_.name(system_->registry().topic_of(subscriber));
  }
  [[nodiscard]] std::size_t deliveries_observed() const noexcept {
    return deliveries_observed_;
  }

 private:
  topics::TopicDag hierarchy_;
  std::unique_ptr<DamSystem> system_;
  Config config_;
  std::unordered_map<std::uint32_t, Callback> callbacks_;
  std::size_t deliveries_observed_ = 0;
};

}  // namespace dam::core
