#include "core/pubsub.hpp"

namespace dam::core {

PubSub::PubSub(Config config) : config_(config) {
  // The hierarchy must outlive and pre-exist the system; DamSystem holds a
  // reference. Topics are interned lazily in subscribe(), which is safe:
  // intern_path never invalidates existing ids.
  system_ = std::make_unique<DamSystem>(hierarchy_, config_.system);
  system_->set_delivery_handler(
      [this](ProcessId subscriber, const Message& event_msg) {
        ++deliveries_observed_;
        auto it = callbacks_.find(subscriber.value);
        if (it == callbacks_.end() || !it->second) return;
        Delivery delivery;
        delivery.subscriber = subscriber;
        delivery.topic = hierarchy_.name(event_msg.topic);
        delivery.event = event_msg.event;
        delivery.payload = event_msg.payload;
        it->second(delivery);
      });
}

ProcessId PubSub::subscribe(std::string_view topic, Callback callback) {
  const topics::TopicId id = topics::intern_path(hierarchy_, topic);
  const ProcessId subscriber = system_->spawn(id);
  if (callback) callbacks_[subscriber.value] = std::move(callback);
  return subscriber;
}

net::EventId PubSub::publish(ProcessId publisher, std::string_view text) {
  return publish(publisher,
                 std::vector<std::uint8_t>(text.begin(), text.end()));
}

net::EventId PubSub::publish(ProcessId publisher,
                             std::vector<std::uint8_t> bytes) {
  const auto event = system_->publish(publisher, std::move(bytes));
  if (config_.rounds_per_publish > 0) {
    pump(config_.rounds_per_publish);
  }
  return event;
}

}  // namespace dam::core
