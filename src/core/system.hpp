// DamSystem — the dynamic-mode simulation harness.
//
// Hosts a population of DamNodes over the lossy transport, the bootstrap
// neighborhood overlay, a failure model, and the metrics collector. This is
// the "whole system" entry point used by the examples, the integration
// tests, and the bootstrap/ablation benches. (The figure benches use the
// specialized static-table engine in core/static_sim.hpp, which reproduces
// the paper's frozen-membership setting exactly.) Config::threads sets the
// workers of the spawn-batch fill and never changes results.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/node.hpp"
#include "net/neighborhood.hpp"
#include "net/transport.hpp"
#include "sim/clock.hpp"
#include "sim/failure.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"
#include "topics/subscriptions.hpp"

namespace dam::core {

class DamSystem final : public Env {
 public:
  struct Config {
    NodeConfig node;                       ///< defaults for every node
    net::Transport::Config transport{};    ///< psucc defaults to node.params
    std::size_t neighborhood_degree = 4;   ///< bootstrap overlay degree
    std::uint64_t seed = 1;
    bool auto_wire_super_tables = false;   ///< skip bootstrap: fill sTables
                                           ///< from global knowledge (fast
                                           ///< path for benches/examples)

    /// Workers for spawn_group's view-arena fill (0 = hardware). Each
    /// joiner samples its rows from its own stream forked from (batch,
    /// joiner index), so results are bit-identical for every value. Only
    /// the batch arena fill runs in parallel; node wiring, subscription,
    /// and the round loop stay serial.
    unsigned threads = 1;
  };

  DamSystem(const topics::TopicHierarchy& hierarchy, Config config);
  ~DamSystem() override;

  DamSystem(const DamSystem&) = delete;
  DamSystem& operator=(const DamSystem&) = delete;

  /// Creates a process interested in `topic` and subscribes it. Join
  /// contacts are sampled from the existing group members; super contacts
  /// are filled only when `auto_wire_super_tables` is set.
  ProcessId spawn(TopicId topic);

  /// Spawns `count` processes on `topic` through the batch wiring path:
  /// the supergroup lookup, the join-contact candidate set, and the
  /// group-size-estimate refresh happen once per batch instead of once per
  /// member, so building a group of S costs O(S·view) rather than the
  /// O(S²) the one-at-a-time loop used to pay. As with spawn(), each
  /// joiner samples its contacts from the members present at its own
  /// join, never from later batch members.
  ///
  /// View memory: the batch's initial topic-table and supertopic-table
  /// rows are sampled straight into one immutable core::GroupViewArena
  /// (CSR layout, laid out before any draw so it never reallocates), and
  /// every node reads its rows through spans — zero per-node view
  /// allocation at spawn. Later churn (gossip merges, evictions, capacity
  /// shrinks) lands in small per-node copy-on-churn overlays; the arena
  /// itself is never written again.
  std::vector<ProcessId> spawn_group(TopicId topic, std::size_t count);

  /// Installs a failure model (defaults to NoFailures). The system keeps
  /// ownership; pass by unique_ptr. Safe at any point: in-flight messages
  /// and the channel RNG stream are preserved across the swap.
  void set_failure_model(std::unique_ptr<sim::FailureModel> model);

  /// Runs `count` synchronous rounds: deliver in-flight messages, then give
  /// every alive node its periodic round() slot.
  void run_rounds(std::size_t count);

  /// Publishes a fresh event from `publisher` (must be alive) and returns
  /// its id. Dissemination happens over subsequent rounds. `payload` is
  /// opaque application data carried with the event.
  net::EventId publish(ProcessId publisher,
                       std::vector<std::uint8_t> payload = {});

  /// Application-level delivery hook: called once per (process, event)
  /// first delivery, after internal bookkeeping. Optional.
  using DeliveryHandler =
      std::function<void(ProcessId subscriber, const Message& event_msg)>;
  void set_delivery_handler(DeliveryHandler handler) {
    delivery_handler_ = std::move(handler);
  }

  /// Attaches a caller-owned trace recorder (nullptr detaches). Records
  /// publishes, event/control sends, and first-time deliveries.
  void set_trace_recorder(sim::TraceRecorder* recorder) {
    trace_ = recorder;
  }

  // --- Env ---
  [[nodiscard]] sim::Round now() const override { return clock_.now(); }
  void send(Message&& msg) override;
  [[nodiscard]] const std::vector<ProcessId>& neighborhood(
      ProcessId self) const override;
  [[nodiscard]] bool probe_alive(ProcessId target) const override;
  void deliver(ProcessId self, const Message& event_msg) override;

  // --- observers ---
  [[nodiscard]] const DamNode& node(ProcessId id) const {
    return *nodes_.at(id.value);
  }
  [[nodiscard]] DamNode& node(ProcessId id) { return *nodes_.at(id.value); }
  [[nodiscard]] std::size_t process_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] const topics::SubscriptionRegistry& registry() const noexcept {
    return registry_;
  }
  [[nodiscard]] const sim::Metrics& metrics() const noexcept {
    return metrics_;
  }
  /// Mutable access for the workload driver, which feeds the flight
  /// recorder's churn events, window queue peaks, and bookkeeping gauges
  /// (the driver owns the round loop, so it owns the sampling cadence).
  [[nodiscard]] sim::Metrics& metrics() noexcept { return metrics_; }
  [[nodiscard]] const net::Transport& transport() const noexcept {
    return transport_;
  }
  [[nodiscard]] const sim::FailureModel& failure_model() const noexcept {
    return *failures_;
  }

  /// The immutable spawn-batch view arenas, in spawn_group order. Tests
  /// diff per-node overlays against these base rows.
  [[nodiscard]] const std::vector<std::unique_ptr<GroupViewArena>>&
  view_arenas() const noexcept {
    return view_arenas_;
  }

  /// Contiguous bytes held by the spawn-batch view arenas — the dynamic
  /// lane's peak_table_bytes measurand (the shared base of every
  /// batch-spawned node's views; overlays are per-node and excluded).
  [[nodiscard]] std::size_t view_arena_bytes() const noexcept {
    std::size_t total = 0;
    for (const auto& arena : view_arenas_) total += arena->arena_bytes();
    return total;
  }

  /// High-water in-flight footprint of the transport's slab queue — the
  /// dynamic lane's peak_queue_bytes measurand (compact queued records,
  /// control-field arenas, and interned event bodies; see net/transport).
  [[nodiscard]] std::size_t peak_queue_bytes() const noexcept {
    return transport_.stats().peak_queue_bytes;
  }

  /// Queue high-water since the previous call (window-scoped companion to
  /// peak_queue_bytes; see net::Transport::take_window_peak).
  [[nodiscard]] std::size_t take_window_queue_peak() noexcept {
    return transport_.take_window_peak();
  }

  /// Point-in-time per-process bookkeeping footprint, in logical bytes
  /// (element counts × element sizes — deterministic across machines):
  /// seen-sets (duplicate suppression), delivered-sets (reliability
  /// accounting), and recovery request-dedup sets. This is the memory the
  /// PR 8 follow-up flagged as the S=10⁷ blocker; the workload driver
  /// samples it at flight-recorder window boundaries.
  struct BookkeepingGauges {
    std::size_t seen_bytes = 0;
    std::size_t delivered_bytes = 0;
    std::size_t request_bytes = 0;
  };
  [[nodiscard]] BookkeepingGauges bookkeeping_gauges() const;

  /// Processes that delivered `event` so far.
  [[nodiscard]] const std::unordered_set<ProcessId>& delivered_set(
      net::EventId event) const;

  /// Fraction of *alive interested* processes that delivered `event`
  /// (the paper's reliability measurand for one run).
  [[nodiscard]] double delivery_ratio(net::EventId event) const;

  /// True iff every alive interested process delivered `event`.
  [[nodiscard]] bool all_delivered(net::EventId event) const;

  /// Sustained-service GC: forgets `event`'s delivered set and interested
  /// snapshot once the workload driver has harvested its deadline outcome,
  /// bounding per-run bookkeeping over long horizons. Deliveries of a
  /// retired id arriving later count as retired_deliveries (harmless
  /// duplicate traffic) and never touch the live counters.
  void retire_event(net::EventId event);

  /// Second deliveries of a LIVE (unretired) event to the same process —
  /// exactly what a seen-set eviction inside the delivery window would
  /// cause. The GC correctness guard: zero as long as the seen horizon
  /// covers every event's deadline window.
  [[nodiscard]] std::size_t redeliveries() const noexcept {
    return redeliveries_;
  }

  /// Deliveries of already-retired events (late duplicates past the
  /// deadline — safe by construction, counted for observability).
  [[nodiscard]] std::size_t retired_deliveries() const noexcept {
    return retired_deliveries_;
  }

 private:
  struct Publication {
    TopicId topic;
    std::vector<ProcessId> interested;  // snapshot at publish time
  };

  const topics::TopicHierarchy* hierarchy_;
  Config config_;
  util::Rng rng_;
  topics::SubscriptionRegistry registry_;
  std::unique_ptr<sim::FailureModel> failures_;
  net::Transport transport_;
  net::Neighborhood neighborhood_;
  sim::Clock clock_;
  sim::Metrics metrics_;
  std::vector<std::unique_ptr<DamNode>> nodes_;
  /// Spawn-batch view arenas; nodes hold spans into them, so the
  /// unique_ptr indirection keeps rows pinned as more batches arrive.
  std::vector<std::unique_ptr<GroupViewArena>> view_arenas_;
  DeliveryHandler delivery_handler_;
  sim::TraceRecorder* trace_ = nullptr;
  std::unordered_map<net::EventId, std::unordered_set<ProcessId>> deliveries_;
  std::unordered_map<net::EventId, Publication> publications_;
  std::size_t retired_events_ = 0;      ///< retire_event calls so far
  std::size_t redeliveries_ = 0;        ///< live re-deliveries (GC guard)
  std::size_t retired_deliveries_ = 0;  ///< late deliveries past retirement
  static const std::unordered_set<ProcessId> kNoDeliveries;

  /// Memoized registry_.nearest_nonempty_supergroup, consulted by send()'s
  /// per-message boundary accounting. Spawning can turn an empty supergroup
  /// non-empty, so every spawn clears the cache.
  [[nodiscard]] std::optional<TopicId> cached_nearest_super(
      TopicId topic) const;
  mutable std::unordered_map<TopicId, std::optional<TopicId>> super_cache_;
};

}  // namespace dam::core
