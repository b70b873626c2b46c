// DamSystem — the dynamic-mode simulation harness.
//
// Hosts a population of DamNodes over the lossy transport, the bootstrap
// neighborhood overlay, a failure model, and the metrics collector. This is
// the "whole system" entry point used by the examples, the integration
// tests, and the bootstrap/ablation benches. (The figure benches run the
// frozen-membership engine, core/frozen_sim, which reproduces the paper's
// setting exactly.)
// Config::threads sets the workers of the spawn-batch fill and never
// changes results.
#pragma once

#include <bit>
#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
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
  /// contacts are sampled from the existing group members in place (no
  /// copy of the group); super contacts are filled only when
  /// `auto_wire_super_tables` is set. A join is O(view): it touches only
  /// the joiner and its contacts — the other members pick up the new
  /// group size through Env::group_size when they next read it.
  ProcessId spawn(TopicId topic);

  /// Spawns `count` processes on `topic` through the batch wiring path:
  /// the supergroup lookup and the join-contact candidate set happen once
  /// per batch instead of once per member, so building a group of S costs
  /// O(S·view). As with spawn(), each joiner samples its contacts from the
  /// members present at its own join, never from later batch members.
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
  bool mark_seen(ProcessId self, net::EventId event) override;
  [[nodiscard]] bool seen(ProcessId self, net::EventId event) const override;
  [[nodiscard]] std::size_t group_size(TopicId topic) const override;

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

  /// Point-in-time bookkeeping footprint, in logical bytes (deterministic
  /// across machines): the unreleased seen columns, delivered sets (always
  /// 0: a delivered set IS its seen column), and recovery request-dedup
  /// sets. The workload driver samples it at flight-recorder windows.
  struct BookkeepingGauges {
    std::size_t seen_bytes = 0;
    std::size_t delivered_bytes = 0;
    std::size_t request_bytes = 0;
  };
  [[nodiscard]] BookkeepingGauges bookkeeping_gauges() const;

  /// Read-only view of one publication's delivered set: the bits of its
  /// seen column. Iterates in process-id order. Valid until the next
  /// run_rounds, publish, spawn or retire_event call.
  class DeliveredView {
   public:
    class Iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = ProcessId;
      using difference_type = std::ptrdiff_t;
      using reference = ProcessId;
      Iterator(std::span<const std::uint64_t> words, std::size_t word)
          : words_(words), word_(word) {
        skip_empty();
      }
      ProcessId operator*() const {
        return ProcessId{static_cast<std::uint32_t>(
            word_ * 64 + static_cast<std::size_t>(std::countr_zero(bits_)))};
      }
      Iterator& operator++() {
        bits_ &= bits_ - 1;
        if (bits_ == 0) {
          ++word_;
          skip_empty();
        }
        return *this;
      }
      bool operator==(const Iterator& other) const {
        return word_ == other.word_ && bits_ == other.bits_;
      }

     private:
      void skip_empty() {
        while (word_ < words_.size() && words_[word_] == 0) ++word_;
        bits_ = word_ < words_.size() ? words_[word_] : 0;
      }
      std::span<const std::uint64_t> words_;
      std::size_t word_ = 0;
      std::uint64_t bits_ = 0;
    };

    DeliveredView() = default;
    DeliveredView(std::span<const std::uint64_t> words, std::size_t count)
        : words_(words), count_(count) {}
    [[nodiscard]] bool contains(ProcessId p) const noexcept {
      const std::size_t word = p.value / 64;
      return word < words_.size() && ((words_[word] >> (p.value % 64)) & 1U);
    }
    [[nodiscard]] std::size_t size() const noexcept { return count_; }
    [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
    [[nodiscard]] Iterator begin() const { return {words_, 0}; }
    [[nodiscard]] Iterator end() const { return {words_, words_.size()}; }

   private:
    std::span<const std::uint64_t> words_;
    std::size_t count_ = 0;
  };

  /// Processes that delivered `event` so far; empty once it is retired.
  [[nodiscard]] DeliveredView delivered_set(net::EventId event) const;

  /// Fraction of *alive interested* processes that delivered `event`
  /// (the paper's reliability measurand for one run). Interested means a
  /// member, at publish time, of a group whose topic includes the event's;
  /// later joiners are not counted. 0 unless the publication is live.
  [[nodiscard]] double delivery_ratio(net::EventId event) const;

  /// True iff every alive interested process delivered `event`.
  [[nodiscard]] bool all_delivered(net::EventId event) const;

  /// Sustained-service GC, once the driver has harvested `event`'s deadline
  /// outcome: ends the publication and empties its delivered set. Its
  /// seen column is released at the end of the first round at
  /// least NodeConfig::seen_gc_horizon (> 0) rounds after its first mark.
  /// Later first receptions count as retired_deliveries, never as live.
  void retire_event(net::EventId event);

  /// Second deliveries of a live event to one process: 0 by construction
  /// (columns outlive their publications); the GC guard callers assert.
  [[nodiscard]] std::size_t redeliveries() const noexcept { return 0; }

  /// Deliveries of already-retired events (late duplicates past the
  /// deadline — safe by construction, counted for observability).
  [[nodiscard]] std::size_t retired_deliveries() const noexcept {
    return retired_deliveries_;
  }

 private:
  /// One bit per process for one publication: bit p is set once p has
  /// received the event. It is the duplicate-suppression state and the
  /// delivered set at once, and it carries the publication record. Slots
  /// are recycled after release.
  struct SeenColumn {
    net::EventId event;
    sim::Round first_mark = 0;
    bool open = false;       ///< in column_of_ (not released)
    bool published = false;  ///< registered by publish()
    bool retired = false;    ///< publication retired (see deliver())
    TopicId topic;           ///< published topic
    /// Processes registered at publish; the registry only appends, so
    /// they are exactly the ids below it.
    std::size_t watermark = 0;
    std::size_t count = 0;  ///< bits set
    std::vector<std::uint64_t> words;

    [[nodiscard]] bool live() const noexcept { return published && !retired; }
  };

  /// Releases every retired column whose first mark is at least
  /// seen_gc_horizon rounds before `now`. Called at the end of each round.
  void release_columns(sim::Round now);

  const topics::TopicHierarchy* hierarchy_;
  Config config_;
  /// config_.node, shared by every node instead of copied into each.
  std::shared_ptr<const NodeConfig> node_config_;
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
  std::vector<SeenColumn> columns_;
  std::unordered_map<net::EventId, std::uint32_t> column_of_;  ///< open ones
  std::vector<std::uint32_t> free_columns_;
  std::size_t retired_events_ = 0;      ///< retire_event calls so far
  std::size_t retired_deliveries_ = 0;  ///< late deliveries past retirement
};

}  // namespace dam::core
