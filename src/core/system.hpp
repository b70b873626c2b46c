// DamSystem — the dynamic-mode simulation harness.
//
// Hosts a population of DamNodes over the lossy transport, the bootstrap
// neighborhood overlay, a failure model, and the metrics collector. This is
// the "whole system" entry point used by the examples, the integration
// tests, and the dynamic-lane presets (through workload/driver). (The
// figure presets run the frozen-membership engine, core/frozen_sim, which
// reproduces the paper's setting exactly.)
//
// The nodes live in one slab of fixed-size chunks (kNodesPerChunk nodes
// each) in id order: a join appends, no node ever moves, and node(p)'s
// address is arithmetic on p. The round loop walks the slab as a linear
// stream, and both it and the delivery loop run a two-stage look-ahead:
// stage 1 prefetches a node object kWarmAhead steps before it is used,
// stage 2 (kStateDelay steps later, once that object is cached) reads its
// row pointers and prefetches the topic-view and supertopic-table rows.
// Each node owns those two rows; spawn_group allocates a batch's rows in
// id order, the order the round loop walks. Config::threads sets the
// workers of the spawn-batch fill and never changes results.
#pragma once

#include <bit>
#include <cstddef>
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
    std::size_t neighborhood_degree = 4;   ///< bootstrap overlay degree
    std::uint64_t seed = 1;
    bool auto_wire_super_tables = false;   ///< skip bootstrap: fill sTables
                                           ///< from global knowledge (fast
                                           ///< path for benches/examples)

    /// Workers for spawn_group's row fill (0 = hardware). Each joiner
    /// samples its rows from its own stream forked from (batch, joiner
    /// index), so results are bit-identical for every value. Only the
    /// batch row fill runs in parallel, and only for batches whose joiners
    /// send nothing at subscription; node wiring and the round loop stay
    /// serial.
    unsigned threads = 1;
  };

  /// Nodes per slab chunk. A chunk is allocated whole when the first of
  /// its nodes joins and freed with the system.
  static constexpr std::size_t kNodesPerChunk = 1024;

  /// `hierarchy` must outlive the system. Each process keeps one
  /// supertopic table, so a topic it joins may have at most one
  /// supertopic (topics::require_tree); TopicDag::super throws otherwise.
  DamSystem(const topics::TopicDag& hierarchy, Config config);
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
  /// View memory: each joiner's topic-table and supertopic-table rows are
  /// sampled straight into the node's own storage, allocated in id order.
  /// The topic row is reserved at the batch's final width,
  /// min(view_capacity(group size after the batch), group size - 1), so
  /// the first gossip exchanges after the spawn never reallocate it.
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
  /// first delivery, after internal bookkeeping. Optional. `event_msg` is
  /// a view, valid for the call only: copy what must outlive it.
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
  using Env::send;
  std::uint32_t send(const Message& msg,
                     std::span<const ProcessId> targets) override;
  [[nodiscard]] const std::vector<ProcessId>& neighborhood(
      ProcessId self) const override;
  [[nodiscard]] bool probe_alive(ProcessId target) const override;
  void deliver(ProcessId self, const Message& event_msg) override;
  bool mark_seen(ProcessId self, net::EventId event) override;
  [[nodiscard]] bool seen(ProcessId self, net::EventId event) const override;
  [[nodiscard]] std::size_t group_size(TopicId topic) const override;

  // --- observers ---
  /// The node of process `id`; throws std::out_of_range past the last
  /// process. The reference stays valid for the system's lifetime.
  [[nodiscard]] const DamNode& node(ProcessId id) const {
    return nodes_.at(id.value);
  }
  [[nodiscard]] DamNode& node(ProcessId id) { return nodes_.at(id.value); }
  [[nodiscard]] std::size_t process_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] const topics::SubscriptionRegistry& registry() const noexcept {
    return registry_;
  }
  [[nodiscard]] const sim::Metrics& metrics() const noexcept {
    return metrics_;
  }
  /// Mutable access for the stream replay harness (workload/driver), which
  /// feeds the flight recorder's churn events, window queue peaks, and
  /// bookkeeping gauges (it owns the round loop, so it owns the sampling
  /// cadence) and retires harvested publications' latency records.
  [[nodiscard]] sim::Metrics& metrics() noexcept { return metrics_; }
  [[nodiscard]] const net::Transport& transport() const noexcept {
    return transport_;
  }
  /// Logical bytes of the spawn-batch rows — the dynamic lane's
  /// peak_table_bytes measurand. A running total over spawn_group batches
  /// of each batch's initial topic and supertopic row entries plus one
  /// 4-byte offset per row (and one per batch and kind), as if the rows
  /// sat in a CSR arena. A logical gauge that keeps the documents'
  /// peak_table_bytes unchanged; the rows' physical bytes and their growth
  /// under gossip are left to the per-layer cost ledger (ROADMAP).
  [[nodiscard]] std::size_t view_arena_bytes() const noexcept {
    return view_arena_bytes_;
  }

  /// High-water in-flight footprint of the transport's slab queue — the
  /// dynamic lane's peak_queue_bytes measurand (fan-out headers and
  /// targets, control-field arenas, and interned event bodies; see
  /// net/transport).
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
  /// The nodes in id order, in chunks of kNodesPerChunk slots that never
  /// move once allocated. A 256 B node fills exactly four lines of its
  /// 64-byte-aligned chunk, so slots need no padding.
  class NodeSlab {
   public:
    NodeSlab() = default;
    ~NodeSlab();
    NodeSlab(const NodeSlab&) = delete;
    NodeSlab& operator=(const NodeSlab&) = delete;

    /// Constructs the next node in place; its id must be size().
    DamNode& emplace_back(const NodeContext& context,
                          std::size_t group_size_estimate, util::Rng rng);

    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] DamNode& operator[](std::size_t id) noexcept {
      return chunks_[id / kNodesPerChunk][id % kNodesPerChunk];
    }
    [[nodiscard]] const DamNode& operator[](std::size_t id) const noexcept {
      return chunks_[id / kNodesPerChunk][id % kNodesPerChunk];
    }
    [[nodiscard]] DamNode& at(std::size_t id);
    [[nodiscard]] const DamNode& at(std::size_t id) const;

   private:
    std::vector<DamNode*> chunks_;  ///< raw slots; the first size_ are live
    std::size_t size_ = 0;
  };

  /// The node context of a new process.
  [[nodiscard]] NodeContext context_for(ProcessId id, TopicId topic) {
    return {id, topic, hierarchy_, &config_.node, this};
  }

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

  const topics::TopicDag* hierarchy_;
  Config config_;  ///< config_.node is the one NodeConfig of every node
  util::Rng rng_;
  topics::SubscriptionRegistry registry_;
  std::unique_ptr<sim::FailureModel> failures_;
  net::Transport transport_;
  net::Neighborhood neighborhood_;
  sim::Clock clock_;
  sim::Metrics metrics_;
  NodeSlab nodes_;
  std::size_t view_arena_bytes_ = 0;  ///< see view_arena_bytes()
  DeliveryHandler delivery_handler_;
  sim::TraceRecorder* trace_ = nullptr;
  std::vector<SeenColumn> columns_;
  std::unordered_map<net::EventId, std::uint32_t> column_of_;  ///< open ones
  std::vector<std::uint32_t> free_columns_;
  std::size_t retired_events_ = 0;      ///< retire_event calls so far
  std::size_t retired_deliveries_ = 0;  ///< late deliveries past retirement
};

}  // namespace dam::core
