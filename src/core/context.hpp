// NodeContext — what one daMulticast process shares with its components.
//
// A DamNode's membership substrate (FlatMembership), supertopic table
// (SuperTopicTable) and bootstrap task (BootstrapTask) all need the
// owner's identity, the topic DAG, the configuration and the host. The
// node keeps that once, as a NodeContext, and passes it to every component
// call that needs it; the components hold only their own state and send
// through the context's Env. The NodeConfig is the host's: one per
// DamSystem (or test fixture), shared by all its nodes.
//
// Also defined here, so the components can reach them without depending
// on DamNode: the Env interface a host implements and the NodeConfig
// every node of a host reads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/params.hpp"
#include "net/message.hpp"
#include "sim/clock.hpp"
#include "topics/dag.hpp"

namespace dam::core {

using net::EventId;
using net::Message;
using net::MsgKind;
using topics::ProcessId;
using topics::TopicId;

/// Everything a node needs from its host. Implemented by DamSystem for
/// simulations and by scripted fakes in the unit tests.
class Env {
 public:
  virtual ~Env() = default;

  [[nodiscard]] virtual sim::Round now() const = 0;

  /// Transmits `msg` (node has already filled `from`/`to`); its spans need
  /// only live until send returns. Returns the EVENT body handle to set on
  /// the next copy (net::Message::body), or kNoBody.
  virtual std::uint32_t send(const Message& msg) = 0;

  /// Bootstrap overlay contacts of `self` (Sec. III-B: neighborhood(pl)).
  [[nodiscard]] virtual const std::vector<ProcessId>& neighborhood(
      ProcessId self) const = 0;

  /// Liveness probe used by CHECK (footnote 7: timeout-based detection).
  /// May be wrong under weak consistency; the protocol tolerates that.
  [[nodiscard]] virtual bool probe_alive(ProcessId target) const = 0;

  /// Application-level delivery callback (Fig. 5 line 8). `event_msg` is a
  /// view, valid for the call only: copy what must outlive it.
  virtual void deliver(ProcessId self, const Message& event_msg) = 0;

  /// Records that `self` has received `event`. True iff this is the first
  /// reception — only then does the node deliver and forward (Fig. 5 lines
  /// 5–10); false marks a duplicate.
  virtual bool mark_seen(ProcessId self, EventId event) = 0;

  /// True iff `self` has received `event` and the host still remembers it.
  [[nodiscard]] virtual bool seen(ProcessId self, EventId event) const = 0;

  /// Current size of `topic`'s group: the source of the node's group-size
  /// estimate (fanout, psel, view capacity). In a deployment this would be
  /// the membership substrate's size estimator; DamSystem answers from its
  /// registry. A node pulls it before each use, so a join costs nothing
  /// at the other members.
  [[nodiscard]] virtual std::size_t group_size(TopicId topic) const = 0;
};

struct NodeConfig {
  TopicParams params;

  /// Sustained-service GC: DamSystem releases a publication's seen column
  /// once it is retired AND this many rounds have passed since its first
  /// mark; 0 = never. A released id that arrives again is treated as new
  /// (extra traffic, never a correctness loss).
  std::size_t seen_gc_horizon = 0;

  /// Event-recovery extension (lpbcast-style, cf. paper reference [6]):
  /// membership gossip carries a digest of recently seen event ids;
  /// receivers request retransmission of ids they are missing. Off by
  /// default — the base paper has no recovery; the ablation bench
  /// quantifies what it buys under loss.
  struct Recovery {
    bool enabled = false;
    std::size_t history_size = 64;  ///< events buffered for retransmission
    std::size_t digest_size = 8;    ///< ids piggybacked per gossip message
  } recovery;
};

/// One process's identity plus the host state it reads. 32 bytes, held
/// once per node; every pointer is the host's and must outlive the node.
struct NodeContext {
  ProcessId self;
  TopicId topic;
  const topics::TopicDag* hierarchy = nullptr;
  const NodeConfig* config = nullptr;
  Env* env = nullptr;
};

}  // namespace dam::core
