// Transport: the message-passing engine behind every network backend.
//
// The engine owns everything the protocol layers observe — principals and
// handlers, the simulated clock, latency stamping, scripted fault and
// adversary schedules, quarantine, bounded inboxes, delivery ordering,
// leakage auditing, and the NetworkStats ledger. Two backends implement
// the wire underneath it:
//
//   SimNetwork   (net/network.hpp)  in-process queue, zero syscalls; the
//                                   deterministic default every test and
//                                   leakage audit runs on.
//   TcpTransport (net/tcp.hpp)      real loopback TCP sockets with a
//                                   poll event loop per node thread,
//                                   framing, connection supervision and
//                                   syscall-level fault injection.
//
// The split is what makes the cross-backend guarantee provable: all
// *modeled* faults (FaultPlan drops, partitions, crash-stop, Byzantine
// tampering) are decided here, at the message layer, with the same RNG
// draw sequence on either backend — so a seeded run produces bit-identical
// delivery orders, stats, and ledger digests over sockets as over the
// queue. Socket-level chaos (torn frames, resets, stalls) lives below the
// engine and must be *repaired* by the TCP backend's supervision and
// session resumption before messages surface, never surviving into the
// protocol layers as loss or duplication.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "net/fault.hpp"
#include "net/leakage.hpp"

namespace veil::net {

struct Message {
  Principal from;
  Principal to;
  std::string topic;
  common::Bytes payload;
  common::SimTime sent_at = 0;
  common::SimTime delivered_at = 0;
};

struct LatencyModel {
  common::SimTime base_us = 500;    // fixed one-way latency
  common::SimTime jitter_us = 200;  // uniform extra [0, jitter)
  double per_byte_us = 0.01;        // serialization cost
};

struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;  // total across all causes below
  std::uint64_t bytes_sent = 0;

  // Drop breakdown by cause.
  std::uint64_t dropped_random_loss = 0;
  std::uint64_t dropped_partition = 0;
  std::uint64_t dropped_detached = 0;  // receiver detached in flight
  std::uint64_t dropped_crashed = 0;   // sender or receiver crash-stopped

  // Reliable-delivery accounting (incremented by ReliableChannel).
  std::uint64_t retransmits = 0;
  std::uint64_t duplicates_suppressed = 0;
  // Messages abandoned because the retry budget ran out — distinct from
  // giving up on a crashed/detached endpoint, and from the drop causes
  // above: the wire sends were already counted there; this counts the
  // *decisions* to stop retrying a live peer.
  std::uint64_t retries_exhausted = 0;

  // Byzantine adversary accounting (net/fault.hpp ByzantinePlan plus the
  // link-level corruption mode). The dropped_* entries are also counted
  // in messages_dropped.
  std::uint64_t messages_tampered = 0;
  std::uint64_t messages_equivocated = 0;
  std::uint64_t messages_replayed = 0;
  std::uint64_t messages_delayed = 0;
  std::uint64_t messages_corrupted = 0;  // link-level bit-flips in flight
  std::uint64_t dropped_silenced = 0;
  std::uint64_t dropped_quarantined = 0;

  // Overload-control accounting. dropped_overflow is also counted in
  // messages_dropped; the rest are decisions made above the wire.
  std::uint64_t dropped_overflow = 0;   // receiver inbox at capacity
  std::uint64_t busy_notices = 0;       // Busy{retry_after} responses sent
  std::uint64_t busy_deferrals = 0;     // retransmits postponed by Busy
  std::uint64_t busy_rejected = 0;      // platform refusals: pending set full
  std::uint64_t breaker_rejected = 0;   // sends refused by an open breaker
  std::uint64_t shed_admission = 0;     // admission-controller sheds
  std::uint64_t expired_endorse = 0;    // TTL'd work dropped per stage
  std::uint64_t expired_order = 0;
  std::uint64_t expired_validate = 0;
  std::uint64_t expired_in_flight = 0;  // reliable sends abandoned past TTL
  std::uint64_t inbox_high_water = 0;   // deepest per-receiver queue seen

  // Cross-shard atomic-commit accounting (ledger/xshard.hpp). Prepares
  // count per-participant prepare messages; commits/aborts count 2PC
  // outcomes once per transaction, with aborts broken down by cause so
  // operators can tell overload (timeout) from contention (vote-no) from
  // an adversarial coordinator (equivocation). Failovers count standby
  // takeovers that had to reconstruct in-doubt transactions.
  std::uint64_t xshard_prepares = 0;
  std::uint64_t xshard_commits = 0;
  std::uint64_t xshard_aborts_voteno = 0;
  std::uint64_t xshard_aborts_timeout = 0;
  std::uint64_t xshard_aborts_equivocation = 0;
  std::uint64_t xshard_failovers = 0;

  // Transport-tier accounting (net/tcp.hpp). All zero on SimNetwork: the
  // in-process queue has no connections to supervise. Reconnects count
  // re-established links (the first connect is not a reconnect);
  // resumptions count reconnects that had unacked frames to replay.
  // Frames torn/rejected count checksum and framing failures the
  // supervisor repaired by killing and resuming the connection — a
  // nonzero value with zero duplicate applies is session resumption
  // working for a living.
  std::uint64_t tcp_connects = 0;
  std::uint64_t tcp_reconnects = 0;
  std::uint64_t tcp_heartbeat_misses = 0;
  std::uint64_t tcp_session_resumptions = 0;
  std::uint64_t tcp_partial_write_continuations = 0;
  std::uint64_t tcp_short_reads = 0;
  std::uint64_t tcp_frames_torn = 0;      // checksum failures at the decoder
  std::uint64_t tcp_frames_rejected = 0;  // duplicate frames dropped by seq
  std::uint64_t tcp_write_overflow = 0;   // sends refused: link queue full
  std::uint64_t tcp_injected_faults = 0;  // injector decisions that fired

  bool operator==(const NetworkStats&) const = default;
};

/// Why a cross-shard transaction aborted (the counter breakdown above).
enum class XAbortCause : std::uint8_t {
  VoteNo = 0,
  Timeout = 1,
  Equivocation = 2,
};

/// Pipeline stage at which TTL'd work was found already expired. Each
/// stage of endorse -> order -> validate drops expired work early and
/// counts the drop here, so render_network_stats can show where load
/// died under overload.
enum class Stage : std::uint8_t { Endorse = 0, Order = 1, Validate = 2 };

class Transport {
 public:
  using Handler = std::function<void(const Message&)>;
  using LifecycleHook = std::function<void()>;

  virtual ~Transport() = default;

  /// Register a principal and its message handler. Re-registering
  /// replaces the handler (used when a node restarts).
  void attach(const Principal& name, Handler handler);
  void detach(const Principal& name);
  bool attached(const Principal& name) const;

  /// Queue a message. Throws common::ProtocolError if `to` was never
  /// attached. The network auditor records that `to` observed the
  /// payload bytes under label "net/<topic>".
  void send(const Principal& from, const Principal& to,
            const std::string& topic, common::Bytes payload);

  /// Broadcast to every attached principal except the sender.
  void broadcast(const Principal& from, const std::string& topic,
                 const common::Bytes& payload);

  /// Deliver all queued messages and timers (and any they trigger) in
  /// time order. Returns the number of messages delivered. On a socket
  /// backend this first waits for every in-flight frame to land, so the
  /// pop order — and therefore every handler-visible transcript — is
  /// identical to the simulated backend's.
  std::size_t run();

  /// Schedule `fn` to run at simulated time `at` (clamped to now). Timers
  /// share the delivery queue, so ordering against messages is exact.
  /// ReliableChannel uses this for retransmission timeouts.
  void schedule(common::SimTime at, std::function<void()> fn);

  /// Probability in [0,1] that any given message is silently dropped.
  void set_drop_probability(double p) { drop_probability_ = p; }

  /// Partition the network into groups; messages across groups drop.
  /// An empty partition list removes the partition.
  void set_partitions(std::vector<std::set<Principal>> partitions);

  /// Install a scripted fault schedule. Events fire as simulated time
  /// advances (at send and delivery points). Replaces any earlier plan;
  /// events whose time has already passed fire immediately on the next
  /// send/run.
  void set_fault_plan(const FaultPlan& plan);

  /// Install a scripted adversary schedule (net/fault.hpp ByzantinePlan).
  /// Applied lazily like the fault plan; when events from both plans are
  /// due at the same instant, fault-plan events apply first.
  void set_byzantine_plan(const ByzantinePlan& plan);

  /// Isolate `name`: its sends and in-flight deliveries drop (counted as
  /// dropped_quarantined) until release(). Unlike crash(), no lifecycle
  /// hook fires — the principal keeps its state but loses the network.
  /// Detection code calls this when it convicts a principal.
  void quarantine(const Principal& name) { quarantined_.insert(name); }
  void release(const Principal& name) { quarantined_.erase(name); }
  bool is_quarantined(const Principal& name) const {
    return quarantined_.contains(name);
  }

  /// Link-level corruption: probability that a payload has one random bit
  /// flipped in flight (sender-agnostic, unlike ByzantinePlan tampering).
  /// Exercises every decode path against corrupted — not just truncated —
  /// bytes.
  void set_corruption_probability(double p) { corruption_probability_ = p; }

  /// Crash/restart hooks, invoked when a FaultPlan (or crash()/restart())
  /// crash-stops or revives `name`. The crash hook models losing volatile
  /// state; the restart hook models WAL replay + catch-up.
  void set_crash_hook(const Principal& name, LifecycleHook hook);
  void set_restart_hook(const Principal& name, LifecycleHook hook);

  /// Immediate crash-stop / restart (FaultPlan events route through
  /// these; tests may call them directly). Crash semantics live entirely
  /// at this layer on every backend: sends to or from a crashed
  /// principal drop at the send point, in-flight deliveries drop at the
  /// pop point — the socket backend does not tear down connections for a
  /// *modeled* crash, which is exactly why seeded transcripts match.
  void crash(const Principal& name);
  void restart(const Principal& name);
  bool crashed(const Principal& name) const { return crashed_.contains(name); }

  const common::SimClock& clock() const { return clock_; }
  virtual const NetworkStats& stats() const { return stats_; }
  LeakageAuditor& auditor() { return auditor_; }
  const LeakageAuditor& auditor() const { return auditor_; }

  /// Bound every inbox to `cap` queued messages per receiver (0 =
  /// unbounded, the default). A send that would exceed the bound is
  /// dropped (dropped_overflow) and answered with a Busy{retry_after}
  /// notice on topic "net.busy" so the sender backs off instead of
  /// retry-storming. Busy notices themselves bypass the bound — the
  /// backpressure signal must not be backpressured away.
  void set_inbox_capacity(std::size_t cap) { inbox_capacity_ = cap; }
  std::size_t inbox_capacity() const { return inbox_capacity_; }
  /// Base retry-after hint in Busy notices; scaled up with queue depth.
  void set_busy_retry_after(common::SimTime us) { busy_retry_after_us_ = us; }
  /// Messages currently queued for `name` (timers excluded).
  std::size_t inbox_depth(const Principal& name) const;

  /// ReliableChannel accounting hooks.
  void count_retransmit() { ++stats_.retransmits; }
  void count_duplicate() { ++stats_.duplicates_suppressed; }
  void count_retry_exhausted() { ++stats_.retries_exhausted; }

  /// Overload-control accounting hooks (channel, admission controller,
  /// and platform stage checks report through these).
  void count_busy_deferral() { ++stats_.busy_deferrals; }
  void count_busy_rejected() { ++stats_.busy_rejected; }
  void count_breaker_rejected() { ++stats_.breaker_rejected; }
  void count_shed() { ++stats_.shed_admission; }
  void count_expired_in_flight() { ++stats_.expired_in_flight; }
  void count_expired(Stage stage) {
    switch (stage) {
      case Stage::Endorse: ++stats_.expired_endorse; break;
      case Stage::Order: ++stats_.expired_order; break;
      case Stage::Validate: ++stats_.expired_validate; break;
    }
  }

  /// Cross-shard 2PC accounting hooks (ledger/xshard.hpp).
  void count_xshard_prepare() { ++stats_.xshard_prepares; }
  void count_xshard_commit() { ++stats_.xshard_commits; }
  void count_xshard_failover() { ++stats_.xshard_failovers; }
  void count_xshard_abort(XAbortCause cause) {
    switch (cause) {
      case XAbortCause::VoteNo: ++stats_.xshard_aborts_voteno; break;
      case XAbortCause::Timeout: ++stats_.xshard_aborts_timeout; break;
      case XAbortCause::Equivocation:
        ++stats_.xshard_aborts_equivocation;
        break;
    }
  }

 protected:
  Transport(common::Rng rng, LatencyModel latency);

  struct Pending {
    common::SimTime deliver_at;
    std::uint64_t sequence;  // tie-break for determinism
    Message message;
    std::function<void()> timer;  // set => timer event, not a message
    bool operator>(const Pending& other) const {
      if (deliver_at != other.deliver_at) return deliver_at > other.deliver_at;
      return sequence > other.sequence;
    }
  };

  /// How wire_transmit disposed of a message the engine offered it.
  enum class WireResult : std::uint8_t {
    Local,     // backend has no wire; engine queues it in-process
    Sent,      // framed and handed to the sender's event loop
    Overflow,  // bounded per-link write queue is full: refuse with Busy
  };

  // -- Wire hooks -----------------------------------------------------
  // The sim backend keeps the defaults. A socket backend overrides them
  // to move the engine's already-fault-filtered, latency-stamped
  // messages as framed bytes, and to merge arrivals back into the
  // delivery queue before any pop.

  /// Offered a message that survived every modeled fault. Returning
  /// Local keeps it in-process (the engine still owns `pending`); Sent
  /// means the backend moved it out and the frame will eventually come
  /// back through enqueue_arrival(); Overflow makes the engine count the
  /// refusal and answer the sender with a Busy notice.
  virtual WireResult wire_transmit(Pending& pending) {
    (void)pending;
    return WireResult::Local;
  }

  /// Block until no transmitted frame is still in flight, merging every
  /// arrival into the delivery queue via enqueue_arrival(). Called
  /// before each pop so delivery order never depends on socket timing.
  virtual void wire_pump() {}

  /// A principal was attached/detached (socket backends bind listeners
  /// here). Detach does not tear sockets down: in-flight traffic to a
  /// detached principal must still arrive to be counted dropped_detached
  /// at the pop point, exactly as on the sim backend.
  virtual void wire_attach(const Principal& name) { (void)name; }
  virtual void wire_detach(const Principal& name) { (void)name; }

  /// Merge a frame that came off the wire back into the delivery queue.
  /// Must only be called from within wire_pump() (engine thread).
  void enqueue_arrival(Pending pending) { queue_.push(std::move(pending)); }

  NetworkStats& mutable_stats() { return stats_; }

 private:
  bool reachable(const Principal& from, const Principal& to) const;
  /// Admit `msg` to the wire: bounded-inbox check, depth accounting,
  /// then wire_transmit with local enqueue as the fallback.
  void offer(Message msg);
  /// Refuse `msg` at a full inbox (or full link write queue): count the
  /// overflow and answer the sender with a Busy notice (unless the
  /// refused message *is* one).
  void refuse_overflow(const Message& msg);
  /// Apply all fault-plan and byzantine-plan events scheduled at or
  /// before `now`, merged in time order.
  void apply_faults_until(common::SimTime now);
  void apply_byzantine(const ByzantineEvent& e);
  /// Flip one uniformly chosen bit of `payload` (no-op when empty).
  void flip_random_bit(common::Bytes& payload);

  /// Current adversarial behaviors of one principal (ByzantinePlan).
  struct AdversaryState {
    double tamper_probability = 0.0;
    bool equivocate = false;
    bool replay = false;
    common::SimTime replay_delay_us = 0;
    common::SimTime delay_us = 0;
    bool silent = false;
    std::set<Principal> silence_targets;  // empty + silent => everyone
    std::uint64_t equivocation_seq = 0;
  };

  common::Rng rng_;
  LatencyModel latency_;
  common::SimClock clock_;
  std::map<Principal, Handler> handlers_;
  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> queue_;
  std::uint64_t sequence_ = 0;
  double drop_probability_ = 0.0;
  std::vector<std::set<Principal>> partitions_;
  std::set<Principal> crashed_;
  std::map<Principal, LifecycleHook> crash_hooks_;
  std::map<Principal, LifecycleHook> restart_hooks_;
  std::vector<FaultEvent> fault_events_;  // time-ordered
  std::size_t next_fault_ = 0;
  std::vector<ByzantineEvent> byzantine_events_;  // time-ordered
  std::size_t next_byzantine_ = 0;
  std::map<Principal, AdversaryState> adversaries_;
  std::set<Principal> quarantined_;
  double corruption_probability_ = 0.0;
  std::size_t inbox_capacity_ = 0;  // 0 = unbounded
  common::SimTime busy_retry_after_us_ = 10'000;
  std::map<Principal, std::size_t> inbox_depth_;
  NetworkStats stats_;
  LeakageAuditor auditor_;
};

}  // namespace veil::net
