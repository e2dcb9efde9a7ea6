// HostStack: discrete-event model of the Linux receive path with Syrup's
// five network hooks (paper Fig. 4).
//
//   NIC Rx ──► [XDP Offload] ──► RX queue ──► softirq core:
//     driver ──► [XDP_DRV] ──► (AF_XDP socket | pass)
//            ──► skb alloc ──► [XDP_SKB] ──► (AF_XDP socket | pass)
//            ──► [CPU Redirect] ──► (requeue on other core | inline)
//            ──► protocol stack ──► [Socket Select] ──► socket queue
//
// Each RX queue is drained by one softirq core (the paper pins queue IRQs
// to the hyperthread buddies of the application cores, so softirq capacity
// is separate from app-thread capacity). Per-packet costs accrue as busy
// time on that core; queues and sockets are bounded, so overload shows up
// as drops exactly where it does on Linux.
#ifndef SYRUP_SRC_NET_STACK_H_
#define SYRUP_SRC_NET_STACK_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "src/common/decision.h"
#include "src/common/time.h"
#include "src/net/packet.h"
#include "src/net/socket.h"
#include "src/obs/metrics.h"
#include "src/sim/simulator.h"

namespace syrup {

class ShardedSim;

// Hook callback: syrupd installs per-hook dispatchers here. The callback
// receives the packet bytes and returns an executor index, kPass, or kDrop.
using SteerHook = std::function<Decision(const PacketView&)>;

// Burst form of the same contract: one Decision per input view, written
// in order. Installed alongside the single-packet hook by syrupd
// (Syrupd::DispatchBatch); burst entry points (RxBurst, KCM segments) use
// it to amortize routing and cache probes across same-instant arrivals.
using BatchSteerHook =
    std::function<void(std::span<const PacketView>, std::span<Decision>)>;

struct StackHooks {
  SteerHook xdp_offload;   // executor: NIC RX queue
  SteerHook xdp_drv;       // executor: AF_XDP socket registered on the queue
  SteerHook xdp_skb;       // executor: AF_XDP socket (generic mode)
  SteerHook cpu_redirect;  // executor: softirq core
  SteerHook socket_select; // executor: socket within the dst-port group
};

struct StackBatchHooks {
  BatchSteerHook xdp_offload;
  BatchSteerHook xdp_drv;
  BatchSteerHook xdp_skb;
  BatchSteerHook cpu_redirect;
  BatchSteerHook socket_select;
};

struct StackConfig {
  int num_nic_queues = 6;
  size_t nic_ring_depth = 1024;    // per-queue descriptor ring
  size_t socket_queue_depth = 128; // SO_RCVBUF in datagrams

  Duration driver_cost = 600;         // DMA + descriptor handling
  Duration xdp_cost = 300;            // one XDP policy invocation
  Duration skb_alloc_cost = 500;      // SKB allocation (pre-XDP_SKB)
  Duration protocol_cost = 1200;      // UDP/IP processing + socket lookup
  Duration socket_policy_cost = 500;  // Socket Select policy invocation
  Duration ipi_cost = 400;            // CPU-redirect requeue
  Duration afxdp_deliver_cost = 300;  // zero-copy descriptor hand-off
  Duration afxdp_copy_cost = 700;     // extra copy in generic (SKB) mode

  // Flow-affinity model for the CPU Redirect hook (§2.1's RFS motivation):
  // protocol processing pays this extra cost when the flow's state is not
  // warm in the processing core's cache (not seen there within
  // affinity_window). 0 disables the model (default: the paper's main
  // experiments don't exercise it).
  Duration protocol_cold_penalty = 0;
  Duration affinity_window = 1 * kMillisecond;
};

// Point-in-time copy of the stack's counters (assembled from the metric
// cells in `stats()`; kept as a struct so call sites read plain fields).
struct StackStats {
  uint64_t rx_packets = 0;
  uint64_t nic_ring_drops = 0;
  uint64_t socket_drops = 0;   // bounded socket queue overflow
  uint64_t policy_drops = 0;   // a policy returned DROP
  uint64_t invalid_decisions = 0;  // out-of-range executor, fell back
  uint64_t delivered_socket = 0;
  uint64_t delivered_afxdp = 0;
  uint64_t cpu_redirects = 0;

  uint64_t TotalDrops() const {
    return nic_ring_drops + socket_drops + policy_drops;
  }
};

class HostStack {
 public:
  HostStack(Simulator& sim, StackConfig config);

  HostStack(const HostStack&) = delete;
  HostStack& operator=(const HostStack&) = delete;

  StackHooks& hooks() { return hooks_; }
  StackBatchHooks& batch_hooks() { return batch_hooks_; }
  const StackConfig& config() const { return config_; }
  StackStats stats() const;

  // Re-homes the stack's accounting into `registry` under
  // {"host", "stack", ...} (counts accumulated so far carry over). Syrupd
  // calls this when a stack is attached; standalone stacks keep their
  // detached cells.
  void BindMetrics(obs::MetricsRegistry& registry);

  // Creates (or returns) the SO_REUSEPORT group for `port`.
  ReuseportGroup* GetOrCreateGroup(uint16_t port);

  // --- Late binding (paper §6.3) ------------------------------------------
  //
  // By default the Socket Select hook binds a datagram to a socket the
  // moment it arrives (early binding), which can strand short requests
  // behind long ones. With late binding enabled for a port, arrivals are
  // buffered centrally and matched to a socket only when that socket's
  // consumer is idle (its thread blocked in recvmsg) — the scheduling
  // function fires when an *executor* becomes available.

  // Switches `port`'s group to late binding with the given central buffer.
  void EnableLateBinding(uint16_t port, size_t buffer_depth = 4096);

  // The application reports that `socket`'s consumer has gone idle (a
  // recvmsg found the queue empty). No-op for early-binding ports.
  void NotifySocketIdle(uint16_t port, Socket* socket);

  uint64_t late_bound_deliveries() const { return m_.late_bound->value; }

  // --- TCP connection steering (paper Fig. 4) -----------------------------
  //
  // For TCP, the Socket Select hook schedules *connections*, not packets:
  // the policy runs once on the connection-establishing packet and the
  // binding sticks for the connection's lifetime (as SO_REUSEPORT + eBPF
  // does for SYNs). Packets with tuple.protocol == kProtoTcp take this
  // path automatically.

  // Tears down a connection's socket binding (FIN/RST).
  void CloseConnection(const FiveTuple& tuple);

  size_t open_connections() const { return connections_.size(); }

  // Registers an AF_XDP socket as executor index (queue, position). Returns
  // the socket, owned by the stack.
  Socket* RegisterAfXdpSocket(int queue, size_t queue_depth);

  // Entry point: a packet arrives from the wire at the current sim time.
  void Rx(Packet pkt);

  // --- Sharded runs (src/sim/sharded.h) -----------------------------------
  //
  // A sharded run gives every stack to exactly one shard; all of the
  // stack's own events stay on that shard's engine (the `sim` it was
  // constructed with must be ShardedSim::shard(shard)). Remote shards hand
  // packets across with PostRx, the timestamped-channel form of Rx.

  // Declares this stack's owning shard.
  void BindShard(ShardedSim* sharded, int shard);
  int shard() const { return shard_; }

  // Cross-shard Rx handoff: `pkt` enters Rx() on the owning shard at
  // absolute time `when`. Must be called from shard `from_shard` (or
  // outside any Run), with `when` at least the sharded lookahead past the
  // sender's clock; same-shard calls just schedule locally.
  void PostRx(int from_shard, Time when, Packet pkt);

  // Burst entry point: a NIC DMA burst arrives at the current sim time.
  // All packets traverse the XDP Offload hook (batched through the
  // installed BatchSteerHook when present) before any enters its RX
  // queue — the hardware model of a descriptor burst, which lets the
  // offload stage amortize dispatch over the burst. Per-queue processing
  // order matches per-packet Rx exactly.
  void RxBurst(std::span<Packet> pkts);

  // Busy-fraction of each softirq core over the run (for reports/tests).
  double SoftirqUtilization(int core) const;

 private:
  enum class Stage { kDriver, kProtocol };

  struct Job {
    Packet pkt;
    Stage stage = Stage::kDriver;
  };

  // Where a processed packet goes when its softirq work completes. Kept as
  // plain data (not a closure) so the completion event captures only
  // {this, core}: the packet stays in the core's `inflight` slot and is
  // never copied into per-event callback storage.
  struct DeliverAction {
    enum class Kind : uint8_t {
      kNone,        // consumed earlier (e.g. ring drop)
      kPolicyDrop,  // a policy returned DROP; count at completion time
      kAfxdp,       // hand off to the AF_XDP socket in `socket`
      kGroup,       // deliver through the dst-port reuseport group
    };
    Kind kind = Kind::kNone;
    Socket* socket = nullptr;
  };

  struct SoftirqCore {
    std::deque<Job> ring;
    bool busy = false;
    Duration busy_time = 0;
    // The job currently being processed on this core plus its completion
    // plan; one per core since softirq processing is serialized.
    Job inflight;
    DeliverAction action;
    int requeue_core = -1;
    // Flow-affinity cache: flow hash -> last time protocol state for the
    // flow was touched on this core.
    std::map<uint64_t, Time> flow_last_seen;
  };

  // Returns the protocol-processing cost on `core` for `pkt`, charging the
  // cold penalty on an affinity miss and refreshing the cache.
  Duration ProtocolCost(int core, const Packet& pkt);

  void EnqueueJob(int core, Job job);
  void StartNext(int core);
  // Applies the core's recorded DeliverAction / requeue when the softirq
  // cost event fires, then starts the next queued job.
  void CompleteJob(int core);
  // Runs the post-driver / post-redirect part of the pipeline; returns the
  // total processing cost and stashes the delivery plan in `action` /
  // `requeue_core`.
  Duration ProcessJob(int core, const Job& job, DeliverAction& action,
                      int& requeue_core);
  void DeliverToGroupSocket(const Packet& pkt);

  struct LateBindState {
    std::deque<Packet> buffer;
    size_t buffer_depth = 4096;
    std::deque<Socket*> idle;  // FIFO of sockets with a waiting consumer
  };

  // Delivers under late binding; returns true if the packet was consumed
  // (delivered or buffered or dropped).
  bool LateBindDeliver(LateBindState& state, ReuseportGroup& group,
                       const Packet& pkt);

  // Metric cells (detached until BindMetrics re-homes them). Hot paths
  // bump `->value` directly: the sim is single-threaded, so no atomics.
  struct Metrics {
    std::shared_ptr<obs::Counter> rx_packets;
    std::shared_ptr<obs::Counter> nic_ring_drops;
    std::shared_ptr<obs::Counter> socket_drops;
    std::shared_ptr<obs::Counter> policy_drops;
    std::shared_ptr<obs::Counter> invalid_decisions;
    std::shared_ptr<obs::Counter> delivered_socket;
    std::shared_ptr<obs::Counter> delivered_afxdp;
    std::shared_ptr<obs::Counter> cpu_redirects;
    std::shared_ptr<obs::Counter> late_bound;
    // NIC arrival -> socket enqueue, the wire-to-app half of latency.
    std::shared_ptr<obs::LatencyHistogram> delivery_latency_ns;
  };

  static Metrics DetachedMetrics();

  void RecordDelivery(const Packet& pkt) {
    m_.delivered_socket->value += 1;
    m_.delivery_latency_ns->Record(
        static_cast<uint64_t>(sim_.Now() - pkt.nic_arrival));
  }

  // Routes one offload-hook decision to an RX queue and enqueues (the
  // shared tail of Rx and RxBurst).
  void RouteToQueue(Packet pkt, Decision d);

  Simulator& sim_;
  StackConfig config_;
  ShardedSim* sharded_ = nullptr;  // set by BindShard; null when unsharded
  int shard_ = 0;
  StackHooks hooks_;
  StackBatchHooks batch_hooks_;
  Metrics m_;
  bool metrics_bound_ = false;
  std::vector<SoftirqCore> cores_;
  std::map<uint16_t, std::unique_ptr<ReuseportGroup>> groups_;
  std::map<uint16_t, LateBindState> late_binding_;
  std::map<FiveTuple, Socket*> connections_;  // established TCP bindings
  // af_xdp_sockets_[queue][index]
  std::vector<std::vector<std::unique_ptr<Socket>>> af_xdp_sockets_;
};

}  // namespace syrup

#endif  // SYRUP_SRC_NET_STACK_H_
