// Open-loop load generator (mutilate-like, paper §5.1.2).
//
// Generates Poisson arrivals at a configured rate over a small set of
// 5-tuples (the paper uses ~50 flows; few flows + hash steering is what
// exposes the RSS imbalance of Fig. 2). Each request carries type, user id,
// key hash, id, and a send timestamp; latency is measured by the server at
// completion, adding the return wire delay.
//
// Arrivals are drawn ahead into a fixed ring, each one's gap, flow, type and
// key in that order, from an Rng nothing else reads: however far ahead the
// generator looks (NextArrivalWhere), the emitted stream is the same.
#ifndef SYRUP_SRC_APPS_LOADGEN_H_
#define SYRUP_SRC_APPS_LOADGEN_H_

#include <functional>
#include <vector>

#include "src/common/distributions.h"
#include "src/common/rng.h"
#include "src/net/stack.h"
#include "src/sim/simulator.h"

namespace syrup {

struct LoadGenConfig {
  double rate_rps = 100'000;
  uint16_t dst_port = 9000;
  uint32_t num_flows = 50;
  uint32_t user_id = 0;
  // (type, weight) pairs; e.g. {{kGet, 99.5}, {kScan, 0.5}}.
  std::vector<std::pair<ReqType, double>> mix = {{ReqType::kGet, 1.0}};
  uint32_t key_space = 1u << 20;  // key hashes drawn uniformly
  // Zipf skew across flows (0 = uniform); heavy flows stress per-flow
  // steering policies (RSS/RFS imbalance).
  double flow_skew = 0.0;
  Duration wire_delay = 5 * kMicrosecond;  // one way client <-> server
  uint64_t seed = 42;
};

class LoadGenerator {
 public:
  // Packets are emitted into `sink` (e.g. HostStack::Rx, or a switch
  // uplink in rack-level setups).
  using SinkFn = std::function<void(Packet)>;

  LoadGenerator(Simulator& sim, SinkFn sink, LoadGenConfig config);
  LoadGenerator(Simulator& sim, HostStack& stack, LoadGenConfig config);

  // Emits arrivals into the stack from now until `until` (exclusive). Must
  // not be called while a started stream still has arrivals to emit.
  void Start(Time until);

  // Time of the first arrival not emitted yet (the pending one included)
  // whose packet satisfies `pred`, or Simulator::kNoEventTime when the
  // stream ends first (or has not started). Looks at most kMaxLookAhead
  // arrivals ahead; past that it returns the last one drawn, a lower bound
  // on every later arrival (gaps can round to 0 ns).
  Time NextArrivalWhere(const std::function<bool(const Packet&)>& pred);

  uint64_t sent() const { return sent_; }
  const LoadGenConfig& config() const { return config_; }

  // Look-ahead depth of NextArrivalWhere, and the ring's capacity.
  static constexpr size_t kMaxLookAhead = 256;

 private:
  struct Arrival {
    Time when = 0;
    Packet pkt;
  };
  static_assert((kMaxLookAhead & (kMaxLookAhead - 1)) == 0);

  // Draws the next arrival into the ring; false once the stream has ended.
  bool Draw();
  void ScheduleHead();
  void Emit();

  Simulator& sim_;
  SinkFn sink_;
  LoadGenConfig config_;
  Rng rng_;
  ExponentialDuration inter_arrival_;
  DiscreteIndex type_picker_;
  ZipfIndex flow_picker_;
  std::vector<FiveTuple> flows_;
  // ring_[head_ .. tail_) are drawn, not yet emitted; the head is scheduled.
  std::vector<Arrival> ring_;
  uint64_t head_ = 0;
  uint64_t tail_ = 0;
  Time last_ = 0;      // the newest arrival drawn (the start time before any)
  bool ended_ = true;  // no more arrivals to draw
  Time until_ = 0;
  uint64_t sent_ = 0;
  uint64_t next_req_id_ = 1;
};

}  // namespace syrup

#endif  // SYRUP_SRC_APPS_LOADGEN_H_
