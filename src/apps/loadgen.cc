#include "src/apps/loadgen.h"

#include "src/common/logging.h"

namespace syrup {
namespace {

std::vector<double> MixWeights(
    const std::vector<std::pair<ReqType, double>>& mix) {
  SYRUP_CHECK(!mix.empty());
  std::vector<double> weights;
  weights.reserve(mix.size());
  for (const auto& [type, weight] : mix) {
    weights.push_back(weight);
  }
  return weights;
}

}  // namespace

LoadGenerator::LoadGenerator(Simulator& sim, HostStack& stack,
                             LoadGenConfig config)
    : LoadGenerator(sim, [&stack](Packet pkt) { stack.Rx(std::move(pkt)); },
                    std::move(config)) {}

LoadGenerator::LoadGenerator(Simulator& sim, SinkFn sink,
                             LoadGenConfig config)
    : sim_(sim),
      sink_(std::move(sink)),
      config_(config),
      rng_(config.seed),
      inter_arrival_(config.rate_rps),
      type_picker_(MixWeights(config.mix)),
      flow_picker_(config.num_flows, config.flow_skew),
      ring_(kMaxLookAhead) {
  SYRUP_CHECK_GT(config_.num_flows, 0u);
  flows_.reserve(config_.num_flows);
  for (uint32_t i = 0; i < config_.num_flows; ++i) {
    FiveTuple tuple;
    tuple.src_ip = 0x0a000000u + (config_.user_id << 12) + i;
    tuple.dst_ip = 0x0a0000ffu;
    tuple.src_port = static_cast<uint16_t>(20'000 + i);
    tuple.dst_port = config_.dst_port;
    flows_.push_back(tuple);
  }
}

void LoadGenerator::Start(Time until) {
  SYRUP_CHECK_EQ(head_, tail_) << "Start while arrivals are pending";
  until_ = until;
  last_ = sim_.Now();
  ended_ = false;
  if (Draw()) {
    ScheduleHead();
  }
}

bool LoadGenerator::Draw() {
  if (ended_) {
    return false;
  }
  const Time when = last_ + inter_arrival_.Sample(rng_);
  if (when >= until_) {
    ended_ = true;
    return false;
  }
  last_ = when;
  Arrival& arrival = ring_[tail_++ & (kMaxLookAhead - 1)];
  arrival.when = when;
  Packet& pkt = arrival.pkt;
  pkt = Packet{};
  pkt.tuple = flows_[flow_picker_.Sample(rng_)];
  const ReqType type = config_.mix[type_picker_.Sample(rng_)].first;
  const uint32_t key_hash =
      static_cast<uint32_t>(rng_.NextBounded(config_.key_space));
  // The client stamped the packet wire_delay before it arrives.
  const Time send_time =
      when >= config_.wire_delay ? when - config_.wire_delay : 0;
  pkt.SetHeader(type, config_.user_id, key_hash, next_req_id_++, send_time);
  return true;
}

void LoadGenerator::ScheduleHead() {
  sim_.ScheduleAt(ring_[head_ & (kMaxLookAhead - 1)].when,
                  [this]() { Emit(); });
}

void LoadGenerator::Emit() {
  Packet pkt = ring_[head_++ & (kMaxLookAhead - 1)].pkt;
  ++sent_;
  sink_(std::move(pkt));
  // Schedule the next arrival after whatever the sink scheduled: the engine
  // breaks same-time ties by insertion order.
  if (head_ != tail_ || Draw()) {
    ScheduleHead();
  }
}

Time LoadGenerator::NextArrivalWhere(
    const std::function<bool(const Packet&)>& pred) {
  for (uint64_t i = head_;; ++i) {
    if (i == tail_) {
      if (tail_ - head_ == kMaxLookAhead) {
        return last_;
      }
      if (!Draw()) {
        return Simulator::kNoEventTime;
      }
    }
    const Arrival& arrival = ring_[i & (kMaxLookAhead - 1)];
    if (pred(arrival.pkt)) {
      return arrival.when;
    }
  }
}

}  // namespace syrup
