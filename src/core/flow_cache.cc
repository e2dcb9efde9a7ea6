#include "src/core/flow_cache.h"

#include <algorithm>
#include <bit>

#include "src/common/hash.h"

namespace syrup {

namespace {

// Four counter probes + two doorkeeper probes per key, Kirsch-Mitzenmacher
// style: index_i = h1 + i * h2. Keys arrive already Mix64-finished (the
// cache hash), so the halves are well dispersed.
inline size_t SketchIndex(uint64_t hash, unsigned probe, size_t mask) {
  const uint64_t h1 = hash;
  const uint64_t h2 = (hash >> 31) | 1;  // odd, so probes never collapse
  return static_cast<size_t>(h1 + (probe + 1) * h2) & mask;
}

}  // namespace

FlowCacheBinding FlowCacheBinding::ForProgram(
    const bpf::AnalysisFacts& facts, const bpf::Program& program) {
  FlowCacheBinding binding;
  if (!facts.cacheable) {
    return binding;
  }
  // Defense in depth: `cacheable` already implies a pure program, but
  // read_maps alone never was the complete map footprint — a program with
  // writes or in-place atomics must not be memoized even if a bug upstream
  // left the cacheable bit set, so consult the write sets explicitly.
  if (!facts.write_maps.empty() || !facts.atomic_maps.empty()) {
    return binding;
  }
  binding.cacheable = true;
  binding.pkt_read_mask = facts.pkt_read_mask;
  binding.read_maps.reserve(facts.read_maps.size());
  for (int32_t index : facts.read_maps) {
    if (index < 0 || static_cast<size_t>(index) >= program.maps.size()) {
      // A read-set index the program cannot resolve means the facts do not
      // describe this program; refuse to cache rather than mis-key.
      return FlowCacheBinding{};
    }
    binding.read_maps.push_back(program.maps[static_cast<size_t>(index)].get());
  }
  return binding;
}

FlowCacheCounters FlowCacheCounters::Detached() {
  FlowCacheCounters c;
  c.hits = std::make_shared<obs::Counter>();
  c.misses = std::make_shared<obs::Counter>();
  c.invalidations = std::make_shared<obs::Counter>();
  c.uncacheable = std::make_shared<obs::Counter>();
  c.evictions = std::make_shared<obs::Counter>();
  c.admission_rejects = std::make_shared<obs::Counter>();
  c.resizes = std::make_shared<obs::Counter>();
  c.capacity = std::make_shared<obs::Gauge>();
  return c;
}

FlowCacheCounters FlowCacheCounters::InRegistry(
    obs::MetricsRegistry& registry, std::string_view hook) {
  FlowCacheCounters c;
  c.hits = registry.GetCounter("syrupd", hook, "flow_cache.hits");
  c.misses = registry.GetCounter("syrupd", hook, "flow_cache.misses");
  c.invalidations =
      registry.GetCounter("syrupd", hook, "flow_cache.invalidations");
  c.uncacheable =
      registry.GetCounter("syrupd", hook, "flow_cache.uncacheable");
  c.evictions = registry.GetCounter("syrupd", hook, "flow_cache.evictions");
  c.admission_rejects =
      registry.GetCounter("syrupd", hook, "flow_cache.admission_rejects");
  c.resizes = registry.GetCounter("syrupd", hook, "flow_cache.resizes");
  c.capacity = registry.GetGauge("syrupd", hook, "flow_cache.capacity");
  return c;
}

FlowCacheCounters FlowCacheCounters::InRegistryShard(
    obs::MetricsRegistry& registry, std::string_view hook, int shard) {
  FlowCacheCounters c;
  c.hits = registry.GetCounterShard("syrupd", hook, "flow_cache.hits", shard);
  c.misses =
      registry.GetCounterShard("syrupd", hook, "flow_cache.misses", shard);
  c.invalidations = registry.GetCounterShard("syrupd", hook,
                                             "flow_cache.invalidations", shard);
  c.uncacheable = registry.GetCounterShard("syrupd", hook,
                                           "flow_cache.uncacheable", shard);
  c.evictions =
      registry.GetCounterShard("syrupd", hook, "flow_cache.evictions", shard);
  c.admission_rejects = registry.GetCounterShard(
      "syrupd", hook, "flow_cache.admission_rejects", shard);
  c.resizes =
      registry.GetCounterShard("syrupd", hook, "flow_cache.resizes", shard);
  c.capacity =
      registry.GetGaugeShard("syrupd", hook, "flow_cache.capacity", shard);
  return c;
}

// --- FrequencySketch --------------------------------------------------------

void FrequencySketch::Resize(size_t counters) {
  const size_t n = std::bit_ceil(std::max<size_t>(counters, 64));
  mask_ = n - 1;
  table_.assign(n / 16, 0);
  door_.assign(n / 64, 0);
  samples_ = 0;
  // ~8 samples per counter before aging: long enough that hot flows climb
  // well clear of one-hit wonders, short enough to track shifting traffic.
  sample_limit_ = 8 * n;
}

bool FrequencySketch::DoorkeeperTest(uint64_t hash) const {
  const size_t a = SketchIndex(hash, 4, mask_);
  const size_t b = SketchIndex(hash, 5, mask_);
  return (door_[a >> 6] >> (a & 63)) & 1 && (door_[b >> 6] >> (b & 63)) & 1;
}

void FrequencySketch::DoorkeeperSet(uint64_t hash) {
  const size_t a = SketchIndex(hash, 4, mask_);
  const size_t b = SketchIndex(hash, 5, mask_);
  door_[a >> 6] |= uint64_t{1} << (a & 63);
  door_[b >> 6] |= uint64_t{1} << (b & 63);
}

void FrequencySketch::Touch(uint64_t hash) {
  ++samples_;
  if (!DoorkeeperTest(hash)) {
    // First occurrence since the last aging: the doorkeeper absorbs it.
    DoorkeeperSet(hash);
  } else {
    // Conservative update: only bump the counters currently at the
    // minimum, which tightens the min-estimate against over-counting.
    size_t index[4];
    uint32_t count[4];
    uint32_t min = kMaxEstimate;
    for (unsigned p = 0; p < 4; ++p) {
      index[p] = SketchIndex(hash, p, mask_);
      count[p] = CounterAt(index[p]);
      min = std::min(min, count[p]);
    }
    if (min < kMaxEstimate) {
      for (unsigned p = 0; p < 4; ++p) {
        if (count[p] == min) {
          table_[index[p] >> 4] += uint64_t{1} << ((index[p] & 15) * 4);
        }
      }
    }
  }
  if (samples_ >= sample_limit_) {
    Age();
  }
}

uint32_t FrequencySketch::Estimate(uint64_t hash) const {
  uint32_t min = kMaxEstimate;
  for (unsigned p = 0; p < 4; ++p) {
    min = std::min(min, CounterAt(SketchIndex(hash, p, mask_)));
  }
  return min + (DoorkeeperTest(hash) ? 1 : 0);
}

void FrequencySketch::Age() {
  // Halve every 4-bit counter in parallel: shift the word and clear the
  // bit that crossed each nibble boundary.
  for (uint64_t& word : table_) {
    word = (word >> 1) & 0x7777777777777777ull;
  }
  std::fill(door_.begin(), door_.end(), 0);
  samples_ /= 2;  // the halved counters represent half the history
  ++agings_;
}

// --- FlowDecisionCache ------------------------------------------------------

size_t FlowDecisionCache::RoundCapacity(size_t requested) {
  return std::bit_ceil(std::clamp(requested, kMinSlots, kMaxSlots));
}

void FlowDecisionCache::Configure(const FlowCacheConfig& config) {
  config_ = config;
  // Move-assigning empty vectors frees the storage (clear() would keep it).
  slots_ = {};
  keys_ = {};
  sketch_ = {};
  mask_ = 0;
  occupied_ = 0;
  counters_.capacity->Set(0);
}

void FlowDecisionCache::Allocate() {
  if (allocated()) {
    return;
  }
  const size_t slots = RoundCapacity(config_.capacity);
  // Adaptive shrink may go below the configured capacity (the config is a
  // starting point) but never below kShrinkFloor — unless the operator
  // asked for a smaller table to begin with (tiny test configs).
  floor_slots_ = std::min(slots, kShrinkFloor);
  slots_.assign(slots, Entry{});
  keys_.assign(slots * kMaxKeyBytes, 0);
  mask_ = slots - 1;
  sketch_.Resize(slots);
  occupied_ = 0;
  window_ = 1;
  window_lookups_ = 0;
  window_pressure_ = 0;
  window_live_ = 0;
  prev_window_live_ = 0;
  counters_.capacity->Set(static_cast<int64_t>(slots));
}

void FlowDecisionCache::BindCounters(FlowCacheCounters counters) {
  counters_ = std::move(counters);
  counters_.capacity->Set(static_cast<int64_t>(slots_.size()));
}

FlowDecisionCache::Key FlowDecisionCache::MakeKey(const PacketView& pkt,
                                                  uint64_t mask) {
  Key key;
  const uint16_t port = pkt.DstPort();
  const uint16_t len = static_cast<uint16_t>(pkt.size());
  std::memcpy(key.bytes, &port, sizeof(port));
  std::memcpy(key.bytes + 2, &len, sizeof(len));
  // The prefix is assembled in a register as the bytes are gathered:
  // reloading it from the byte stores just made would stall on store
  // forwarding, which cost more than the rest of the key build.
  uint64_t prefix = uint64_t{port} | uint64_t{len} << 16;
  uint32_t pos = 4;
  uint64_t m = mask;
  while (m != 0) {
    const unsigned i = static_cast<unsigned>(__builtin_ctzll(m));
    m &= m - 1;
    if (i < pkt.size()) {
      const uint8_t byte = pkt.start[i];
      if (pos < 8) {
        prefix |= uint64_t{byte} << (8 * pos);
      }
      key.bytes[pos++] = byte;
    }
  }
  key.len = pos;
  key.prefix = prefix;
  // FNV-1a over the key bytes, finished with Mix64 for slot spread. The
  // mask itself needn't be hashed: one cache serves one hook, and every
  // entry behind a port was produced under that port's single deployment.
  uint64_t h = 1469598103934665603ull;
  for (uint32_t i = 0; i < pos; ++i) {
    h = (h ^ key.bytes[i]) * 1099511628211ull;
  }
  key.hash = Mix64(h);
  return key;
}

bool FlowDecisionCache::Lookup(const Key& key, uint64_t epoch,
                               uint64_t version_sum, Decision* out,
                               bool* stale) {
  *stale = false;
  ++window_lookups_;
  if (window_lookups_ >= slots_.size()) {
    AdvanceWindow();
  }
  const size_t base = static_cast<size_t>(key.hash) & mask_;
  for (size_t probe = 0; probe < kProbeWindow; ++probe) {
    const size_t slot = (base + probe) & mask_;
    Entry& entry = slots_[slot];
    if (!entry.valid || !SlotMatches(entry, slot, key)) {
      continue;
    }
    if (entry.epoch != epoch || entry.version_sum != version_sum) {
      // The flow is known but a read-set map changed (or the hook was
      // redeployed) since the decision was computed: self-invalidate.
      entry.valid = false;
      --occupied_;
      *stale = true;
      return false;
    }
    if (entry.last_seen != window_) {
      // First hit this window: the entry proves it is live.
      entry.last_seen = window_;
      ++window_live_;
    }
    *out = entry.decision;
    return true;
  }
  return false;
}

void FlowDecisionCache::Insert(const Key& key, Decision decision,
                               uint64_t epoch, uint64_t version_sum) {
  // Every insert is a cache miss the dispatcher just paid for, so it is
  // exactly one access of this flow: feed the sketch here (and only here —
  // the doorkeeper fast path means hits never touch frequency state).
  if (config_.admission) {
    sketch_.Touch(key.hash);
  }

  const size_t base = static_cast<size_t>(key.hash) & mask_;
  size_t victim = slots_.size();  // npos
  uint32_t victim_estimate = 0;
  for (size_t probe = 0; probe < kProbeWindow; ++probe) {
    const size_t slot = (base + probe) & mask_;
    Entry& entry = slots_[slot];
    if (!entry.valid) {
      entry.hash = key.hash;
      entry.version_sum = version_sum;
      entry.epoch = epoch;
      entry.key_prefix = key.prefix;
      entry.key_len = key.len;
      entry.decision = decision;
      entry.last_seen = window_;
      std::memcpy(KeyAt(slot), key.bytes, key.len);
      entry.valid = true;
      ++occupied_;
      return;
    }
    if (SlotMatches(entry, slot, key)) {
      // Refresh the existing entry for this flow.
      entry.version_sum = version_sum;
      entry.epoch = epoch;
      entry.decision = decision;
      entry.last_seen = window_;
      return;
    }
    if (entry.epoch != epoch) {
      // A stale-epoch resident can never hit again: free real estate.
      victim = slot;
      victim_estimate = 0;
    } else if (victim == slots_.size()) {
      victim = slot;
      victim_estimate = config_.admission ? sketch_.Estimate(entry.hash) : 0;
    } else if (config_.admission && victim_estimate != 0) {
      const uint32_t estimate = sketch_.Estimate(entry.hash);
      if (estimate < victim_estimate) {
        victim = slot;
        victim_estimate = estimate;
      }
    }
  }

  // Probe window full of live entries: admission decides. Accounting uses
  // the single-writer IncRelaxed: each cache has exactly one dispatching
  // thread (its shard), but a metrics snapshot may Load() concurrently.
  ++window_pressure_;
  if (config_.admission && victim_estimate != 0 &&
      sketch_.Estimate(key.hash) <= victim_estimate) {
    counters_.admission_rejects->IncRelaxed();
    return;
  }
  counters_.evictions->IncRelaxed();
  Entry& entry = slots_[victim];
  entry.hash = key.hash;
  entry.version_sum = version_sum;
  entry.epoch = epoch;
  entry.key_prefix = key.prefix;
  entry.key_len = key.len;
  entry.decision = decision;
  entry.last_seen = window_;
  std::memcpy(KeyAt(victim), key.bytes, key.len);
  entry.valid = true;
}

void FlowDecisionCache::AdvanceWindow() {
  if (config_.adaptive) {
    // Entries that *hit* in the current or previous window approximate the
    // live (recurring) flow population — inserted-but-never-hit entries are
    // one-hit wonders and must not grow the table. Eviction/admission
    // pressure counts the flows the table had no room for.
    const size_t live =
        static_cast<size_t>(std::max(window_live_, prev_window_live_));
    const size_t target = live + static_cast<size_t>(window_pressure_);
    const size_t desired =
        std::clamp(RoundCapacity(2 * std::max<size_t>(target, 1)),
                   floor_slots_, kMaxSlots);
    if (desired > slots_.size()) {
      ResizeTo(desired);
    } else if (desired * 4 <= slots_.size() &&
               slots_.size() > floor_slots_) {
      // Shrink one step at a time with 4x hysteresis so a bursty lull
      // doesn't thrash the table.
      ResizeTo(slots_.size() / 2);
    }
  }
  prev_window_live_ = window_live_;
  window_live_ = 0;
  ++window_;
  window_lookups_ = 0;
  window_pressure_ = 0;
}

void FlowDecisionCache::Place(const Entry& entry, const uint8_t* key_bytes) {
  const size_t base = static_cast<size_t>(entry.hash) & mask_;
  for (size_t probe = 0; probe < kProbeWindow; ++probe) {
    const size_t index = (base + probe) & mask_;
    Entry& slot = slots_[index];
    if (!slot.valid) {
      slot = entry;
      std::memcpy(KeyAt(index), key_bytes, entry.key_len);
      ++occupied_;
      return;
    }
  }
  // No room in the new table's probe window: the entry is dropped, which
  // is an eviction by resize.
  counters_.evictions->IncRelaxed();
}

void FlowDecisionCache::ResizeTo(size_t new_slots) {
  std::vector<Entry> old = std::move(slots_);
  std::vector<uint8_t> old_keys = std::move(keys_);
  slots_.assign(new_slots, Entry{});
  keys_.assign(new_slots * kMaxKeyBytes, 0);
  mask_ = new_slots - 1;
  occupied_ = 0;
  // The sketch resizes (and so resets) with the table: frequency state is
  // recent-traffic state, and the admission fight restarts fairly.
  sketch_.Resize(new_slots);
  // Rehash live entries first so a shrink keeps the useful ones when probe
  // windows fill.
  for (size_t i = 0; i < old.size(); ++i) {
    if (old[i].valid && window_ - old[i].last_seen <= 1) {
      Place(old[i], old_keys.data() + i * kMaxKeyBytes);
    }
  }
  for (size_t i = 0; i < old.size(); ++i) {
    if (old[i].valid && window_ - old[i].last_seen > 1) {
      Place(old[i], old_keys.data() + i * kMaxKeyBytes);
    }
  }
  counters_.resizes->IncRelaxed();
  counters_.capacity->Set(static_cast<int64_t>(new_slots));
}

void FlowDecisionCache::Clear() {
  for (Entry& entry : slots_) {
    entry.valid = false;
  }
  occupied_ = 0;
}

}  // namespace syrup
