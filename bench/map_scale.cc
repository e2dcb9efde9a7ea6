// Map data-plane scaling: the swiss-table HashMap against the chained map
// oracle, machine-readable. Three scenarios:
//
//   lookup_ns       single-thread random Lookup ns/op at 1k / 64k / 1M
//                   entries, swiss vs chained. At 1k both live in cache; at
//                   1M every probe walks memory.
//   contended_read  4 reader threads on the 1M-entry swiss map: the
//                   lock-free path (seqlock-validated probes, no shared
//                   writes) vs the same lookups serialized through one
//                   mutex (skipped on fewer than 4 hardware threads).
//   batch           LookupBatch(32) vs 32 sequential Lookups at 1M entries;
//                   the batch path overlaps the memory walks.
//
// Sides run interleaved, best of bench::kReps each. Writes
// `BENCH_map_scale.json`; `--baseline` (flags in bench/harness.h) judges
// each scenario's 1M-entry ratio against its floor.
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "src/common/rng.h"
#include "src/map/hash_map.h"
#include "tests/oracles/chained_hash_map.h"

namespace syrup {
namespace {

constexpr uint32_t kContendedThreads = 4;  // the _4 of its JSON keys

// Label and entry count; the contended and batch runs reuse the last map.
constexpr std::pair<const char*, uint32_t> kSizes[] = {
    {"1k", 1'000}, {"64k", 64'000}, {"1m", 1'000'000}};

std::unique_ptr<Map> MakeMap(bool swiss, uint32_t entries) {
  MapSpec spec;
  spec.type = MapType::kHash;
  spec.max_entries = entries;
  spec.name = swiss ? "swiss" : "chained";
  std::unique_ptr<Map> map;
  if (swiss) {
    map = std::make_unique<HashMap>(spec);
  } else {
    map = std::make_unique<ChainedHashMap>(spec);
  }
  for (uint32_t key = 0; key < entries; ++key) {
    (void)map->UpdateU64(key, key);
  }
  return map;
}

// `rng` carries on across reps, so no rep replays the keys of the last.
double MeasureLookupNs(Map& map, uint32_t entries, int iters, Rng& rng) {
  volatile uint64_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    const uint32_t key = static_cast<uint32_t>(rng.NextBounded(entries));
    void* value = map.Lookup(&key);
    if (value != nullptr) {
      sink = sink + Map::AtomicLoad(value);
    }
  }
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(stop - start).count() /
         iters;
}

// Aggregate ns per lookup of kContendedThreads readers hammering random
// keys. With `serialize` each Lookup goes through one shared mutex — the
// degenerate shape the lock-free read path exists to avoid; the map
// underneath is identical either way, so the delta is pure synchronization.
double MeasureContendedNs(Map& map, uint32_t entries, int iters_per_thread,
                          bool serialize) {
  constexpr unsigned threads = kContendedThreads;
  std::mutex mu;
  std::vector<std::thread> readers;
  readers.reserve(threads);
  const auto start = std::chrono::steady_clock::now();
  for (unsigned t = 0; t < threads; ++t) {
    readers.emplace_back([&map, &mu, entries, iters_per_thread, serialize,
                          t]() {
      Rng rng(100 + t);
      volatile uint64_t sink = 0;
      for (int i = 0; i < iters_per_thread; ++i) {
        const uint32_t key = static_cast<uint32_t>(rng.NextBounded(entries));
        std::unique_lock<std::mutex> lock(mu, std::defer_lock);
        if (serialize) lock.lock();
        void* value = map.Lookup(&key);
        if (value != nullptr) {
          sink = sink + Map::AtomicLoad(value);
        }
      }
    });
  }
  for (std::thread& reader : readers) {
    reader.join();
  }
  const double elapsed_ns = std::chrono::duration<double, std::nano>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  return elapsed_ns / (static_cast<double>(iters_per_thread) * threads);
}

// ns per key of `rounds` batches of 32 random keys, through LookupBatch or
// through 32 sequential Lookups.
double MeasureBatchNs(Map& map, uint32_t entries, int rounds, bool batched) {
  constexpr uint32_t kBatch = Map::kMaxLookupBatch;
  uint32_t keys[kBatch];
  void* values[kBatch];
  Rng rng(21);
  volatile uint64_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    for (uint32_t i = 0; i < kBatch; ++i) {
      keys[i] = static_cast<uint32_t>(rng.NextBounded(entries));
    }
    if (batched) {
      map.LookupBatch(kBatch, keys, values);
      for (uint32_t i = 0; i < kBatch; ++i) {
        if (values[i] != nullptr) {
          sink = sink + Map::AtomicLoad(values[i]);
        }
      }
    } else {
      for (uint32_t i = 0; i < kBatch; ++i) {
        void* value = map.Lookup(&keys[i]);
        if (value != nullptr) {
          sink = sink + Map::AtomicLoad(value);
        }
      }
    }
  }
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(stop - start).count() /
         (static_cast<double>(rounds) * kBatch);
}

int Run(const bench::Flags& flags) {
  // Per rep; --quick runs a fifth of each.
  const int scale = flags.quick ? 5 : 1;
  const int lookup_iters = 500'000 / scale;
  const int reader_iters = 400'000 / scale;
  const int batch_rounds = 25'000 / scale;
  bench::Report report("map_scale", "ns_per_op", flags.quick);

  std::printf("# map_scale: swiss-table data plane (%s mode, %u hw threads, "
              "best of %d)\n",
              flags.quick ? "quick" : "full", bench::HardwareThreads(),
              bench::kReps);

  // lookup_ns: swiss vs chained at each size.
  std::printf("%-10s %14s %14s %9s\n", "entries", "swiss ns/op",
              "chained ns/op", "ratio");
  std::unique_ptr<Map> swiss_1m;  // reused by the contended + batch runs
  for (const auto& [label, entries] : kSizes) {
    std::unique_ptr<Map> swiss = MakeMap(/*swiss=*/true, entries);
    std::unique_ptr<Map> chained = MakeMap(/*swiss=*/false, entries);
    const std::vector<bench::Series> reads = bench::Interleave({
        [&, keys = Rng(9)]() mutable {
          return MeasureLookupNs(*swiss, entries, lookup_iters, keys);
        },
        [&, keys = Rng(9)]() mutable {
          return MeasureLookupNs(*chained, entries, lookup_iters, keys);
        },
    });
    const bench::Ratio ratio = bench::RatioOf(reads[1], reads[0]);
    const std::string key = "scenarios.lookup_ns.";
    report.Number(key + "swiss_" + label, reads[0].Best(), 1);
    report.Number(key + "chained_" + label, reads[1].Best(), 1);
    std::printf("%-10s %14.1f %14.1f %8.2fx\n", label, reads[0].Best(),
                reads[1].Best(), ratio.value);
    if (entries == 1'000'000) {
      report.Gate(key + "vs_chained_1m", bench::Bound::kFloor, ratio);
      swiss_1m = std::move(swiss);
    }
  }

  // contended_read: lock-free vs mutex-serialized, same map, same keys.
  const uint32_t big = kSizes[std::size(kSizes) - 1].second;
  const std::vector<bench::Series> contended = bench::Interleave({
      [&] { return MeasureContendedNs(*swiss_1m, big, reader_iters, false); },
      [&] { return MeasureContendedNs(*swiss_1m, big, reader_iters, true); },
  });
  const bench::Ratio contended_speedup =
      bench::RatioOf(contended[1], contended[0]);
  const std::string key = "scenarios.contended_read.";
  report.Number(key + "lockfree_mops_4", 1e3 / contended[0].Best());
  report.Number(key + "mutex_mops_4", 1e3 / contended[1].Best());
  // Reader parallelism: with fewer hardware threads the mutex baseline is
  // not actually contended and the ratio says nothing.
  report.Gate(key + "speedup_4", bench::Bound::kFloor, contended_speedup,
              bench::NeedsThreads(kContendedThreads));
  std::printf("# contended_read (%u threads, 1M entries): lock-free %.2f "
              "Mops, mutex %.2f Mops, %.2fx\n",
              kContendedThreads, 1e3 / contended[0].Best(),
              1e3 / contended[1].Best(), contended_speedup.value);

  // batch: pipelined LookupBatch vs sequential probes.
  const std::vector<bench::Series> batch = bench::Interleave({
      [&] { return MeasureBatchNs(*swiss_1m, big, batch_rounds, true); },
      [&] { return MeasureBatchNs(*swiss_1m, big, batch_rounds, false); },
  });
  const bench::Ratio batch_speedup = bench::RatioOf(batch[1], batch[0]);
  report.Number("scenarios.batch.batch_ns_per_key", batch[0].Best(), 1);
  report.Number("scenarios.batch.sequential_ns_per_key", batch[1].Best(), 1);
  report.Gate("scenarios.batch.speedup", bench::Bound::kFloor, batch_speedup);
  std::printf("# batch (32 keys, 1M entries): batched %.1f ns/key, "
              "sequential %.1f ns/key, %.2fx\n",
              batch[0].Best(), batch[1].Best(), batch_speedup.value);
  return report.Finish(flags);
}

}  // namespace
}  // namespace syrup

int main(int argc, char** argv) {
  return syrup::Run(
      syrup::bench::ParseFlags(argc, argv, "BENCH_map_scale.json"));
}
