// Extension bench (paper §6.1): IO request scheduling on the storage hook.
//
// A ReFlex-like multi-tenant flash scenario: a latency-critical (LC)
// tenant issues 4K reads at a fixed 40k IOPS while a best-effort (BE)
// tenant floods the device with 64K writes at increasing rates. Compared:
//
//   default    — round robin across NVMe queues, no policy: writes land in
//                front of reads everywhere.
//   token      — the §3.4 token policy deployed *unchanged* on the storage
//                hook: the BE tenant gets a bounded IOPS budget (ReFlex's
//                approach; the paper notes this is the same policy).
//   sita       — the Fig. 5d SITA policy deployed unchanged: writes (the
//                long class) are isolated on queue 0, reads spread over
//                the remaining queues.
// Both are verified bytecode loaded with bpf::Load: the device has no
// daemon, so this bench is its control plane.
#include <cstdio>
#include <memory>
#include <string>

#include "src/bpf/loader.h"
#include "src/common/distributions.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/map/map.h"
#include "src/policies/builtin.h"
#include "src/sim/simulator.h"
#include "src/storage/io_scheduler.h"

namespace syrup {
namespace {

// Loads a policy for the storage hook. `tokens`, when set, is the map the
// program's token_map declaration binds to; other declared maps are fresh.
std::shared_ptr<PacketPolicy> LoadIoPolicy(const std::string& source,
                                           std::shared_ptr<Map> tokens) {
  bpf::LoadOptions options;
  options.mode = bpf::ExecMode::kNative;
  options.resolve =
      [&tokens](const bpf::MapSlot& slot) -> StatusOr<std::shared_ptr<Map>> {
    return slot.name == "token_map" ? tokens : nullptr;
  };
  return std::make_shared<BytecodePacketPolicy>(
      bpf::Load(source, options).value().compiled, bpf::ExecEnv{});
}

constexpr uint32_t kLcTenant = 1;
constexpr uint32_t kBeTenant = 2;
constexpr double kLcIops = 40'000;
constexpr Duration kEpoch = 10 * kMillisecond;
constexpr double kBeTokenRate = 3'000;  // BE budget under the token policy

enum class PolicyKind { kDefault, kToken, kSita };

struct Result {
  double lc_p99_us;
  double be_achieved_iops;
};

Result RunOnce(PolicyKind kind, double be_iops) {
  Simulator sim;
  NvmeConfig config;
  NvmeDevice device(sim, config);
  IoScheduler scheduler(device);

  std::shared_ptr<Map> tokens;
  switch (kind) {
    case PolicyKind::kDefault:
      break;
    case PolicyKind::kToken: {
      MapSpec spec;
      spec.type = MapType::kHash;
      spec.max_entries = 16;
      tokens = CreateMap(spec).value();
      // Only the BE tenant is budgeted; LC is not throttled.
      (void)tokens->UpdateU64(
          kBeTenant, static_cast<uint64_t>(kBeTokenRate * ToSeconds(kEpoch)));
      scheduler.SetPolicy(LoadIoPolicy(TokenPolicyAsm(), tokens));
      break;
    }
    case PolicyKind::kSita:
      scheduler.SetPolicy(LoadIoPolicy(
          SitaPolicyAsm(static_cast<uint32_t>(config.num_queues)), nullptr));
      break;
  }
  std::shared_ptr<std::function<void()>> replenish;
  if (tokens != nullptr) {
    // Token replenisher agent (weak self-reference avoids a retain cycle).
    replenish = std::make_shared<std::function<void()>>();
    *replenish = [&sim, tokens,
                  weak_self =
                      std::weak_ptr<std::function<void()>>(replenish)]() {
      uint32_t be = kBeTenant;
      void* cell = tokens->Lookup(&be);
      if (cell != nullptr) {
        Map::AtomicStore(cell, static_cast<uint64_t>(kBeTokenRate *
                                                     ToSeconds(kEpoch)));
      }
      if (auto self = weak_self.lock()) {
        sim.ScheduleAfter(kEpoch, *self);
      }
    };
    sim.ScheduleAfter(kEpoch, *replenish);
  }

  Histogram lc_latency;
  uint64_t be_completed = 0;
  device.SetCompletionCallback([&](const IoRequest& request, Time when) {
    if (request.tenant_id == kLcTenant) {
      lc_latency.Record(when - request.submit_time);
    } else {
      ++be_completed;
    }
  });

  const Time end = 2 * kSecond;
  Rng rng(17);
  uint64_t next_id = 1;

  // Two open-loop generators.
  auto start_gen = [&](uint32_t tenant, IoOp op, uint32_t blocks,
                       double rate) {
    auto gen = std::make_shared<std::function<void()>>();
    auto arrivals = std::make_shared<ExponentialDuration>(rate);
    *gen = [&sim, &scheduler, &rng, &next_id, tenant, op, blocks, rate, end,
            gen, arrivals]() {
      IoRequest request;
      request.tenant_id = tenant;
      request.op = op;
      request.num_blocks = blocks;
      request.req_id = next_id++;
      request.lba = rng.Next() & 0xFFFFFF;
      request.submit_time = sim.Now();
      (void)scheduler.Submit(request);
      const Time next = sim.Now() + arrivals->Sample(rng);
      if (next < end) {
        sim.ScheduleAt(next, *gen);
      }
    };
    sim.ScheduleAfter(1, *gen);
  };
  start_gen(kLcTenant, IoOp::kRead, 1, kLcIops);
  start_gen(kBeTenant, IoOp::kWrite, 16, be_iops);

  sim.RunUntil(end + 100 * kMillisecond);
  return Result{
      static_cast<double>(lc_latency.Percentile(99)) / 1000.0,
      static_cast<double>(be_completed) / ToSeconds(end)};
}

void Run() {
  std::printf("# Storage-hook extension: ReFlex-like tenant isolation on "
              "flash\n");
  std::printf("# LC tenant: 40k IOPS of 4K reads; BE tenant: 64K writes at "
              "increasing rate\n");
  std::printf("%10s | %12s %12s %12s | %12s %12s %12s\n", "be_iops",
              "dflt_lc_p99", "tok_lc_p99", "sita_lc_p99", "dflt_be",
              "tok_be", "sita_be");
  for (double be : {500.0, 1'000.0, 2'000.0, 3'000.0, 4'000.0, 6'000.0,
                    8'000.0}) {
    const Result none = RunOnce(PolicyKind::kDefault, be);
    const Result token = RunOnce(PolicyKind::kToken, be);
    const Result sita = RunOnce(PolicyKind::kSita, be);
    std::printf("%10.0f | %12.1f %12.1f %12.1f | %12.0f %12.0f %12.0f\n",
                be, none.lc_p99_us, token.lc_p99_us, sita.lc_p99_us,
                none.be_achieved_iops, token.be_achieved_iops,
                sita.be_achieved_iops);
  }
  std::printf(
      "# Expectation: default LC p99 degrades with BE load (reads queue "
      "behind writes);\n"
      "# token caps BE at ~%.0f IOPS, bounding LC p99; SITA keeps LC p99 "
      "lowest but\n"
      "# throttles BE hardest (single write queue).\n",
      kBeTokenRate);
}

}  // namespace
}  // namespace syrup

int main() {
  syrup::Run();
  return 0;
}
