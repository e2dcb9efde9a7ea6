// Policy behaviour tests plus native-vs-bytecode equivalence: for every
// shipped policy, the bytecode twin (loaded by bpf::Load and run as its
// compiled artifact, like a syrupd deployment) must make the same decision
// as its C++ mirror (tests/oracles/native_policies.h) on identical inputs.
#include <gtest/gtest.h>

#include <memory>

#include "src/bpf/loader.h"
#include "src/common/rng.h"
#include "src/core/policy.h"
#include "src/map/map.h"
#include "src/policies/builtin.h"
#include "tests/oracles/native_policies.h"

namespace syrup {
namespace {

Packet MakePacket(ReqType type, uint16_t src_port = 20'000,
                  uint32_t user_id = 1, uint32_t key_hash = 0) {
  Packet pkt;
  pkt.tuple.src_ip = 0x0a000001;
  pkt.tuple.dst_ip = 0x0a0000ff;
  pkt.tuple.src_port = src_port;
  pkt.tuple.dst_port = 9000;
  pkt.SetHeader(type, user_id, key_hash, 1, 0);
  return pkt;
}

// A bytecode policy loaded by bpf::Load at `mode`'s tier: declared maps
// are fresh, an `.extern_map` binds to `extern_map` (so the mirror can read
// the same registers). Exposes the program's maps for test setup.
struct LoadedPolicy {
  std::unique_ptr<BytecodePacketPolicy> policy;
  std::vector<std::shared_ptr<Map>> maps;
};

LoadedPolicy LoadBytecode(const std::string& source, bpf::ExecEnv env = {},
                          std::shared_ptr<Map> extern_map = nullptr,
                          bpf::ExecMode mode = bpf::ExecMode::kCompiled) {
  bpf::LoadOptions options;
  options.mode = mode;
  options.resolve = [&extern_map](const bpf::MapSlot& slot)
      -> StatusOr<std::shared_ptr<Map>> {
    return slot.is_extern ? extern_map : nullptr;
  };
  StatusOr<bpf::LoadedProgram> loaded = bpf::Load(source, options);
  if (!loaded.ok()) {
    ADD_FAILURE() << loaded.status() << "\n" << source;
    return {};
  }
  LoadedPolicy out;
  out.maps = loaded->program->maps;
  out.policy = std::make_unique<BytecodePacketPolicy>(loaded->compiled,
                                                      std::move(env));
  return out;
}

// --- Round Robin ------------------------------------------------------------------

TEST(RoundRobin, CyclesThroughExecutors) {
  RoundRobinPolicy policy(3);
  Packet pkt = MakePacket(ReqType::kGet);
  const PacketView view = PacketView::Of(pkt);
  EXPECT_EQ(policy.Schedule(view), 1u);
  EXPECT_EQ(policy.Schedule(view), 2u);
  EXPECT_EQ(policy.Schedule(view), 0u);
  EXPECT_EQ(policy.Schedule(view), 1u);
}

TEST(RoundRobin, NativeMatchesBytecode) {
  RoundRobinPolicy native(6);
  LoadedPolicy bytecode = LoadBytecode(RoundRobinPolicyAsm(6));
  Packet pkt = MakePacket(ReqType::kGet);
  const PacketView view = PacketView::Of(pkt);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(native.Schedule(view), bytecode.policy->Schedule(view))
        << "diverged at decision " << i;
  }
}

// --- Hash -------------------------------------------------------------------------

TEST(Hash, DeterministicPerFlow) {
  HashPolicy policy(6);
  Packet a = MakePacket(ReqType::kGet, 20'001);
  Packet b = MakePacket(ReqType::kGet, 20'002);
  EXPECT_EQ(policy.Schedule(PacketView::Of(a)),
            policy.Schedule(PacketView::Of(a)));
  // (not guaranteed distinct, but must be in range)
  EXPECT_LT(policy.Schedule(PacketView::Of(b)), 6u);
}

TEST(Hash, NativeMatchesBytecode) {
  HashPolicy native(6);
  LoadedPolicy bytecode = LoadBytecode(HashPolicyAsm(6));
  for (uint16_t flow = 0; flow < 200; ++flow) {
    Packet pkt = MakePacket(ReqType::kGet, 20'000 + flow);
    const PacketView view = PacketView::Of(pkt);
    ASSERT_EQ(native.Schedule(view), bytecode.policy->Schedule(view))
        << "flow " << flow;
  }
}

TEST(Hash, ShortPacketPasses) {
  HashPolicy native(6);
  LoadedPolicy bytecode = LoadBytecode(HashPolicyAsm(6));
  Packet pkt = MakePacket(ReqType::kGet);
  PacketView view{pkt.wire.data(), pkt.wire.data() + 2};
  EXPECT_EQ(native.Schedule(view), kPass);
  EXPECT_EQ(bytecode.policy->Schedule(view), kPass);
}

// --- SITA ------------------------------------------------------------------------

TEST(Sita, ScansToSocketZeroGetsRoundRobinRest) {
  SitaPolicy policy(6);
  Packet scan = MakePacket(ReqType::kScan);
  Packet get = MakePacket(ReqType::kGet);
  EXPECT_EQ(policy.Schedule(PacketView::Of(scan)), 0u);
  EXPECT_EQ(policy.Schedule(PacketView::Of(get)), 2u);  // 1 + (1 % 5)
  EXPECT_EQ(policy.Schedule(PacketView::Of(get)), 3u);
  EXPECT_EQ(policy.Schedule(PacketView::Of(scan)), 0u);
  // GETs never land on socket 0.
  for (int i = 0; i < 20; ++i) {
    const Decision d = policy.Schedule(PacketView::Of(get));
    EXPECT_GE(d, 1u);
    EXPECT_LT(d, 6u);
  }
}

TEST(Sita, NativeMatchesBytecode) {
  SitaPolicy native(6);
  LoadedPolicy bytecode = LoadBytecode(SitaPolicyAsm(6));
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    const ReqType type =
        rng.NextBounded(10) == 0 ? ReqType::kScan : ReqType::kGet;
    Packet pkt = MakePacket(type);
    const PacketView view = PacketView::Of(pkt);
    ASSERT_EQ(native.Schedule(view), bytecode.policy->Schedule(view));
  }
}

TEST(Sita, RuntPacketPasses) {
  SitaPolicy native(6);
  Packet pkt = MakePacket(ReqType::kScan);
  PacketView view{pkt.wire.data(), pkt.wire.data() + 12};
  EXPECT_EQ(native.Schedule(view), kPass);
  LoadedPolicy bytecode = LoadBytecode(SitaPolicyAsm(6));
  EXPECT_EQ(bytecode.policy->Schedule(view), kPass);
}

// --- SCAN Avoid -------------------------------------------------------------------

TEST(ScanAvoid, AvoidsSocketsMarkedScan) {
  MapSpec spec;
  spec.type = MapType::kArray;
  spec.max_entries = 4;
  auto scan_map = CreateMap(spec).value();
  // Sockets 0..2 busy with SCANs; only 3 is free.
  for (uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        scan_map->UpdateU64(i, static_cast<uint64_t>(ReqType::kScan)).ok());
  }
  ASSERT_TRUE(
      scan_map->UpdateU64(3, static_cast<uint64_t>(ReqType::kGet)).ok());

  auto rng = std::make_shared<Rng>(1);
  ScanAvoidPolicy policy(4, scan_map,
                         [rng]() { return static_cast<uint32_t>(rng->Next()); });
  Packet pkt = MakePacket(ReqType::kGet);
  int found_free = 0;
  for (int i = 0; i < 100; ++i) {
    if (policy.Schedule(PacketView::Of(pkt)) == 3u) {
      ++found_free;
    }
  }
  // Random probing with 4 attempts finds the single free socket most of
  // the time ((3/4)^4 ≈ 32% miss rate).
  EXPECT_GT(found_free, 50);
}

TEST(ScanAvoid, AllScansReturnsSomeSocket) {
  MapSpec spec;
  spec.type = MapType::kArray;
  spec.max_entries = 4;
  auto scan_map = CreateMap(spec).value();
  for (uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        scan_map->UpdateU64(i, static_cast<uint64_t>(ReqType::kScan)).ok());
  }
  auto rng = std::make_shared<Rng>(2);
  ScanAvoidPolicy policy(4, scan_map,
                         [rng]() { return static_cast<uint32_t>(rng->Next()); });
  Packet pkt = MakePacket(ReqType::kGet);
  const Decision d = policy.Schedule(PacketView::Of(pkt));
  EXPECT_LT(d, 4u);  // falls back to the last probed socket, not PASS/DROP
}

TEST(ScanAvoid, NativeMatchesBytecodeWithSharedRandomness) {
  // Drive both from the same deterministic random stream and the same map.
  LoadedPolicy bytecode = [] {
    auto shared_rng = std::make_shared<Rng>(99);
    bpf::ExecEnv env;
    env.random_u32 = [shared_rng]() {
      return static_cast<uint32_t>(shared_rng->Next());
    };
    return LoadBytecode(ScanAvoidPolicyAsm(6), env);
  }();
  auto native_rng = std::make_shared<Rng>(99);
  ScanAvoidPolicy native(6, bytecode.maps[0], [native_rng]() {
    return static_cast<uint32_t>(native_rng->Next());
  });

  Rng scenario(5);
  Packet pkt = MakePacket(ReqType::kGet);
  const PacketView view = PacketView::Of(pkt);
  for (int round = 0; round < 100; ++round) {
    // Random scan/get pattern across the sockets each round.
    for (uint32_t i = 0; i < 6; ++i) {
      const uint64_t type = scenario.NextBounded(2) == 0
                                ? static_cast<uint64_t>(ReqType::kGet)
                                : static_cast<uint64_t>(ReqType::kScan);
      ASSERT_TRUE(bytecode.maps[0]->UpdateU64(i, type).ok());
    }
    ASSERT_EQ(native.Schedule(view), bytecode.policy->Schedule(view))
        << "diverged at round " << round;
  }
}

// --- Token ------------------------------------------------------------------------

std::shared_ptr<Map> TokenMap() {
  MapSpec spec;
  spec.type = MapType::kHash;
  spec.max_entries = 64;
  return CreateMap(spec).value();
}

TEST(Token, DropsAtZeroTokensConsumesOtherwise) {
  auto tokens = TokenMap();
  ASSERT_TRUE(tokens->UpdateU64(1, 2).ok());
  TokenPolicy policy(tokens);
  Packet pkt = MakePacket(ReqType::kGet, 20'000, /*user_id=*/1);
  const PacketView view = PacketView::Of(pkt);
  EXPECT_EQ(policy.Schedule(view), kPass);
  EXPECT_EQ(policy.Schedule(view), kPass);
  EXPECT_EQ(policy.Schedule(view), kDrop);  // bucket empty
  EXPECT_EQ(tokens->LookupU64(1).value(), 0u);
}

TEST(Token, UnknownUserPasses) {
  auto tokens = TokenMap();
  TokenPolicy policy(tokens);
  Packet pkt = MakePacket(ReqType::kGet, 20'000, /*user_id=*/77);
  EXPECT_EQ(policy.Schedule(PacketView::Of(pkt)), kPass);
}

TEST(Token, DelegatesToNextPolicy) {
  auto tokens = TokenMap();
  ASSERT_TRUE(tokens->UpdateU64(1, 100).ok());
  TokenPolicy policy(tokens, std::make_shared<RoundRobinPolicy>(3));
  Packet pkt = MakePacket(ReqType::kGet, 20'000, 1);
  const PacketView view = PacketView::Of(pkt);
  EXPECT_EQ(policy.Schedule(view), 1u);
  EXPECT_EQ(policy.Schedule(view), 2u);
}

TEST(Token, PerUserBucketsIndependent) {
  auto tokens = TokenMap();
  ASSERT_TRUE(tokens->UpdateU64(1, 1).ok());
  ASSERT_TRUE(tokens->UpdateU64(2, 5).ok());
  TokenPolicy policy(tokens);
  Packet user1 = MakePacket(ReqType::kGet, 20'000, 1);
  Packet user2 = MakePacket(ReqType::kGet, 20'000, 2);
  EXPECT_EQ(policy.Schedule(PacketView::Of(user1)), kPass);
  EXPECT_EQ(policy.Schedule(PacketView::Of(user1)), kDrop);
  EXPECT_EQ(policy.Schedule(PacketView::Of(user2)), kPass);  // unaffected
}

TEST(Token, NativeMatchesBytecode) {
  LoadedPolicy bytecode = LoadBytecode(TokenPolicyAsm());
  auto native_map = TokenMap();
  TokenPolicy native(native_map);
  for (uint32_t user : {1u, 2u}) {
    ASSERT_TRUE(bytecode.maps[0]->UpdateU64(user, 3).ok());
    ASSERT_TRUE(native_map->UpdateU64(user, 3).ok());
  }
  Rng rng(4);
  for (int i = 0; i < 50; ++i) {
    const uint32_t user = 1 + static_cast<uint32_t>(rng.NextBounded(3));
    Packet pkt = MakePacket(ReqType::kGet, 20'000, user);  // user 3 unknown
    const PacketView view = PacketView::Of(pkt);
    ASSERT_EQ(native.Schedule(view), bytecode.policy->Schedule(view))
        << "i=" << i << " user=" << user;
  }
  // Token counters drained identically.
  EXPECT_EQ(native_map->LookupU64(1).value(),
            bytecode.maps[0]->LookupU64(1).value());
  EXPECT_EQ(native_map->LookupU64(2).value(),
            bytecode.maps[0]->LookupU64(2).value());
}

// --- Token, then round robin (Fig. 7) ---------------------------------------------

// Fig. 7's program against its mirror, TokenPolicy delegating to
// RoundRobinPolicy, on both tiers.
TEST(TokenRoundRobin, MatchesTokenThenRoundRobinMirrorOnBothTiers) {
  for (bpf::ExecMode mode :
       {bpf::ExecMode::kCompiled, bpf::ExecMode::kNative}) {
    SCOPED_TRACE(bpf::ExecModeName(mode));
    LoadedPolicy bytecode =
        LoadBytecode(TokenRoundRobinPolicyAsm(6), {}, nullptr, mode);
    ASSERT_NE(bytecode.policy, nullptr);
    const std::shared_ptr<Map>& tokens = bytecode.maps[0];
    auto native_map = TokenMap();
    TokenPolicy native(native_map, std::make_shared<RoundRobinPolicy>(6));
    auto set_tokens = [&](uint32_t user, uint64_t count) {
      ASSERT_TRUE(tokens->UpdateU64(user, count).ok());
      ASSERT_TRUE(native_map->UpdateU64(user, count).ok());
    };
    auto both = [&](const PacketView& view) {
      const Decision d = native.Schedule(view);
      EXPECT_EQ(bytecode.policy->Schedule(view), d);
      return d;
    };
    set_tokens(1, 2);
    set_tokens(2, 0);
    Packet user1 = MakePacket(ReqType::kGet, 20'000, 1);
    Packet user2 = MakePacket(ReqType::kGet, 20'000, 2);
    Packet stranger = MakePacket(ReqType::kGet, 20'000, 77);
    const PacketView short_view{user1.wire.data(), user1.wire.data() + 16};

    EXPECT_EQ(both(PacketView::Of(user1)), 1u);     // token consumed
    EXPECT_EQ(both(short_view), 2u);                // too short for a user
    EXPECT_EQ(both(PacketView::Of(stranger)), 3u);  // unregistered user
    EXPECT_EQ(both(PacketView::Of(user2)), kDrop);  // empty bucket...
    EXPECT_EQ(both(PacketView::Of(user1)), 4u);     // ...left rr alone
    EXPECT_EQ(both(PacketView::Of(user1)), kDrop);  // user 1 now empty
    set_tokens(1, 1);                               // refill
    EXPECT_EQ(both(PacketView::Of(user1)), 5u);
    EXPECT_EQ(tokens->LookupU64(1).value(), 0u);

    // A random mix with periodic refills.
    Rng rng(8);
    for (int i = 0; i < 400; ++i) {
      if (i % 40 == 0) {
        set_tokens(1, 3);
        set_tokens(2, 1);
      }
      Packet pkt = MakePacket(ReqType::kGet, 20'000,
                              1 + static_cast<uint32_t>(rng.NextBounded(3)));
      PacketView view = PacketView::Of(pkt);
      if (rng.NextBounded(8) == 0) {
        view.end = view.start + 16;
      }
      ASSERT_EQ(native.Schedule(view), bytecode.policy->Schedule(view))
          << "decision " << i;
    }
    for (uint32_t user : {1u, 2u}) {
      EXPECT_EQ(tokens->LookupU64(user).value(),
                native_map->LookupU64(user).value());
    }
  }
}

// --- MICA home --------------------------------------------------------------------

TEST(MicaHome, SteersByKeyHash) {
  MicaHomePolicy policy(8);
  for (uint32_t key_hash : {0u, 7u, 8u, 123'456u}) {
    Packet pkt = MakePacket(ReqType::kGet, 20'000, 1, key_hash);
    EXPECT_EQ(policy.Schedule(PacketView::Of(pkt)), key_hash % 8);
  }
}

TEST(MicaHome, NativeMatchesBytecode) {
  MicaHomePolicy native(8);
  LoadedPolicy bytecode = LoadBytecode(MicaHomePolicyAsm(8));
  Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    Packet pkt = MakePacket(ReqType::kGet, 20'000, 1,
                            static_cast<uint32_t>(rng.Next()));
    const PacketView view = PacketView::Of(pkt);
    ASSERT_EQ(native.Schedule(view), bytecode.policy->Schedule(view));
  }
}

// --- LeastLoaded / PowerOfTwo (batched map reads) ---------------------------------

std::shared_ptr<Map> LoadRegisterMap(uint32_t entries) {
  MapSpec spec;
  spec.type = MapType::kHash;
  spec.max_entries = entries;
  spec.name = "load";
  return CreateMap(spec).value();
}

TEST(LeastLoaded, PicksMinimumTiesTowardLowIndex) {
  auto load = LoadRegisterMap(8);
  const uint64_t loads[6] = {3, 1, 4, 1, 5, 9};
  for (uint32_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(load->UpdateU64(i, loads[i]).ok());
  }
  LeastLoadedPolicy policy(6, load);
  Packet pkt = MakePacket(ReqType::kGet);
  EXPECT_EQ(policy.Schedule(PacketView::Of(pkt)), 1u);
}

TEST(LeastLoaded, MissingRegisterPasses) {
  auto load = LoadRegisterMap(8);
  ASSERT_TRUE(load->UpdateU64(0, 1).ok());  // registers 1..5 absent
  LeastLoadedPolicy policy(6, load);
  Packet pkt = MakePacket(ReqType::kGet);
  EXPECT_EQ(policy.Schedule(PacketView::Of(pkt)), kPass);
}

// The batched scan (LookupBatch under the hood, in ≤32-key chunks) must
// pick exactly the executor a plain sequential Lookup scan picks, for
// fleet sizes below, at, and above one batch.
TEST(LeastLoaded, BatchedScanMatchesSequentialScan) {
  for (uint32_t n : {1u, 6u, 32u, 40u}) {
    auto load = LoadRegisterMap(2 * n);
    LeastLoadedPolicy policy(n, load);
    Packet pkt = MakePacket(ReqType::kGet);
    const PacketView view = PacketView::Of(pkt);
    Rng rng(n);
    for (int round = 0; round < 50; ++round) {
      for (uint32_t i = 0; i < n; ++i) {
        ASSERT_TRUE(load->UpdateU64(i, rng.NextBounded(16)).ok());
      }
      uint32_t best = 0;
      uint64_t best_load = ~uint64_t{0};
      for (uint32_t i = 0; i < n; ++i) {
        const uint64_t v = load->LookupU64(i).value();
        if (v < best_load) {
          best_load = v;
          best = i;
        }
      }
      ASSERT_EQ(policy.Schedule(view), best)
          << "n=" << n << " round=" << round;
    }
  }
}

TEST(LeastLoaded, NativeMatchesBytecode) {
  // n=6 exercises the map_lookup_batch asm twin, n=32 a full batch. (The
  // per-key loop fallback for n > 32 exceeds the verifier's exploration
  // budget, as it always has; the native policy chunks any n.)
  for (uint32_t n : {6u, 32u}) {
    auto load = LoadRegisterMap(2 * n);
    LoadedPolicy bytecode =
        LoadBytecode(LeastLoadedPolicyAsm(n, "/syrup/t/load"), {}, load);
    LeastLoadedPolicy native(n, load);
    Packet pkt = MakePacket(ReqType::kGet);
    const PacketView view = PacketView::Of(pkt);
    Rng rng(7 + n);
    for (int round = 0; round < 60; ++round) {
      for (uint32_t i = 0; i < n; ++i) {
        ASSERT_TRUE(load->UpdateU64(i, rng.NextBounded(100)).ok());
      }
      if (round == 30) {
        // Knock a register out: both sides must defer to the default.
        const uint32_t victim = n / 2;
        ASSERT_TRUE(load->Delete(&victim).ok());
      }
      ASSERT_EQ(native.Schedule(view), bytecode.policy->Schedule(view))
          << "n=" << n << " round=" << round;
      if (round == 30) {
        ASSERT_EQ(native.Schedule(view), kPass);
        ASSERT_TRUE(load->UpdateU64(n / 2, 0).ok());
      }
    }
  }
}

TEST(PowerOfTwo, NativeMatchesBytecodeWithSharedRandomness) {
  auto load = LoadRegisterMap(16);
  for (uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(load->UpdateU64(i, i * 3 % 7).ok());
  }
  LoadedPolicy bytecode = [&load] {
    auto shared_rng = std::make_shared<Rng>(31);
    bpf::ExecEnv env;
    env.random_u32 = [shared_rng]() {
      return static_cast<uint32_t>(shared_rng->Next());
    };
    return LoadBytecode(PowerOfTwoPolicyAsm(8, "/syrup/t/load"), env, load);
  }();
  auto native_rng = std::make_shared<Rng>(31);
  PowerOfTwoPolicy native(8, load, [native_rng]() {
    return static_cast<uint32_t>(native_rng->Next());
  });
  Packet pkt = MakePacket(ReqType::kGet);
  const PacketView view = PacketView::Of(pkt);
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(native.Schedule(view), bytecode.policy->Schedule(view))
        << "diverged at decision " << i;
  }
}

// --- ConstIndex -------------------------------------------------------------------

TEST(ConstIndex, ReturnsConfiguredIndex) {
  ConstIndexPolicy policy(5);
  Packet pkt = MakePacket(ReqType::kGet);
  EXPECT_EQ(policy.Schedule(PacketView::Of(pkt)), 5u);
  LoadedPolicy bytecode = LoadBytecode(ConstIndexPolicyAsm(5));
  EXPECT_EQ(bytecode.policy->Schedule(PacketView::Of(pkt)), 5u);
}

// --- BytecodePacketPolicy instrumentation -------------------------------------------

TEST(BytecodePolicy, TracksInstructionCounts) {
  LoadedPolicy bytecode = LoadBytecode(SitaPolicyAsm(6));
  Packet pkt = MakePacket(ReqType::kGet);
  const PacketView view = PacketView::Of(pkt);
  bytecode.policy->Schedule(view);
  bytecode.policy->Schedule(view);
  EXPECT_EQ(bytecode.policy->invocations(), 2u);
  EXPECT_GT(bytecode.policy->MeanInsnsPerDecision(), 5.0);
  EXPECT_EQ(bytecode.policy->runtime_faults(), 0u);
}


TEST(BytecodePolicy, RuntimeFaultDegradesToPass) {
  // The verifier proves bounds but not the 8-byte alignment of an atomic
  // add, so this program deploys and then faults at run time: the policy
  // wrapper catches the fault and fails open to PASS rather than taking
  // down the datapath.
  LoadedPolicy bytecode = LoadBytecode(R"(
    .map m array 4 16 1
    mov r6, 0
    stxw [r10-4], r6
    ldmapfd r1, m
    mov r2, r10
    add r2, -4
    call map_lookup_elem
    jeq r0, 0, out
    mov r1, 1
    xadddw [r0+1], r1
  out:
    mov r0, 0
    exit
  )");
  Packet pkt = MakePacket(ReqType::kGet);
  EXPECT_EQ(bytecode.policy->Schedule(PacketView::Of(pkt)), kPass);
  EXPECT_EQ(bytecode.policy->runtime_faults(), 1u);
  // Faults don't count as decisions.
  EXPECT_EQ(bytecode.policy->invocations(), 0u);
}

}  // namespace
}  // namespace syrup
