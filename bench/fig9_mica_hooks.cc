// Regenerates paper Figure 9: MICA performance with scheduling at
// different layers of the stack (§5.4).
//
// 8 MICA threads on 8 cores, key-partitioned. Variants:
//   sw_redirect — original MICA: RSS lands packets anywhere; the receiving
//                 core forwards to the key's home core over an inter-core
//                 queue (two data movements).
//   syrup_sw    — the hash matching function (§3.3) at the kernel AF_XDP
//                 hook: packets go straight to the home thread's AF_XDP
//                 socket (one movement).
//   syrup_hw    — the same policy offloaded to the NIC: packets arrive on
//                 the home core's own queue (no cross-core movement).
//
//   (a) 50% GET / 50% PUT          (b) 95% GET / 5% PUT
// Reports 99.9% latency vs load, as in the paper.
#include <cstdio>

#include "src/apps/experiments.h"

namespace syrup {
namespace {

double P999At(MicaVariant variant, double get_fraction, double load) {
  MicaExperimentConfig config;
  config.variant = variant;
  config.get_fraction = get_fraction;
  config.load_rps = load;
  config.exec_mode = bpf::ExecMode::kNative;
  config.measure = 400 * kMillisecond;
  config.seed = 2;
  return RunMicaExperiment(config).p999_us;
}

void RunMix(double get_fraction, const char* title) {
  std::printf("# %s\n", title);
  std::printf("%10s %14s %14s %14s %14s\n", "load_rps", "sw_redirect",
              "syrup_sw", "syrup_sw_zc", "syrup_hw");
  for (double load = 250'000; load <= 3'500'000; load += 250'000) {
    std::printf("%10.0f %14.1f %14.1f %14.1f %14.1f\n", load,
                P999At(MicaVariant::kSwRedirect, get_fraction, load),
                P999At(MicaVariant::kSyrupSw, get_fraction, load),
                P999At(MicaVariant::kSyrupSwZc, get_fraction, load),
                P999At(MicaVariant::kSyrupHw, get_fraction, load));
  }
}

void Run() {
  std::printf("# Figure 9: MICA 99.9%% latency across scheduling layers\n");
  RunMix(0.5, "(a) 50% GET - 50% PUT");
  RunMix(0.95, "(b) 95% GET - 5% PUT");
  std::printf(
      "# Expected shape (paper): sw_redirect explodes at ~1.7-1.8M, "
      "syrup_sw at ~2.7-2.8M,\n"
      "# syrup_hw at ~3.2-3.3M (18%% beyond syrup_sw, 83%% beyond the "
      "original). syrup_sw_zc is\n"
      "# the Intel-82599 zero-copy XDP_DRV footnote: between syrup_sw and "
      "syrup_hw.\n");
}

}  // namespace
}  // namespace syrup

int main() {
  syrup::Run();
  return 0;
}
