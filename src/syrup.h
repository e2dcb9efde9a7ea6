// Umbrella header: everything a Syrup application needs.
//
//   #include "src/syrup.h"
//
// pulls in the client API (syrupd + the Table-1 calls), the policy
// abstractions, the paper's policies as policy files, the load pipeline,
// Maps, the decision constants, and the hook identifiers. Substrate
// internals (the VM, the host-stack model, schedulers, servers) have their
// own headers under src/<module>/.
#ifndef SYRUP_SRC_SYRUP_H_
#define SYRUP_SRC_SYRUP_H_

#include "src/bpf/loader.h"         // bpf::Load, for hosts without syrupd
#include "src/common/decision.h"    // kPass / kDrop / Decision
#include "src/common/status.h"      // Status / StatusOr
#include "src/core/hook.h"          // Hook enum (paper Fig. 4)
#include "src/core/policy.h"        // PacketPolicy, BytecodePacketPolicy
#include "src/core/syrup_api.h"     // SyrupClient: syr_* calls (Table 1)
#include "src/core/syrupd.h"        // Syrupd daemon
#include "src/map/map.h"            // Map / MapSpec / CreateMap
#include "src/map/registry.h"       // pinning
#include "src/policies/builtin.h"   // the paper's policies (*PolicyAsm)

#endif  // SYRUP_SRC_SYRUP_H_
