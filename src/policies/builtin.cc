#include "src/policies/builtin.h"

#include "src/map/map.h"

namespace syrup {
namespace {

// Replaces every occurrence of `key` in `text` with `value`.
std::string Substitute(std::string text, const std::string& key,
                       const std::string& value) {
  size_t at = 0;
  while ((at = text.find(key, at)) != std::string::npos) {
    text.replace(at, key.size(), value);
    at += value.size();
  }
  return text;
}

std::string WithN(const char* tmpl, uint32_t n) {
  return Substitute(tmpl, "%N%", std::to_string(n));
}

}  // namespace

std::string RoundRobinPolicyAsm(uint32_t num_executors) {
  // State lives in a single-slot array map (the VM has no globals); the
  // load-increment-store is deliberately non-atomic, as in Fig. 5a.
  constexpr char kTemplate[] = R"(
.name round_robin
.ctx packet
.map rr_state array 4 8 1
  mov r6, 0
  stxw [r10-4], r6
  ldmapfd r1, rr_state
  mov r2, r10
  add r2, -4
  call map_lookup_elem
  jne r0, 0, have
  mov r0, PASS
  exit
have:
  ldxdw r6, [r0+0]
  add r6, 1
  stxdw [r0+0], r6
  mod r6, %N%
  mov r0, r6
  exit
)";
  return WithN(kTemplate, num_executors);
}

std::string HashPolicyAsm(uint32_t num_executors) {
  constexpr char kTemplate[] = R"(
.name hash
.ctx packet
  mov r3, r1
  add r3, 4
  jgt r3, r2, pass
  ldxw r4, [r1+0]
  mul r4, 2654435761
  and r4, 0xFFFFFFFF
  rsh r4, 16
  mod r4, %N%
  mov r0, r4
  exit
pass:
  mov r0, PASS
  exit
)";
  return WithN(kTemplate, num_executors);
}

std::string ScanAvoidPolicyAsm(uint32_t num_executors) {
  constexpr char kTemplate[] = R"(
.name scan_avoid
.ctx packet
.map scan_map array 4 8 %N%
  mov r6, 0              ; i
  mov r7, 0              ; cur_idx
loop:
  jge r6, %N%, done
  call get_prandom_u32
  mov r7, r0
  mod r7, %N%
  stxw [r10-4], r7
  ldmapfd r1, scan_map
  mov r2, r10
  add r2, -4
  call map_lookup_elem
  jne r0, 0, check
  mov r0, PASS
  exit
check:
  ldxdw r8, [r0+0]
  jeq r8, 1, done        ; 1 == GET: stop at a non-SCAN socket
  add r6, 1
  ja loop
done:
  mov r0, r7
  exit
)";
  return WithN(kTemplate, num_executors);
}

std::string SitaPolicyAsm(uint32_t num_executors) {
  constexpr char kTemplate[] = R"(
.name sita
.ctx packet
.map sita_state array 4 8 1
  mov r3, r1
  add r3, 16
  jgt r3, r2, pass       ; bound check before peeking into the payload
  ldxdw r4, [r1+8]       ; first 8 bytes are the UDP header
  jne r4, 2, get         ; 2 == SCAN
  mov r0, 0              ; SCANs steered to socket 0
  exit
get:
  mov r6, 0
  stxw [r10-4], r6
  ldmapfd r1, sita_state
  mov r2, r10
  add r2, -4
  call map_lookup_elem
  jeq r0, 0, pass
  ldxdw r6, [r0+0]
  add r6, 1
  stxdw [r0+0], r6
  mod r6, %NM1%
  add r6, 1
  mov r0, r6
  exit
pass:
  mov r0, PASS
  exit
)";
  std::string source = WithN(kTemplate, num_executors);
  return Substitute(source, "%NM1%", std::to_string(num_executors - 1));
}

std::string TokenPolicyAsm() {
  // §3.4's example verbatim: parse user id, look up the token bucket,
  // DROP at zero, otherwise consume one token atomically and PASS.
  return R"(
.name token
.ctx packet
.map token_map hash 4 8 64
  mov r3, r1
  add r3, 20
  jgt r3, r2, pass
  ldxw r4, [r1+16]
  stxw [r10-4], r4
  ldmapfd r1, token_map
  mov r2, r10
  add r2, -4
  call map_lookup_elem
  jeq r0, 0, pass
  ldxdw r5, [r0+0]
  jeq r5, 0, drop
  mov r6, -1
  xadddw [r0+0], r6
  mov r0, PASS
  exit
drop:
  mov r0, DROP
  exit
pass:
  mov r0, PASS
  exit
)";
}

std::string TokenRoundRobinPolicyAsm(uint32_t num_executors) {
  constexpr char kTemplate[] = R"(
.name token_round_robin
.ctx packet
.map token_map hash 4 8 64
.map rr_state array 4 8 1
  mov r3, r1
  add r3, 20
  jgt r3, r2, rr         ; short packet: round robin
  ldxw r4, [r1+16]
  stxw [r10-4], r4
  ldmapfd r1, token_map
  mov r2, r10
  add r2, -4
  call map_lookup_elem
  jeq r0, 0, rr          ; unregistered user: round robin
  ldxdw r5, [r0+0]
  jeq r5, 0, drop
  mov r6, -1
  xadddw [r0+0], r6
rr:
  mov r6, 0
  stxw [r10-8], r6
  ldmapfd r1, rr_state
  mov r2, r10
  add r2, -8
  call map_lookup_elem
  jne r0, 0, have
  mov r0, PASS
  exit
have:
  ldxdw r6, [r0+0]
  add r6, 1
  stxdw [r0+0], r6
  mod r6, %N%
  mov r0, r6
  exit
drop:
  mov r0, DROP
  exit
)";
  return WithN(kTemplate, num_executors);
}

std::string LeastLoadedPolicyAsm(uint32_t num_executors,
                                 const std::string& load_map_path) {
  // Batch variant: one map_lookup_batch call reads every load register,
  // then an unrolled scan picks the minimum from the copied-out values on
  // the stack. The verifier demands a constant batch count, so the scan is
  // generated unrolled per executor; fleets above kMaxLookupBatch fall
  // back to the per-key loop below.
  if (num_executors >= 1 && num_executors <= Map::kMaxLookupBatch) {
    const uint32_t n = num_executors;
    // Stack frame: out values at [r10-256, r10-256+8n), keys below them at
    // [r10-(256+4n), r10-256).
    const int out_base = -256;
    const int key_base = out_base - static_cast<int>(4 * n);
    std::string s;
    s += ".name least_loaded\n.ctx packet\n.extern_map load ";
    s += load_map_path;
    s += "\n";
    for (uint32_t i = 0; i < n; ++i) {
      s += "  stw [r10" + std::to_string(key_base + static_cast<int>(4 * i)) +
           "], " + std::to_string(i) + "\n";
    }
    s += "  ldmapfd r1, load\n";
    s += "  mov r2, r10\n  add r2, " + std::to_string(key_base) + "\n";
    s += "  mov r3, r10\n  add r3, " + std::to_string(out_base) + "\n";
    s += "  mov r4, " + std::to_string(n) + "\n";
    s += "  call map_lookup_batch\n";
    // All registers present iff the hit bitmap is full; any miss defers to
    // the default policy, as the per-key loop does.
    s += "  mov r1, 1\n  lsh r1, " + std::to_string(n) + "\n  sub r1, 1\n";
    s += "  jeq r0, r1, have_all\n  mov r0, PASS\n  exit\nhave_all:\n";
    // Two passes over the copied-out values (stable: they're a private
    // stack snapshot). Pass 1 folds only the minimum VALUE — after the
    // first load both branch arms leave r8 unknown, so the verifier's
    // pruning collapses the states and exploration stays linear. A
    // single-pass scan tracking (index, value) pairs never merges and
    // explodes to 2^n paths.
    auto out_at = [&](uint32_t i) {
      return "[r10" + std::to_string(out_base + static_cast<int>(8 * i)) +
             "]";
    };
    s += "  ldxdw r8, " + out_at(0) + "\n";
    for (uint32_t i = 1; i < n; ++i) {
      const std::string skip = "skip" + std::to_string(i);
      s += "  ldxdw r9, " + out_at(i) + "\n";
      s += "  jle r8, r9, " + skip + "\n";
      s += "  mov r8, r9\n";
      s += skip + ":\n";
    }
    // Pass 2: first index holding the minimum (ties toward the lowest
    // index). Each miss falls through with an unchanged state; each hit
    // exits directly.
    for (uint32_t i = 0; i + 1 < n; ++i) {
      const std::string next = "next" + std::to_string(i);
      s += "  ldxdw r9, " + out_at(i) + "\n";
      s += "  jne r9, r8, " + next + "\n";
      s += "  mov r0, " + std::to_string(i) + "\n  exit\n";
      s += next + ":\n";
    }
    s += "  mov r0, " + std::to_string(n - 1) + "\n  exit\n";
    return s;
  }
  constexpr char kTemplate[] = R"(
.name least_loaded
.ctx packet
.extern_map load %PATH%
  mov r6, 0          ; i
  mov r7, 0          ; best index
  mov r8, -1         ; best load (u64 max)
loop:
  jge r6, %N%, done
  stxw [r10-4], r6
  ldmapfd r1, load
  mov r2, r10
  add r2, -4
  call map_lookup_elem
  jne r0, 0, have
  mov r0, PASS       ; register missing: defer to the default policy
  exit
have:
  ldxdw r9, [r0+0]
  jge r9, r8, next
  mov r8, r9
  mov r7, r6
next:
  add r6, 1
  ja loop
done:
  mov r0, r7
  exit
)";
  std::string source = WithN(kTemplate, num_executors);
  return Substitute(source, "%PATH%", load_map_path);
}

std::string PowerOfTwoPolicyAsm(uint32_t num_executors,
                                const std::string& load_map_path) {
  // Both candidates' loads come back from one map_lookup_batch call (keys
  // packed at [r10-24, r10-16), values copied out to [r10-16, r10)); a
  // full hit bitmap (3) is required, any miss defers to the default.
  constexpr char kTemplate[] = R"(
.name power_of_two
.ctx packet
.extern_map load %PATH%
  call get_prandom_u32
  mov r6, r0
  mod r6, %N%          ; candidate a
  call get_prandom_u32
  mov r7, r0
  mod r7, %N%          ; candidate b
  stxw [r10-24], r6
  stxw [r10-20], r7
  ldmapfd r1, load
  mov r2, r10
  add r2, -24
  mov r3, r10
  add r3, -16
  mov r4, 2
  call map_lookup_batch
  jne r0, 3, pass
  ldxdw r8, [r10-16]   ; load of a
  ldxdw r9, [r10-8]    ; load of b
  jlt r9, r8, pick_b
  mov r0, r6
  exit
pick_b:
  mov r0, r7
  exit
pass:
  mov r0, PASS
  exit
)";
  std::string source = WithN(kTemplate, num_executors);
  return Substitute(source, "%PATH%", load_map_path);
}

std::string ConstIndexPolicyAsm(Decision index) {
  constexpr char kTemplate[] = R"(
.name const_index
.ctx packet
  mov r0, %N%
  exit
)";
  return WithN(kTemplate, index);
}

std::string GetPriorityThreadPolicyAsm(
    const std::string& thread_type_map_path) {
  constexpr char kTemplate[] = R"(
.name get_priority
.ctx thread
.extern_map thread_types %PATH%
  stxw [r10-4], r1       ; key = tid
  ldmapfd r1, thread_types
  mov r2, r10
  add r2, -4
  call map_lookup_elem
  jne r0, 0, found
  mov r0, 1              ; unclassified threads treated as GET
  exit
found:
  ldxdw r0, [r0+0]
  exit
)";
  return Substitute(kTemplate, "%PATH%", thread_type_map_path);
}

std::string MicaHomePolicyAsm(uint32_t num_executors) {
  constexpr char kTemplate[] = R"(
.name mica_home
.ctx packet
  mov r3, r1
  add r3, 24
  jgt r3, r2, pass
  ldxw r4, [r1+20]
  mod r4, %N%
  mov r0, r4
  exit
pass:
  mov r0, PASS
  exit
)";
  return WithN(kTemplate, num_executors);
}

std::string VarHeaderPolicyAsm(uint32_t num_executors) {
  constexpr char kTemplate[] = R"(
.name var_header
.ctx packet
  mov r3, r1
  add r3, 40
  jgt r3, r2, pass       ; need the whole 40-byte header area
  ldxb r4, [r1+5]        ; option length byte
  and r4, 31             ; verifier: r4 in [0, 31]
  mov r5, r1
  add r5, r4             ; variable-offset cursor into the header
  ldxw r6, [r5+4]        ; key at [len+4, len+8) -- max byte 39, proven
  mod r6, %N%
  mov r0, r6
  exit
pass:
  mov r0, PASS
  exit
)";
  return WithN(kTemplate, num_executors);
}

}  // namespace syrup
