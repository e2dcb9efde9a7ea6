// The literal root-dispatcher program (paper §4.3), kept as a test oracle.
//
// syrupd's isolation design loads one root program at each hook. The root
// program parses the packet's destination port, looks the port up in a hash
// map, and tail-calls into a PROG_ARRAY slot holding that application's
// policy. This header builds that exact program for the Syrup VM. The
// product path is Syrupd::DispatchBatch, a native implementation of the
// same routing; dispatch_batch_test runs both over random bursts and
// requires the same decisions, and syrupd_test covers the routes' typed
// handles.
//
// Routes follow the same typed-handle pattern as MapHandle/PolicyHandle:
// AddRoute returns a RouteHandle that withdraws the route when it goes out
// of scope, conditionally — a stale handle never tears down a route that
// was re-pointed at a different program.
#ifndef SYRUP_TESTS_ORACLES_ROOT_DISPATCHER_H_
#define SYRUP_TESTS_ORACLES_ROOT_DISPATCHER_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "src/bpf/assembler.h"
#include "src/bpf/program.h"
#include "src/bpf/verifier.h"
#include "src/common/decision.h"
#include "src/common/logging.h"
#include "src/common/status.h"
#include "src/map/prog_array.h"
#include "src/net/packet.h"
#include "tests/oracles/interpreter.h"

namespace syrup {

class RouteHandle;

struct RootDispatcher {
  std::shared_ptr<bpf::Program> program;
  // dst port (2 raw wire bytes as the key) -> prog array index.
  std::shared_ptr<Map> port_map;
  // prog array index -> program id.
  std::shared_ptr<ProgArrayMap> prog_array;

  // Routes `port` to prog array slot `index` holding program `prog_id`.
  // The returned handle owns the route: keep it alive for as long as the
  // route should exist, or Release() it for a permanent route.
  StatusOr<RouteHandle> AddRoute(uint16_t port, uint32_t index,
                                 uint64_t prog_id);

  // Withdraws `port`'s route. Conditional like PolicyHandle's detach: with
  // `only_prog_id` >= 0 the route is only removed while slot `index` still
  // holds that program, so a stale handle never removes a newer route.
  Status RemoveRoute(uint16_t port, uint32_t index,
                     int64_t only_prog_id = -1);

  // Runs the literal dispatcher over a burst of packets — the VM mirror of
  // Syrupd::DispatchBatch (one decision per view, in order). Stops on the
  // first VM error.
  Status DispatchBatch(bpf::Interpreter& interp,
                       std::span<const PacketView> pkts,
                       std::span<Decision> out) const;
};

// Owns one dispatcher route. Move-only; withdraws the route on destruction
// unless released (the MapHandle/PolicyHandle pattern).
class RouteHandle {
 public:
  RouteHandle() = default;
  RouteHandle(RootDispatcher* dispatcher, uint16_t port, uint32_t index,
              uint64_t prog_id)
      : dispatcher_(dispatcher), port_(port), index_(index),
        prog_id_(prog_id) {}

  ~RouteHandle() { Reset(); }

  RouteHandle(const RouteHandle&) = delete;
  RouteHandle& operator=(const RouteHandle&) = delete;

  RouteHandle(RouteHandle&& other) noexcept { *this = std::move(other); }
  RouteHandle& operator=(RouteHandle&& other) noexcept {
    if (this != &other) {
      Reset();
      dispatcher_ = other.dispatcher_;
      port_ = other.port_;
      index_ = other.index_;
      prog_id_ = other.prog_id_;
      other.dispatcher_ = nullptr;
    }
    return *this;
  }

  bool valid() const { return dispatcher_ != nullptr; }
  explicit operator bool() const { return valid(); }

  uint16_t port() const { return port_; }
  uint32_t index() const { return index_; }
  uint64_t prog_id() const { return prog_id_; }

  // Withdraws now (idempotent). NotFound means the route was already gone;
  // treated as success.
  Status Remove() {
    if (!valid()) {
      return OkStatus();
    }
    Status s = dispatcher_->RemoveRoute(port_, index_,
                                        static_cast<int64_t>(prog_id_));
    dispatcher_ = nullptr;
    return s.code() == StatusCode::kNotFound ? OkStatus() : s;
  }

  // Gives up ownership: the route outlives the handle.
  void Release() { dispatcher_ = nullptr; }

 private:
  void Reset() {
    if (valid()) {
      (void)dispatcher_->RemoveRoute(port_, index_,
                                     static_cast<int64_t>(prog_id_));
    }
    dispatcher_ = nullptr;
  }

  RootDispatcher* dispatcher_ = nullptr;
  uint16_t port_ = 0;
  uint32_t index_ = 0;
  uint64_t prog_id_ = 0;
};

// r1 = pkt_start, r2 = pkt_end. The dst-port field sits at bytes [2, 4).
// The port is used in raw wire byte order both here and in AddRoute, so no
// byte swap is needed for the map key.
inline constexpr char kRootDispatcherAsm[] = R"(
.name root_dispatcher
.ctx packet
.map port_map hash 2 4 1024
.map prog_array prog_array 4 8 %MAX_APPS%
  mov r3, r1
  add r3, 4
  jgt r3, r2, pass          ; runt packet: no port to match
  ldxh r4, [r1+2]           ; dst port, raw wire order
  stxh [r10-2], r4
  ldmapfd r1, port_map
  mov r2, r10
  add r2, -2
  call map_lookup_elem
  jeq r0, 0, pass           ; no app owns this port
  ldxw r3, [r0+0]           ; prog array index
  mov r1, 0                 ; ctx (unused by tail_call)
  ldmapfd r2, prog_array
  call tail_call
  ; tail_call returns only on a miss (empty slot): fall through to PASS.
pass:
  mov r0, PASS
  exit
)";

// Assembles and verifies the dispatcher. `max_apps` bounds the prog array.
inline StatusOr<RootDispatcher> BuildRootDispatcher(uint32_t max_apps = 64) {
  std::string source = kRootDispatcherAsm;
  const std::string placeholder = "%MAX_APPS%";
  const size_t at = source.find(placeholder);
  SYRUP_CHECK_NE(at, std::string::npos);
  source.replace(at, placeholder.size(), std::to_string(max_apps));

  SYRUP_ASSIGN_OR_RETURN(bpf::AssembledProgram assembled,
                         bpf::Assemble(source));

  RootDispatcher dispatcher;
  dispatcher.program = std::make_shared<bpf::Program>();
  dispatcher.program->name = assembled.name;
  dispatcher.program->insns = std::move(assembled.insns);
  for (const bpf::MapSlot& slot : assembled.map_slots) {
    SYRUP_ASSIGN_OR_RETURN(std::shared_ptr<Map> map, CreateMap(slot.spec));
    if (slot.name == "port_map") {
      dispatcher.port_map = map;
    } else if (slot.name == "prog_array") {
      dispatcher.prog_array = std::static_pointer_cast<ProgArrayMap>(map);
    }
    dispatcher.program->maps.push_back(std::move(map));
  }
  SYRUP_RETURN_IF_ERROR(
      bpf::Verify(*dispatcher.program, bpf::ProgramContext::kPacket));
  return dispatcher;
}

inline StatusOr<RouteHandle> RootDispatcher::AddRoute(uint16_t port,
                                                      uint32_t index,
                                                      uint64_t prog_id) {
  if (port_map == nullptr || prog_array == nullptr) {
    return FailedPreconditionError("dispatcher not built");
  }
  const uint16_t wire_port = __builtin_bswap16(port);  // raw wire order
  SYRUP_RETURN_IF_ERROR(
      port_map->Update(&wire_port, &index, UpdateFlag::kAny));
  uint32_t key = index;
  uint64_t value = prog_id;
  SYRUP_RETURN_IF_ERROR(prog_array->Update(&key, &value, UpdateFlag::kAny));
  return RouteHandle(this, port, index, prog_id);
}

inline Status RootDispatcher::RemoveRoute(uint16_t port, uint32_t index,
                                          int64_t only_prog_id) {
  if (port_map == nullptr || prog_array == nullptr) {
    return FailedPreconditionError("dispatcher not built");
  }
  const uint16_t wire_port = __builtin_bswap16(port);
  const void* routed = port_map->Lookup(&wire_port);
  if (routed == nullptr) {
    return NotFoundError("no route for port");
  }
  uint32_t routed_index;
  std::memcpy(&routed_index, routed, sizeof(routed_index));
  if (routed_index != index) {
    // The port was re-pointed at another slot: this route is already gone.
    return NotFoundError("route re-pointed");
  }
  if (only_prog_id >= 0) {
    uint32_t key = index;
    const void* slot = prog_array->Lookup(&key);
    uint64_t slot_prog = 0;
    if (slot != nullptr) {
      std::memcpy(&slot_prog, slot, sizeof(slot_prog));
    }
    if (slot_prog != static_cast<uint64_t>(only_prog_id)) {
      return NotFoundError("slot holds a different program");
    }
  }
  SYRUP_RETURN_IF_ERROR(port_map->Delete(&wire_port));
  uint32_t key = index;
  return prog_array->Delete(&key);
}

inline Status RootDispatcher::DispatchBatch(bpf::Interpreter& interp,
                                            std::span<const PacketView> pkts,
                                            std::span<Decision> out) const {
  if (program == nullptr) {
    return FailedPreconditionError("dispatcher not built");
  }
  if (pkts.size() != out.size()) {
    return InvalidArgumentError("pkts/out size mismatch");
  }
  for (size_t i = 0; i < pkts.size(); ++i) {
    SYRUP_ASSIGN_OR_RETURN(
        bpf::ExecResult result,
        interp.Run(*program, reinterpret_cast<uint64_t>(pkts[i].start),
                   reinterpret_cast<uint64_t>(pkts[i].end),
                   /*args_are_packet=*/true));
    out[i] = static_cast<Decision>(result.r0);
  }
  return OkStatus();
}

}  // namespace syrup

#endif  // SYRUP_TESTS_ORACLES_ROOT_DISPATCHER_H_
