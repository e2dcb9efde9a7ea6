// The Syrup application API (paper Table 1).
//
// A SyrupClient is an application's connection to syrupd (over a Unix
// domain socket in the paper; a direct call here). The primary surface is
// typed and RAII (src/core/handles.h):
//
//   DeployPolicy(policy_file, hook) -> PolicyHandle  (detaches on drop)
//   MapCreate(spec, pin_path)       -> MapHandle     (closes on drop)
//   MapOpen(path, access)           -> MapHandle
//
// The paper-named shims map 1:1 to Table 1 and delegate to the typed
// surface, releasing ownership so raw-fd callers keep the manual
// lifecycle the paper describes:
//
//   syr_deploy_policy(policy_file, hook) -> prog_fd
//   syr_map_open(path)                   -> map_fd
//   syr_map_close(map_fd)                -> status
//   syr_map_lookup_elem(map_fd, key)     -> value
//   syr_map_update_elem(map_fd, key, v)  -> status
#ifndef SYRUP_SRC_CORE_SYRUP_API_H_
#define SYRUP_SRC_CORE_SYRUP_API_H_

#include <string>
#include <string_view>
#include <utility>

#include "src/core/handles.h"
#include "src/core/syrupd.h"

namespace syrup {

class SyrupClient {
 public:
  SyrupClient(Syrupd& daemon, AppId app) : daemon_(daemon), app_(app) {}

  AppId app() const { return app_; }
  Syrupd& daemon() { return daemon_; }

  // --- Typed surface ------------------------------------------------------

  // Deploys the policy in `policy_file` (VM assembly text) to `hook`. The
  // returned handle owns the deployment: dropping it detaches the policy
  // (unless a later deploy already replaced it).
  StatusOr<PolicyHandle> DeployPolicy(std::string_view policy_file,
                                      Hook hook) {
    SYRUP_ASSIGN_OR_RETURN(int prog_id,
                           daemon_.DeployPolicyFile(app_, policy_file, hook));
    return PolicyHandle(&daemon_, app_, hook, prog_id);
  }

  // Creates a map pinned at `pin_path`, owned by this app.
  StatusOr<MapHandle> MapCreate(const MapSpec& spec,
                                const std::string& pin_path,
                                PinMode mode = {}) {
    SYRUP_ASSIGN_OR_RETURN(int fd,
                           daemon_.MapCreate(app_, spec, pin_path, mode));
    return MapHandle(&daemon_, fd, MapAccess::kWrite, pin_path);
  }

  // Opens an existing pinned map; the handle remembers the access mode and
  // the daemon rejects writes through read-only fds.
  StatusOr<MapHandle> MapOpen(const std::string& path,
                              MapAccess access = MapAccess::kWrite) {
    SYRUP_ASSIGN_OR_RETURN(int fd, daemon_.MapOpen(app_, path, access));
    return MapHandle(&daemon_, fd, access, path);
  }

  // --- Paper-named shims (Table 1) ----------------------------------------

  StatusOr<int> syr_deploy_policy(std::string_view policy_file, Hook hook) {
    SYRUP_ASSIGN_OR_RETURN(PolicyHandle handle,
                           DeployPolicy(policy_file, hook));
    return handle.Release();
  }

  StatusOr<int> syr_map_open(const std::string& path) {
    SYRUP_ASSIGN_OR_RETURN(MapHandle handle, MapOpen(path));
    return handle.Release();
  }

  Status syr_map_close(int map_fd) { return daemon_.MapClose(map_fd); }

  StatusOr<uint64_t> syr_map_lookup_elem(int map_fd, uint32_t key) {
    return daemon_.MapLookupElem(map_fd, key);
  }

  Status syr_map_update_elem(int map_fd, uint32_t key, uint64_t value) {
    return daemon_.MapUpdateElem(map_fd, key, value);
  }

 private:
  Syrupd& daemon_;
  AppId app_;
};

}  // namespace syrup

#endif  // SYRUP_SRC_CORE_SYRUP_API_H_
