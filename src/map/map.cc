#include "src/map/map.h"

#include <atomic>

#include "src/common/logging.h"
#include "src/map/array_map.h"
#include "src/map/hash_map.h"
#include "src/map/prog_array.h"

namespace syrup {

void Map::NoteBucketClamp(uint64_t clamped_to) {
  counters_.bucket_clamp->IncAtomic();
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true, std::memory_order_relaxed)) {
    SYRUP_LOG(Warning) << "hash map '" << spec_.name << "' ("
                       << spec_.max_entries
                       << " max_entries) exceeds the table clamp; sized at "
                       << clamped_to
                       << " slots — expect longer probes under load "
                          "(map.bucket_clamp counts affected maps)";
  }
}

std::string_view MapTypeName(MapType type) {
  switch (type) {
    case MapType::kArray:
      return "array";
    case MapType::kHash:
      return "hash";
    case MapType::kProgArray:
      return "prog_array";
    case MapType::kPerCpuArray:
      return "percpu_array";
  }
  return "?";
}

StatusOr<std::shared_ptr<Map>> CreateMap(const MapSpec& spec) {
  if (spec.max_entries == 0) {
    return InvalidArgumentError("map max_entries must be > 0");
  }
  if (spec.key_size == 0 || spec.value_size == 0) {
    return InvalidArgumentError("map key/value sizes must be > 0");
  }
  switch (spec.type) {
    case MapType::kArray:
      if (spec.key_size != sizeof(uint32_t)) {
        return InvalidArgumentError("array map keys must be u32");
      }
      return std::shared_ptr<Map>(std::make_shared<ArrayMap>(spec));
    case MapType::kHash:
      return std::shared_ptr<Map>(std::make_shared<HashMap>(spec));
    case MapType::kProgArray:
      if (spec.key_size != sizeof(uint32_t) ||
          spec.value_size != sizeof(uint64_t)) {
        return InvalidArgumentError("prog array maps must be u32->u64");
      }
      return std::shared_ptr<Map>(std::make_shared<ProgArrayMap>(spec));
    case MapType::kPerCpuArray:
      if (spec.key_size != sizeof(uint32_t)) {
        return InvalidArgumentError("percpu array map keys must be u32");
      }
      return std::shared_ptr<Map>(std::make_shared<PerCpuArrayMap>(spec));
  }
  return InvalidArgumentError("unknown map type");
}

}  // namespace syrup
