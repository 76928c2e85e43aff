#include "platform/platform.hpp"

#include <cmath>

#include "util/error.hpp"

namespace coopcr {

void PowerProfile::validate() const {
  COOPCR_CHECK(compute_watts > 0.0, "compute power draw must be positive");
  COOPCR_CHECK(io_watts > 0.0, "I/O power draw must be positive");
  COOPCR_CHECK(checkpoint_watts > 0.0,
               "checkpoint power draw must be positive");
  COOPCR_CHECK(idle_watts > 0.0, "idle power draw must be positive");
}

PowerProfile PowerProfile::cielo() {
  PowerProfile profile;
  profile.compute_watts = 218.0;  // ~3.9 MW / 17,888 units at full load
  profile.io_watts = 132.0;       // static floor + ~1/3 of dynamic compute
  profile.checkpoint_watts = 132.0;
  profile.idle_watts = 90.0;      // static floor
  return profile;
}

PowerProfile PowerProfile::prospective() {
  PowerProfile profile;
  profile.compute_watts = 260.0;  // denser future nodes
  profile.io_watts = 150.0;
  profile.checkpoint_watts = 150.0;
  profile.idle_watts = 100.0;
  return profile;
}

double PlatformSpec::memory_per_node() const {
  COOPCR_CHECK(nodes > 0, "platform has no nodes");
  return memory_bytes / static_cast<double>(nodes);
}

double PlatformSpec::system_mtbf() const {
  COOPCR_CHECK(nodes > 0, "platform has no nodes");
  COOPCR_CHECK(node_mtbf > 0.0, "platform node MTBF must be positive");
  return node_mtbf / static_cast<double>(nodes);
}

double PlatformSpec::failure_rate() const { return 1.0 / system_mtbf(); }

void PlatformSpec::validate() const {
  COOPCR_CHECK(nodes > 0, "platform '" + name + "': nodes must be positive");
  COOPCR_CHECK(cores_per_node > 0,
               "platform '" + name + "': cores_per_node must be positive");
  // Finite too: an infinite bandwidth makes every transfer take zero time,
  // so a checkpoint cycle would never move the clock.
  COOPCR_CHECK(memory_bytes > 0.0 && std::isfinite(memory_bytes),
               "platform '" + name + "': memory must be positive and finite");
  COOPCR_CHECK(pfs_bandwidth > 0.0 && std::isfinite(pfs_bandwidth),
               "platform '" + name +
                   "': PFS bandwidth must be positive and finite");
  COOPCR_CHECK(node_mtbf > 0.0 && std::isfinite(node_mtbf),
               "platform '" + name +
                   "': node MTBF must be positive and finite");
  power.validate();
}

PlatformSpec PlatformSpec::cielo() {
  PlatformSpec spec;
  spec.name = "Cielo";
  spec.nodes = 17888;  // 143,104 cores / 8-core failure units
  spec.cores_per_node = 8;
  spec.memory_bytes = units::terabytes(286);
  spec.pfs_bandwidth = units::gb_per_s(160);
  spec.node_mtbf = units::years(2);
  spec.power = PowerProfile::cielo();
  return spec;
}

PlatformSpec PlatformSpec::prospective() {
  PlatformSpec spec;
  spec.name = "Prospective";
  spec.nodes = 50000;
  spec.cores_per_node = 8;
  spec.memory_bytes = units::petabytes(7);
  spec.pfs_bandwidth = units::tb_per_s(10);
  spec.node_mtbf = units::years(10);
  spec.power = PowerProfile::prospective();
  return spec;
}

}  // namespace coopcr
