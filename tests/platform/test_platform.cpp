// Unit tests for PlatformSpec and its paper presets. The Cielo preset pins
// the paper's stated MTBF identities (node MTBF 2 y <=> system MTBF ~1 h;
// 50 y <=> ~24 h), which justify the 8-core failure-unit convention.

#include "platform/platform.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "util/error.hpp"
#include "util/units.hpp"

namespace coopcr {
namespace {

TEST(Platform, CieloPreset) {
  const PlatformSpec cielo = PlatformSpec::cielo();
  EXPECT_EQ(cielo.nodes, 17888);
  EXPECT_EQ(cielo.cores_per_node, 8);
  EXPECT_EQ(cielo.total_cores(), 143104);  // the published Cielo core count
  EXPECT_DOUBLE_EQ(cielo.memory_bytes, units::terabytes(286));
  EXPECT_DOUBLE_EQ(cielo.pfs_bandwidth, units::gb_per_s(160));
  cielo.validate();
}

TEST(Platform, CieloSystemMtbfMatchesPaperAtTwoYears) {
  // "node MTBF µ_ind of 2 years (i.e. a system MTBF of 1h)" — §6.1.
  PlatformSpec cielo = PlatformSpec::cielo();
  cielo.node_mtbf = units::years(2);
  EXPECT_NEAR(cielo.system_mtbf() / units::kHour, 1.0, 0.025);
}

TEST(Platform, CieloSystemMtbfMatchesPaperAtFiftyYears) {
  // "50 years (24h of system MTBF)" — §6.1.
  PlatformSpec cielo = PlatformSpec::cielo();
  cielo.node_mtbf = units::years(50);
  EXPECT_NEAR(cielo.system_mtbf() / units::kHour, 24.0, 0.5);
}

TEST(Platform, ProspectivePreset) {
  const PlatformSpec sys = PlatformSpec::prospective();
  EXPECT_EQ(sys.nodes, 50000);
  EXPECT_DOUBLE_EQ(sys.memory_bytes, units::petabytes(7));
  sys.validate();
}

TEST(Platform, ProspectiveMtbfMatchesPaperAtFifteenYears) {
  // "a node MTBF is at least 15 years and a system MTBF of 2.6 hours" — §6.2.
  PlatformSpec sys = PlatformSpec::prospective();
  sys.node_mtbf = units::years(15);
  EXPECT_NEAR(sys.system_mtbf() / units::kHour, 2.6, 0.05);
}

TEST(Platform, MemoryPerNode) {
  const PlatformSpec cielo = PlatformSpec::cielo();
  EXPECT_NEAR(cielo.memory_per_node(), units::terabytes(286) / 17888.0, 1.0);
}

TEST(Platform, FailureRateIsInverseMtbf) {
  const PlatformSpec cielo = PlatformSpec::cielo();
  EXPECT_DOUBLE_EQ(cielo.failure_rate(), 1.0 / cielo.system_mtbf());
}

TEST(Platform, ValidateRejectsBadSpecs) {
  PlatformSpec spec = PlatformSpec::cielo();
  spec.nodes = 0;
  EXPECT_THROW(spec.validate(), Error);
  spec = PlatformSpec::cielo();
  spec.pfs_bandwidth = 0.0;
  EXPECT_THROW(spec.validate(), Error);
  spec = PlatformSpec::cielo();
  spec.node_mtbf = -1.0;
  EXPECT_THROW(spec.validate(), Error);
  spec = PlatformSpec::cielo();
  spec.memory_bytes = 0.0;
  EXPECT_THROW(spec.validate(), Error);
  spec = PlatformSpec::cielo();
  spec.cores_per_node = 0;
  EXPECT_THROW(spec.validate(), Error);
}

TEST(Platform, ValidateRejectsNonFiniteRates) {
  // 1e300 GB/s overflows to an infinite bandwidth: every transfer would
  // take zero time.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  PlatformSpec spec = PlatformSpec::cielo();
  spec.pfs_bandwidth = units::gb_per_s(1e300);
  EXPECT_THROW(spec.validate(), Error);
  spec.pfs_bandwidth = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(spec.validate(), Error);
  spec = PlatformSpec::cielo();
  spec.node_mtbf = kInf;
  EXPECT_THROW(spec.validate(), Error);
  spec = PlatformSpec::cielo();
  spec.memory_bytes = kInf;
  EXPECT_THROW(spec.validate(), Error);
  spec = PlatformSpec::cielo();
  spec.pfs_bandwidth = units::gb_per_s(1e12);  // huge but finite
  EXPECT_NO_THROW(spec.validate());
}

}  // namespace
}  // namespace coopcr
