// Sim <-> native differential validation on the host itself: the nice case
// renices real threads and times them, and the cgroup case creates and
// removes lachesis_diff_* cgroups under /sys/fs/cgroup when that is
// writable. So the binary is labeled `host`, not tier1, and
// ci/run_native_smoke.sh runs it. Both modes skip gracefully (GTEST_SKIP
// with the harness's message) on hosts where the required OS control
// surface is unavailable -- no privileges are ever needed: nice mode only
// raises each worker's own nice, and cgroup mode detects an unwritable
// cgroupfs and reports why it skipped.
#include <gtest/gtest.h>

#include "src/conformance/differential.h"

namespace lachesis::conformance {
namespace {

DiffConfig ShortConfig() {
  DiffConfig config;
  config.wall_ms = 300;
  return config;
}

TEST(ConformanceDifferential, NiceRatiosMatchSimulator) {
  const DiffResult result = RunNiceDifferential({0, 5, 10}, ShortConfig());
  if (result.status == DiffStatus::kSkipped) {
    GTEST_SKIP() << result.message;
  }
  EXPECT_EQ(result.status, DiffStatus::kAgree) << result.message;
  ASSERT_EQ(result.shares.size(), 3u);
  // Sanity on the simulated side regardless of native noise: lower nice
  // must mean a strictly larger share.
  EXPECT_GT(result.shares[0].sim_fraction, result.shares[1].sim_fraction);
  EXPECT_GT(result.shares[1].sim_fraction, result.shares[2].sim_fraction);
}

TEST(ConformanceDifferential, CgroupShareRatiosMatchSimulator) {
  const DiffResult result = RunSharesDifferential({1024, 4096}, ShortConfig());
  if (result.status == DiffStatus::kSkipped) {
    GTEST_SKIP() << result.message;
  }
  EXPECT_EQ(result.status, DiffStatus::kAgree) << result.message;
  ASSERT_EQ(result.shares.size(), 2u);
  EXPECT_LT(result.shares[0].sim_fraction, result.shares[1].sim_fraction);
}

}  // namespace
}  // namespace lachesis::conformance
