// The changelog churn runner (tools/faultcli/churn.hpp) end to end: the
// default run and its crash variant are pinned field by field, and a crash
// is injected, detected and resynced at every epoch count.
#include "tools/faultcli/churn.hpp"

#include <gtest/gtest.h>

#include <cstddef>

namespace {

using namespace spider::tools;

TEST(Churn, DefaultVerdictIsPinned) {
  const ChurnVerdict v = run_churn(ChurnRunConfig{});
  EXPECT_EQ(v.epochs, 8u);
  EXPECT_EQ(v.events, 8184u);
  EXPECT_EQ(v.logical_files, 1056505856u);
  EXPECT_EQ(v.records_applied, 50720u);
  EXPECT_EQ(v.purged, 1145u);
  EXPECT_EQ(v.query_walks, 0u);
  EXPECT_EQ(v.recovery_walks, 0u);
  EXPECT_FALSE(v.crash_injected);
  EXPECT_TRUE(v.violations.empty());
  EXPECT_TRUE(v.ok);
}

TEST(Churn, DefaultCrashIsDetectedAndResynced) {
  ChurnRunConfig cfg;
  cfg.crash = true;
  const ChurnVerdict v = run_churn(cfg);
  EXPECT_TRUE(v.crash_injected);
  EXPECT_TRUE(v.crash_detected);
  EXPECT_EQ(v.recovery_walks, 2u);
  EXPECT_EQ(v.query_walks, 0u);
  EXPECT_TRUE(v.violations.empty());
  EXPECT_TRUE(v.ok);
}

// The crash lands at the middle barrier, so runs shorter than the default
// still crash (a fixed barrier 3 was never reached at 1-3 epochs, and the
// verdict failed with no violation to show why).
TEST(Churn, CrashLandsAtEveryEpochCount) {
  for (const std::size_t epochs : {1u, 2u, 3u}) {
    SCOPED_TRACE(epochs);
    ChurnRunConfig cfg;
    cfg.epochs = epochs;
    cfg.crash = true;
    const ChurnVerdict v = run_churn(cfg);
    EXPECT_EQ(v.epochs, epochs);
    EXPECT_TRUE(v.crash_injected);
    EXPECT_TRUE(v.crash_detected);
    EXPECT_EQ(v.recovery_walks, 2u);
    EXPECT_TRUE(v.violations.empty());
    EXPECT_TRUE(v.ok);
  }
}

}  // namespace
