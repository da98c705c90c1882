// Unit and property tests for proportional distribution with min-funding
// revocation.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "src/cluster/socket_stack.h"
#include "src/common/rng.h"
#include "src/experiments/scenarios.h"
#include "src/platform/platform_spec.h"
#include "src/policy/min_funding.h"

namespace papd {
namespace {

double Sum(const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); }

TEST(DistributeProportional, EmptyInput) {
  EXPECT_TRUE(DistributeProportional(10.0, {}).empty());
}

TEST(DistributeProportional, UnconstrainedSplitFollowsShares) {
  const std::vector<ShareRequest> req = {
      {.shares = 3.0, .minimum = 0.0, .maximum = 100.0},
      {.shares = 1.0, .minimum = 0.0, .maximum = 100.0},
  };
  const auto alloc = DistributeProportional(40.0, req);
  EXPECT_NEAR(alloc[0], 30.0, 1e-9);
  EXPECT_NEAR(alloc[1], 10.0, 1e-9);
}

TEST(DistributeProportional, BelowMinimumsGivesMinimums) {
  const std::vector<ShareRequest> req = {
      {.shares = 1.0, .minimum = 5.0, .maximum = 100.0},
      {.shares = 1.0, .minimum = 5.0, .maximum = 100.0},
  };
  const auto alloc = DistributeProportional(3.0, req);
  EXPECT_DOUBLE_EQ(alloc[0], 5.0);
  EXPECT_DOUBLE_EQ(alloc[1], 5.0);
}

TEST(DistributeProportional, AboveMaximumsGivesMaximums) {
  const std::vector<ShareRequest> req = {
      {.shares = 1.0, .minimum = 0.0, .maximum = 7.0},
      {.shares = 9.0, .minimum = 0.0, .maximum = 8.0},
  };
  const auto alloc = DistributeProportional(100.0, req);
  EXPECT_DOUBLE_EQ(alloc[0], 7.0);
  EXPECT_DOUBLE_EQ(alloc[1], 8.0);
}

TEST(DistributeProportional, RevocationSpillsToUnsaturated) {
  // The 9:1 split would give app0 36, above its max of 20; the excess goes
  // to app1.
  const std::vector<ShareRequest> req = {
      {.shares = 9.0, .minimum = 0.0, .maximum = 20.0},
      {.shares = 1.0, .minimum = 0.0, .maximum = 100.0},
  };
  const auto alloc = DistributeProportional(40.0, req);
  EXPECT_DOUBLE_EQ(alloc[0], 20.0);
  EXPECT_NEAR(alloc[1], 20.0, 1e-9);
}

TEST(DistributeProportional, MinimumFloorBreaksPureProportionality) {
  // Paper Section 5.2: a 99:1 ratio cannot be honored — the low-share app
  // holds its minimum, i.e. more than its proportional share.
  const std::vector<ShareRequest> req = {
      {.shares = 99.0, .minimum = 8.0, .maximum = 30.0},
      {.shares = 1.0, .minimum = 8.0, .maximum = 30.0},
  };
  const auto alloc = DistributeProportional(24.0, req);
  EXPECT_NEAR(Sum(alloc), 24.0, 1e-6);
  EXPECT_GE(alloc[1], 8.0);
  EXPECT_GT(alloc[1] / Sum(alloc), 0.01);  // Far above 1%.
}

// --- Degenerate inputs the budget tree feeds the distributor ----------------

TEST(DistributeProportional, AllZeroSharesWithMinimumsGetMinimums) {
  // A subtree whose children all carry zero shares (e.g. drained racks)
  // still gets its guaranteed floors — nothing proportional to hand out.
  const std::vector<ShareRequest> req = {
      {.shares = 0.0, .minimum = 12.0, .maximum = 50.0},
      {.shares = 0.0, .minimum = 8.0, .maximum = 40.0},
      {.shares = 0.0, .minimum = 0.0, .maximum = 30.0},
  };
  const auto alloc = DistributeProportional(100.0, req);
  EXPECT_DOUBLE_EQ(alloc[0], 12.0);
  EXPECT_DOUBLE_EQ(alloc[1], 8.0);
  EXPECT_DOUBLE_EQ(alloc[2], 0.0);
}

TEST(DistributeProportional, SingleEntryClampsToOwnBounds) {
  // Single-child interior nodes are common in degenerate trees; the split
  // reduces to a clamp.
  const std::vector<ShareRequest> req = {{.shares = 2.0, .minimum = 10.0, .maximum = 35.0}};
  EXPECT_DOUBLE_EQ(DistributeProportional(5.0, req)[0], 10.0);   // Below the floor.
  EXPECT_DOUBLE_EQ(DistributeProportional(20.0, req)[0], 20.0);  // In range.
  EXPECT_DOUBLE_EQ(DistributeProportional(90.0, req)[0], 35.0);  // Above the ceiling.
}

TEST(DistributeProportional, TotalExactlyAtMinSumPinsEveryEntry) {
  const std::vector<ShareRequest> req = {
      {.shares = 5.0, .minimum = 4.0, .maximum = 20.0},
      {.shares = 1.0, .minimum = 6.0, .maximum = 20.0},
  };
  const auto alloc = DistributeProportional(10.0, req);  // == min_sum.
  EXPECT_DOUBLE_EQ(alloc[0], 4.0);
  EXPECT_DOUBLE_EQ(alloc[1], 6.0);
}

TEST(DistributeProportional, TotalExactlyAtMaxSumSaturatesEveryEntry) {
  const std::vector<ShareRequest> req = {
      {.shares = 1.0, .minimum = 0.0, .maximum = 15.0},
      {.shares = 7.0, .minimum = 2.0, .maximum = 25.0},
  };
  const auto alloc = DistributeProportional(40.0, req);  // == max_sum.
  EXPECT_DOUBLE_EQ(alloc[0], 15.0);
  EXPECT_DOUBLE_EQ(alloc[1], 25.0);
}

TEST(DistributeProportional, ZeroSharesMixedWithPositiveSharesHoldMinimums) {
  // Zero-share entries are pinned at their floor; the shared remainder goes
  // to the positive-share entries only.
  const std::vector<ShareRequest> req = {
      {.shares = 0.0, .minimum = 5.0, .maximum = 50.0},
      {.shares = 1.0, .minimum = 0.0, .maximum = 50.0},
      {.shares = 1.0, .minimum = 0.0, .maximum = 50.0},
  };
  const auto alloc = DistributeProportional(25.0, req);
  EXPECT_DOUBLE_EQ(alloc[0], 5.0);
  EXPECT_NEAR(alloc[1], 10.0, 1e-9);
  EXPECT_NEAR(alloc[2], 10.0, 1e-9);
  EXPECT_NEAR(Sum(alloc), 25.0, 1e-9);
}

TEST(DistributeDelta, PositiveDeltaProportional) {
  const std::vector<ShareRequest> req = {
      {.shares = 3.0, .minimum = 0.0, .maximum = 100.0},
      {.shares = 1.0, .minimum = 0.0, .maximum = 100.0},
  };
  const auto alloc = DistributeDelta(8.0, {10.0, 10.0}, req);
  EXPECT_NEAR(alloc[0], 16.0, 1e-9);
  EXPECT_NEAR(alloc[1], 12.0, 1e-9);
}

TEST(DistributeDelta, NegativeDeltaRespectsMinimum) {
  const std::vector<ShareRequest> req = {
      {.shares = 1.0, .minimum = 8.0, .maximum = 100.0},
      {.shares = 1.0, .minimum = 0.0, .maximum = 100.0},
  };
  const auto alloc = DistributeDelta(-10.0, {10.0, 10.0}, req);
  EXPECT_GE(alloc[0], 8.0);
  EXPECT_NEAR(Sum(alloc), 10.0, 1e-6);
}

TEST(DistributeDelta, SaturatedEntriesSkipped) {
  const std::vector<ShareRequest> req = {
      {.shares = 1.0, .minimum = 0.0, .maximum = 10.0},
      {.shares = 1.0, .minimum = 0.0, .maximum = 100.0},
  };
  // app0 is already at its maximum; the whole delta goes to app1.
  const auto alloc = DistributeDelta(6.0, {10.0, 10.0}, req);
  EXPECT_DOUBLE_EQ(alloc[0], 10.0);
  EXPECT_NEAR(alloc[1], 16.0, 1e-9);
}

TEST(DistributeDelta, OutOfBoundsInputClamped) {
  const std::vector<ShareRequest> req = {
      {.shares = 1.0, .minimum = 5.0, .maximum = 10.0},
  };
  const auto alloc = DistributeDelta(0.0, {50.0}, req);
  EXPECT_DOUBLE_EQ(alloc[0], 10.0);
}

TEST(DistributeDelta, ZeroDeltaIsIdentityWithinBounds) {
  const std::vector<ShareRequest> req = {
      {.shares = 2.0, .minimum = 0.0, .maximum = 100.0},
      {.shares = 1.0, .minimum = 0.0, .maximum = 100.0},
  };
  const auto alloc = DistributeDelta(0.0, {33.0, 44.0}, req);
  EXPECT_DOUBLE_EQ(alloc[0], 33.0);
  EXPECT_DOUBLE_EQ(alloc[1], 44.0);
}

// Every pin of a round is judged against the remainder at the round's
// start.  Judging entry 2 against a remainder already reduced by entry 1's
// pin (20 -> 9.17 < 10) used to pin it at its minimum too, leaving the
// 5-share entry at 10 and the 4-share entry at 12.
TEST(DistributeProportional, PinsOfOneRoundShareTheRoundStartRemainder) {
  const std::vector<ShareRequest> req = {
      {.shares = 4.0, .minimum = 10.0, .maximum = 100.0},
      {.shares = 3.0, .minimum = 10.0, .maximum = 100.0},
      {.shares = 5.0, .minimum = 10.0, .maximum = 100.0},
  };
  const auto alloc = DistributeProportional(32.0, req);
  EXPECT_DOUBLE_EQ(alloc[0], 10.0);
  EXPECT_DOUBLE_EQ(alloc[1], 10.0);
  EXPECT_NEAR(alloc[2], 12.0, 1e-9);
}

// End to end: ten Skylake cores under frequency shares at a grant low
// enough that most apps sit at the 800 MHz floor.  The in-round pinning bug
// pinned a later 100-share app at the floor while an earlier 80-share app
// kept 891 MHz, and the daemon's auditor aborted on share monotonicity
// within a dozen periods.
struct SpreadMixCase {
  int rotate;
  Watts grant_w;
};

std::string SpreadMixCaseName(const SpreadMixCase& c) {
  return "rotate" + std::to_string(c.rotate) + "_" +
         std::to_string(static_cast<int>(c.grant_w / Watts{1.0})) + "W";
}

// gtest would otherwise print the parameter as raw bytes (including
// padding), making the ctest names depend on the build.
void PrintTo(const SpreadMixCase& c, std::ostream* os) { *os << SpreadMixCaseName(c); }

class MinFundingSpreadMix : public ::testing::TestWithParam<SpreadMixCase> {};

TEST_P(MinFundingSpreadMix, DaemonKeepsShareOrderAtLowGrant) {
  const SpreadMixCase& c = GetParam();
  RackSocketConfig cfg{.platform = SkylakeXeon4114()};
  cfg.apps = ManyCoreSpreadMix(cfg.platform.num_cores, c.rotate).apps;
  cfg.policy = PolicyKind::kFrequencyShares;
  cfg.seed = 42 + 100 * static_cast<uint64_t>(c.rotate);
  cfg.use_baseline_ips = false;
  ASSERT_TRUE(cfg.audit);
  SocketStack stack(cfg, Seconds{1.0}, Seconds{0.001}, c.grant_w, /*obs_sink=*/nullptr,
                    /*shard=*/0, TickOptions{});
  for (int p = 0; p < 20; p++) {
    stack.AdvancePeriod(Seconds{1.0});  // The fatal auditor aborts on a violation.
  }
  const std::vector<Mhz>& targets = stack.daemon->targets();
  const std::vector<ManagedApp>& apps = stack.daemon->apps();
  for (size_t i = 0; i < apps.size(); i++) {
    for (size_t j = 0; j < apps.size(); j++) {
      if (apps[i].shares > apps[j].shares) {
        EXPECT_GE(targets[i], targets[j] - Mhz{1e-6}) << "app " << i << " vs app " << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FoundRepro, MinFundingSpreadMix,
                         ::testing::Values(SpreadMixCase{2, Watts{25.0}},
                                           SpreadMixCase{3, Watts{25.0}},
                                           SpreadMixCase{3, Watts{30.0}}),
                         [](const ::testing::TestParamInfo<SpreadMixCase>& info) {
                           return SpreadMixCaseName(info.param);
                         });

// ---- Property sweep: conservation, bounds, and share monotonicity over
// ---- randomized instances.

class MinFundingProperty : public ::testing::TestWithParam<int> {};

TEST_P(MinFundingProperty, RandomizedInvariants) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  for (int iter = 0; iter < 200; iter++) {
    const int n = 1 + static_cast<int>(rng.NextBelow(10));
    std::vector<ShareRequest> req;
    double min_sum = 0.0;
    double max_sum = 0.0;
    for (int i = 0; i < n; i++) {
      const double lo = rng.Uniform(0.0, 10.0);
      const double hi = lo + rng.Uniform(0.0, 30.0);
      req.push_back(
          ShareRequest{.shares = rng.Uniform(0.1, 100.0), .minimum = lo, .maximum = hi});
      min_sum += lo;
      max_sum += hi;
    }
    const double total = rng.Uniform(0.0, max_sum * 1.2);
    const auto alloc = DistributeProportional(total, req);
    ASSERT_EQ(alloc.size(), req.size());
    double sum = 0.0;
    for (size_t i = 0; i < alloc.size(); i++) {
      // Bounds always hold.
      ASSERT_GE(alloc[i], req[i].minimum - 1e-6);
      ASSERT_LE(alloc[i], req[i].maximum + 1e-6);
      sum += alloc[i];
    }
    // Conservation: the sum equals total clamped to the feasible range.
    const double expect = std::clamp(total, min_sum, max_sum);
    ASSERT_NEAR(sum, expect, 1e-5);
  }
}

// Monotonicity among entries with equal bounds: more shares never means a
// smaller allocation.  Every entry of an instance shares one [minimum,
// maximum] range, the shape of a daemon's per-app frequency split, so the
// check covers every pair; the sum must still equal the clamped total.
TEST_P(MinFundingProperty, EqualBoundsAreShareMonotone) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 100);
  for (int iter = 0; iter < 500; iter++) {
    const int n = 2 + static_cast<int>(rng.NextBelow(15));
    const double lo = rng.Uniform(0.0, 1000.0);
    const double hi = lo + rng.Uniform(1.0, 3000.0);
    std::vector<ShareRequest> req;
    for (int i = 0; i < n; i++) {
      // Small integer shares make ties (and near-ties) common.
      req.push_back(ShareRequest{.shares = static_cast<double>(1 + rng.NextBelow(10)),
                                 .minimum = lo,
                                 .maximum = hi});
    }
    const double total = rng.Uniform(lo * n * 0.8, hi * n * 1.1);
    const auto alloc = DistributeProportional(total, req);
    ASSERT_EQ(alloc.size(), req.size());
    for (size_t i = 0; i < req.size(); i++) {
      for (size_t j = 0; j < req.size(); j++) {
        if (req[i].shares > req[j].shares) {
          ASSERT_GE(alloc[i], alloc[j] - 1e-6)
              << "iter " << iter << ": entry " << i << " (" << req[i].shares
              << " shares) got less than entry " << j << " (" << req[j].shares << " shares)";
        }
      }
    }
    ASSERT_NEAR(Sum(alloc), std::clamp(total, lo * n, hi * n), 1e-6 * hi * n);
  }
}

TEST_P(MinFundingProperty, DeltaInvariants) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 1000);
  for (int iter = 0; iter < 200; iter++) {
    const int n = 1 + static_cast<int>(rng.NextBelow(8));
    std::vector<ShareRequest> req;
    std::vector<double> current;
    for (int i = 0; i < n; i++) {
      const double lo = rng.Uniform(0.0, 5.0);
      const double hi = lo + rng.Uniform(1.0, 20.0);
      req.push_back(
          ShareRequest{.shares = rng.Uniform(0.1, 50.0), .minimum = lo, .maximum = hi});
      current.push_back(rng.Uniform(lo, hi));
    }
    const double delta = rng.Uniform(-30.0, 30.0);
    const auto alloc = DistributeDelta(delta, current, req);
    double max_deliverable = 0.0;
    for (size_t i = 0; i < req.size(); i++) {
      max_deliverable +=
          delta > 0 ? req[i].maximum - current[i] : current[i] - req[i].minimum;
      ASSERT_GE(alloc[i], req[i].minimum - 1e-6);
      ASSERT_LE(alloc[i], req[i].maximum + 1e-6);
    }
    const double applied = Sum(alloc) - Sum(current);
    const double expect =
        delta > 0 ? std::min(delta, max_deliverable) : -std::min(-delta, max_deliverable);
    ASSERT_NEAR(applied, expect, 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinFundingProperty, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace papd
