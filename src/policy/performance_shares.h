// Performance shares (paper Section 5.2).
//
// Applications' *performance* — instructions per second normalized to the
// application's standalone run at maximum frequency, measured offline — is
// kept proportional to shares.  This controls the quantity operators
// actually care about, but requires per-app performance telemetry and an
// offline baseline, and (as the paper observes) inherits the noise of the
// IPS signal: program phases shift measured performance at a fixed
// frequency, so the controller keeps rebalancing where frequency shares
// would sit still.

#ifndef SRC_POLICY_PERFORMANCE_SHARES_H_
#define SRC_POLICY_PERFORMANCE_SHARES_H_

#include "src/policy/share_policy.h"

namespace papd {

class PerformanceShares : public ShareResource {
 public:
  explicit PerformanceShares(PolicyPlatform platform) : platform_(platform) {}

  std::string Name() const override { return "performance-shares"; }

  // Initial distribution: the power limit is converted to a total
  // normalized-performance budget (alpha * MaxPerformance * cores), split
  // proportionally; the initial translation assumes performance tracks
  // frequency linearly.
  std::vector<Mhz> InitialDistribution(const std::vector<ManagedApp>& apps,
                                       Watts limit_w) override;

  // Redistribution: PowerDelta -> PerformanceDelta via alpha, distributed
  // over non-saturated apps; translation corrects each core's frequency
  // multiplicatively by target/measured performance.
  const std::vector<Mhz>& Redistribute(const std::vector<ManagedApp>& apps,
                                       const TelemetrySample& sample, Watts limit_w) override;

  const std::vector<double>& performance_targets() const { return perf_targets_; }

 private:
  // Minimum achievable normalized performance, approximated by the
  // frequency dynamic range (an app at f_min retires at least
  // f_min / f_max of its baseline, more if memory-bound).
  double MinPerf() const { return platform_.min_mhz / platform_.max_mhz; }

  PolicyPlatform platform_;
  std::vector<double> perf_targets_;  // Normalized (1.0 = baseline).
  std::vector<Mhz> freq_targets_;
};

}  // namespace papd

#endif  // SRC_POLICY_PERFORMANCE_SHARES_H_
