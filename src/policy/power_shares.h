// Power shares (paper Section 5.2).
//
// Applications' measured core power is kept proportional to shares.  This
// is the conceptually purest policy — the managed resource *is* the shared
// resource — but it requires per-core power telemetry (only the Ryzen
// platform provides it) and, as the paper finds, it gives the worst
// performance isolation: equal power buys very different performance for
// high- and low-demand applications.

#ifndef SRC_POLICY_POWER_SHARES_H_
#define SRC_POLICY_POWER_SHARES_H_

#include "src/policy/min_funding.h"
#include "src/policy/share_policy.h"

namespace papd {

class PowerShares : public ShareResource {
 public:
  explicit PowerShares(PolicyPlatform platform) : platform_(platform) {}

  std::string Name() const override { return "power-shares"; }

  // Initial distribution: the per-core share of the (limit minus estimated
  // uncore) budget; translated to frequencies with a crude linear
  // power-to-frequency model whose error the feedback loop later erases.
  std::vector<Mhz> InitialDistribution(const std::vector<ManagedApp>& apps,
                                       Watts limit_w) override;

  // Redistribution: the package-power error is spread over non-saturated
  // apps proportionally to shares; translation steps each core's frequency
  // by a fixed gain times its per-core power error.
  const std::vector<Mhz>& Redistribute(const std::vector<ManagedApp>& apps,
                                       const TelemetrySample& sample, Watts limit_w) override;

  const std::vector<Watts>& power_targets() const { return power_targets_; }

 private:
  Mhz LinearPowerToFrequency(Watts w) const;

  // Adopts a min-funding split (dimensionless resource units) as the
  // per-core power targets.
  void AssignTargets(const std::vector<ResourceUnits>& split) {
    power_targets_.clear();
    for (ResourceUnits u : split) {
      power_targets_.push_back(Watts{u});
    }
  }

  PolicyPlatform platform_;
  std::vector<Watts> power_targets_;
  std::vector<Mhz> freq_targets_;

  // Translation feedback gain.
  static constexpr double kGainMhzPerWatt = 180.0;
};

}  // namespace papd

#endif  // SRC_POLICY_POWER_SHARES_H_
