#include "src/policy/frequency_shares.h"

#include <algorithm>
#include <cmath>

#include "src/policy/min_funding.h"

namespace papd {

std::vector<Mhz> FrequencyShares::InitialDistribution(const std::vector<ManagedApp>& apps,
                                                      Watts limit_w) {
  (void)limit_w;  // The control loop pulls power to the limit from here.
  double max_share = 0.0;
  for (const ManagedApp& app : apps) {
    max_share = std::max(max_share, app.shares);
  }
  targets_.clear();
  targets_.reserve(apps.size());
  for (const ManagedApp& app : apps) {
    const Mhz f{platform_.max_mhz * (max_share > 0.0 ? app.shares / max_share : 1.0)};
    targets_.push_back(std::clamp(f, platform_.min_mhz, AppMaxMhz(app, platform_)));
  }
  return targets_;
}

const std::vector<Mhz>& FrequencyShares::Redistribute(const std::vector<ManagedApp>& apps,
                                                      const TelemetrySample& sample,
                                                      Watts limit_w) {
  const Watts power_delta{limit_w - sample.pkg_w};
  if (Abs(power_delta) <= kPowerToleranceW) {
    return targets_;
  }
  const double alpha = AlphaOf(power_delta, platform_.max_power_w);
  const Mhz freq_delta{alpha * platform_.max_mhz * static_cast<double>(apps.size())};

  // Redistribution re-runs the (initial-style) proportional split over the
  // adjusted total frequency budget, with min-funding revocation at the
  // platform range ends: saturated apps are pinned there and the remainder
  // re-spread — trading strict proportionality for utilization exactly as
  // the paper chooses (Section 5.2).  Re-solving from the total (rather
  // than accumulating deltas) keeps the ratios exact across periods even
  // when saturation makes individual deltas asymmetric.
  ResourceUnits total = AsResourceUnits(freq_delta);
  for (Mhz f : targets_) {
    total += AsResourceUnits(f);
  }
  req_.clear();
  for (const ManagedApp& app : apps) {
    req_.push_back(ShareRequest{
        .shares = app.shares,
        .minimum = AsResourceUnits(platform_.min_mhz),
        // Never allocate past the app's highest useful frequency (HWP
        // hints, paper Section 4.4); min-funding revocation hands the
        // excess to apps that can still use it.
        .maximum = AsResourceUnits(AppMaxMhz(app, platform_)),
    });
  }
  const std::vector<ResourceUnits>& split = DistributeProportional(total, req_, &split_);
  targets_.clear();
  for (ResourceUnits u : split) {
    targets_.push_back(Mhz{u});
  }
  return targets_;
}

}  // namespace papd
