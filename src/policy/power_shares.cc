#include "src/policy/power_shares.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/policy/min_funding.h"

namespace papd {

Mhz PowerShares::LinearPowerToFrequency(Watts w) const {
  const double t =
      (w - platform_.core_min_w) / (platform_.core_max_w - platform_.core_min_w);
  return std::clamp(platform_.min_mhz + t * (platform_.max_mhz - platform_.min_mhz),
                    platform_.min_mhz, platform_.max_mhz);
}

std::vector<Mhz> PowerShares::InitialDistribution(const std::vector<ManagedApp>& apps,
                                                  Watts limit_w) {
  const Watts core_budget =
      std::max(limit_w - platform_.uncore_estimate_w,
               platform_.core_min_w * static_cast<double>(apps.size()));

  std::vector<ShareRequest> req;
  req.reserve(apps.size());
  for (const ManagedApp& app : apps) {
    req.push_back(ShareRequest{
        .shares = app.shares,
        .minimum = AsResourceUnits(platform_.core_min_w),
        .maximum = AsResourceUnits(platform_.core_max_w),
    });
  }
  AssignTargets(DistributeProportional(AsResourceUnits(core_budget), req));

  freq_targets_.clear();
  freq_targets_.reserve(apps.size());
  for (Watts w : power_targets_) {
    freq_targets_.push_back(LinearPowerToFrequency(w));
  }
  return freq_targets_;
}

const std::vector<Mhz>& PowerShares::Redistribute(const std::vector<ManagedApp>& apps,
                                           const TelemetrySample& sample, Watts limit_w) {
  const Watts power_delta{limit_w - sample.pkg_w};
  if (Abs(power_delta) > kPowerToleranceW) {
    // Re-solve the proportional split over the adjusted core power budget
    // (min-funding revocation at the per-core power range ends).
    ResourceUnits total = AsResourceUnits(power_delta);
    for (Watts w : power_targets_) {
      total += AsResourceUnits(w);
    }
    std::vector<ShareRequest> req;
    req.reserve(apps.size());
    for (const ManagedApp& app : apps) {
      req.push_back(ShareRequest{
          .shares = app.shares,
          .minimum = AsResourceUnits(platform_.core_min_w),
          .maximum = AsResourceUnits(platform_.core_max_w),
      });
    }
    AssignTargets(DistributeProportional(total, req));
  }

  // Translation with feedback: step every core's frequency toward its
  // power target using the measured per-core watts.
  for (size_t i = 0; i < apps.size(); i++) {
    const ManagedApp& app = apps[i];
    const auto& ct = sample.cores[static_cast<size_t>(app.cpu)];
    if (!ct.core_w.has_value()) {
      PAPD_LOG_WARN("power shares require per-core power telemetry; cpu %d lacks it", app.cpu);
      continue;
    }
    const Watts error{power_targets_[i] - *ct.core_w};
    freq_targets_[i] = std::clamp(freq_targets_[i] + MhzPerWattGain(kGainMhzPerWatt, error),
                                  platform_.min_mhz, AppMaxMhz(app, platform_));
  }
  return freq_targets_;
}

}  // namespace papd
