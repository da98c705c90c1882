#include "src/policy/performance_shares.h"

#include <algorithm>
#include <cmath>

#include "src/policy/min_funding.h"

namespace papd {

std::vector<Mhz> PerformanceShares::InitialDistribution(const std::vector<ManagedApp>& apps,
                                                        Watts limit_w) {
  // Total normalized performance the limit can fund, by the naive linear
  // model: alpha of maximum power buys alpha of maximum performance on
  // every core.
  const double alpha = AlphaOf(limit_w, platform_.max_power_w);
  const double total_perf =
      std::min(alpha, 1.0) * 1.0 * static_cast<double>(apps.size());

  std::vector<ShareRequest> req;
  req.reserve(apps.size());
  for (const ManagedApp& app : apps) {
    // An app saturated at f* cannot exceed roughly f*/f_max of its
    // baseline performance (HWP hints, paper Section 4.4).
    const double max_perf = AppMaxMhz(app, platform_) / platform_.max_mhz;
    req.push_back(
        ShareRequest{.shares = app.shares, .minimum = MinPerf(), .maximum = max_perf});
  }
  perf_targets_ = DistributeProportional(total_perf, req);

  // Initial translation: performance ~ frequency.
  freq_targets_.clear();
  freq_targets_.reserve(apps.size());
  for (size_t i = 0; i < apps.size(); i++) {
    freq_targets_.push_back(std::clamp(perf_targets_[i] * platform_.max_mhz,
                                       platform_.min_mhz, AppMaxMhz(apps[i], platform_)));
  }
  return freq_targets_;
}

const std::vector<Mhz>& PerformanceShares::Redistribute(const std::vector<ManagedApp>& apps,
                                                 const TelemetrySample& sample, Watts limit_w) {
  const Watts power_delta{limit_w - sample.pkg_w};

  if (Abs(power_delta) > kPowerToleranceW) {
    // PerformanceDelta = alpha * MaxPerformance * NumAvailableCores; the
    // redistribution re-solves the proportional split over the adjusted
    // total (min-funding revocation at the performance range ends).
    const double alpha = AlphaOf(power_delta, platform_.max_power_w);
    double total = alpha * 1.0 * static_cast<double>(apps.size());
    for (double p : perf_targets_) {
      total += p;
    }
    std::vector<ShareRequest> req;
    req.reserve(apps.size());
    for (const ManagedApp& app : apps) {
      const double max_perf = AppMaxMhz(app, platform_) / platform_.max_mhz;
      req.push_back(
          ShareRequest{.shares = app.shares, .minimum = MinPerf(), .maximum = max_perf});
    }
    perf_targets_ = DistributeProportional(total, req);
  }

  // Translation with feedback: nudge each core's frequency by the ratio of
  // target to measured normalized performance.  The correction is damped to
  // one third per period — measured IPS is noisy (phases), and an undamped
  // multiplicative update rings.
  for (size_t i = 0; i < apps.size(); i++) {
    const ManagedApp& app = apps[i];
    if (app.baseline_ips <= Ips{0.0}) {
      continue;
    }
    const auto& ct = sample.cores[static_cast<size_t>(app.cpu)];
    const double measured = ct.ips / app.baseline_ips;
    if (measured <= 1e-6) {
      continue;
    }
    const double ratio = std::clamp(perf_targets_[i] / measured, 0.5, 2.0);
    const double damped = 1.0 + (ratio - 1.0) / 3.0;
    freq_targets_[i] = std::clamp(freq_targets_[i] * damped, platform_.min_mhz,
                                  AppMaxMhz(app, platform_));
  }
  return freq_targets_;
}

}  // namespace papd
