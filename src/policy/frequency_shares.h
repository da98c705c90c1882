// Frequency shares (paper Section 5.2).
//
// Applications' frequencies are kept proportional to their shares.  Only
// package power measurements and per-core DVFS are required, which makes
// this the least demanding policy — and, per the paper's results, the most
// stable one, since frequency does not drift with program phase.

#ifndef SRC_POLICY_FREQUENCY_SHARES_H_
#define SRC_POLICY_FREQUENCY_SHARES_H_

#include "src/policy/min_funding.h"
#include "src/policy/share_policy.h"

namespace papd {

class FrequencyShares : public ShareResource {
 public:
  explicit FrequencyShares(PolicyPlatform platform) : platform_(platform) {}

  std::string Name() const override { return "frequency-shares"; }

  // Initial distribution: the highest-share application gets the maximum
  // frequency; others get their share-proportional fraction of it, clamped
  // to the platform minimum.
  std::vector<Mhz> InitialDistribution(const std::vector<ManagedApp>& apps,
                                       Watts limit_w) override;

  // Redistribution: PowerDelta -> FrequencyDelta via alpha, distributed
  // over non-saturated apps proportionally to shares (min-funding
  // revocation at the frequency range ends).
  const std::vector<Mhz>& Redistribute(const std::vector<ManagedApp>& apps,
                                       const TelemetrySample& sample, Watts limit_w) override;

  const std::vector<Mhz>& targets() const { return targets_; }

 private:
  PolicyPlatform platform_;
  std::vector<Mhz> targets_;
  // Redistribution working memory, reused every period (heap-free once
  // sized to the app count).
  std::vector<ShareRequest> req_;
  MinFundingScratch split_;
};

}  // namespace papd

#endif  // SRC_POLICY_FREQUENCY_SHARES_H_
