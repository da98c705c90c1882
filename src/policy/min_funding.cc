#include "src/policy/min_funding.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/obs/trace.h"
#include "src/policy/invariants.h"

namespace papd {
namespace {

constexpr double kEps = 1e-9;

std::vector<double> DistributeDeltaImpl(double delta, const std::vector<double>& current,
                                        const std::vector<ShareRequest>& req);

// Core of DistributeProportional, writing into caller-owned buffers so hot
// arbitration paths can reuse them (assign() keeps capacity, so repeated
// calls at a stable request count never touch the heap).
// PAPD_HOT
void DistributeProportionalInto(double total, const std::vector<ShareRequest>& req,
                                std::vector<double>* alloc_out,
                                std::vector<int>* pinned_scratch) {
  // Pure proportionality with clamping: the target is alloc_i =
  // clamp(rate * shares_i, minimum_i, maximum_i) for the one rate at which
  // the allocations sum to the total (paper Section 4.2: 3 shares next to
  // 1 share means 3/4ths of the resource).  Entries whose proportional
  // grant violates a bound are pinned there ("saturated") and the
  // remaining total is re-split across the rest — min-funding revocation.
  //
  // Each round judges every active entry against the rate that held when
  // the round began (remaining / active shares); pins taken earlier in the
  // same round must not shrink the rate seen by later indices.  And a round
  // pins in one direction only, the one whose violations dominate: pinning
  // entries at their maximum releases (over) and pinning at the minimum
  // absorbs (under) resource, so when over > under the final rate lies
  // above this round's, every maximum violator stays saturated, and a
  // minimum violator may yet clear its floor — pinning it now would leave a
  // larger-share entry below it.  Terminates in <= n rounds because each
  // round pins at least one entry.
  const size_t n = req.size();
  std::vector<double>& alloc = *alloc_out;
  alloc.assign(n, 0.0);
  if (n == 0) {
    return;
  }
  double min_sum = 0.0;
  double max_sum = 0.0;
  for (size_t i = 0; i < n; i++) {
    PAPD_DCHECK_GE(req[i].maximum, req[i].minimum) << " for request " << i;
    min_sum += req[i].minimum;
    max_sum += req[i].maximum;
  }
  total = std::clamp(total, min_sum, max_sum);

  std::vector<int>& pinned = *pinned_scratch;  // 0 = active, 1 = pinned at a bound.
  pinned.assign(n, 0);
  double remaining = total;
  for (size_t round = 0; round < n + 1; round++) {
    double active_shares = 0.0;
    for (size_t i = 0; i < n; i++) {
      if (!pinned[i]) {
        active_shares += req[i].shares;
      }
    }
    if (active_shares <= kEps) {
      break;
    }
    const double round_remaining = remaining;
    double over = 0.0;
    double under = 0.0;
    for (size_t i = 0; i < n; i++) {
      if (pinned[i]) {
        continue;
      }
      const double prop = round_remaining * req[i].shares / active_shares;
      if (prop < req[i].minimum - kEps) {
        under += req[i].minimum - prop;
      } else if (prop > req[i].maximum + kEps) {
        over += prop - req[i].maximum;
      }
    }
    if (over == 0.0 && under == 0.0) {
      // No violations: the proportional split stands for all active entries.
      for (size_t i = 0; i < n; i++) {
        if (!pinned[i]) {
          alloc[i] = remaining * req[i].shares / active_shares;
        }
      }
      return;
    }
    const bool pin_min = under >= over;
    const bool pin_max = over >= under;
    for (size_t i = 0; i < n; i++) {
      if (pinned[i]) {
        continue;
      }
      const double prop = round_remaining * req[i].shares / active_shares;
      if (pin_min && prop < req[i].minimum - kEps) {
        alloc[i] = req[i].minimum;
        pinned[i] = 1;
        remaining -= alloc[i];
        PAPD_TRACE_REVOKE(i, alloc[i], /*at_max=*/false);
      } else if (pin_max && prop > req[i].maximum + kEps) {
        alloc[i] = req[i].maximum;
        pinned[i] = 1;
        remaining -= alloc[i];
        PAPD_TRACE_REVOKE(i, alloc[i], /*at_max=*/true);
      }
    }
  }
  // Every entry pinned.  Pin decisions within one round share the
  // round-start rate, so the pinned sum may miss `total`; repair by spreading
  // the leftover across entries with headroom.  This path allocates (the
  // delta distributor builds its own result) but only fires when every
  // entry saturated in the same round — never in steady-state arbitration.
  double leftover = total;
  for (double a : alloc) {
    leftover -= a;
  }
  if (std::abs(leftover) > kEps) {
    alloc = DistributeDeltaImpl(leftover, alloc, req);  // PAPD_HOT_ALLOW rare repair
  }
}

std::vector<double> DistributeDeltaImpl(double delta, const std::vector<double>& current,
                                        const std::vector<ShareRequest>& req) {
  PAPD_CHECK_EQ(current.size(), req.size());
  const size_t n = req.size();
  std::vector<double> alloc = current;
  // Clamp starting point into bounds so a drifted measurement cannot wedge
  // the algorithm.
  for (size_t i = 0; i < n; i++) {
    alloc[i] = std::clamp(alloc[i], req[i].minimum, req[i].maximum);
  }
  if (n == 0 || std::abs(delta) <= kEps) {
    return alloc;
  }

  const bool adding = delta > 0.0;
  double remaining = std::abs(delta);
  std::vector<bool> saturated(n, false);
  for (int round = 0; round < static_cast<int>(n) + 1 && remaining > kEps; round++) {
    double active_shares = 0.0;
    for (size_t i = 0; i < n; i++) {
      const double headroom = adding ? req[i].maximum - alloc[i] : alloc[i] - req[i].minimum;
      if (headroom <= kEps) {
        saturated[i] = true;
      }
      if (!saturated[i]) {
        active_shares += req[i].shares;
      }
    }
    if (active_shares <= kEps) {
      break;
    }
    double leftover = 0.0;
    for (size_t i = 0; i < n; i++) {
      if (saturated[i]) {
        continue;
      }
      const double grant = remaining * req[i].shares / active_shares;
      const double headroom = adding ? req[i].maximum - alloc[i] : alloc[i] - req[i].minimum;
      if (grant >= headroom - kEps) {
        alloc[i] = adding ? req[i].maximum : req[i].minimum;
        leftover += grant - headroom;
        saturated[i] = true;
        PAPD_TRACE_REVOKE(i, alloc[i], /*at_max=*/adding);
      } else {
        alloc[i] += adding ? grant : -grant;
      }
    }
    remaining = leftover;
  }
  return alloc;
}

}  // namespace

// The public entry points run the invariant audit from
// src/policy/invariants.h as an always-on postcondition: bounds respected,
// termination reached (min-funding revocation pinned every saturated entry
// and distributed the rest).  Both audits are allocation-free when clean.

std::vector<ResourceUnits> DistributeProportional(ResourceUnits total,
                                                  const std::vector<ShareRequest>& req) {
  std::vector<ResourceUnits> alloc;
  std::vector<int> pinned;
  DistributeProportionalInto(total, req, &alloc, &pinned);
  const std::vector<std::string> audit = AuditProportionalSplit(total, req, alloc);
  PAPD_CHECK(audit.empty()) << "min-funding proportional-split postcondition: "
                            << audit.front();
  return alloc;
}

// PAPD_HOT
const std::vector<ResourceUnits>& DistributeProportional(ResourceUnits total,
                                                         const std::vector<ShareRequest>& req,
                                                         MinFundingScratch* scratch) {
  DistributeProportionalInto(total, req, &scratch->alloc, &scratch->pinned);
  const std::vector<std::string> audit =  // PAPD_HOT_ALLOW empty (heap-free) when clean
      AuditProportionalSplit(total, req, scratch->alloc);
  PAPD_CHECK(audit.empty()) << "min-funding proportional-split postcondition: "
                            << audit.front();
  return scratch->alloc;
}

std::vector<ResourceUnits> DistributeDelta(ResourceUnits delta,
                                           const std::vector<ResourceUnits>& current,
                                           const std::vector<ShareRequest>& req) {
  std::vector<ResourceUnits> alloc = DistributeDeltaImpl(delta, current, req);
  const std::vector<std::string> audit = AuditDeltaSplit(delta, current, req, alloc);
  PAPD_CHECK(audit.empty()) << "min-funding delta-split postcondition: " << audit.front();
  return alloc;
}

}  // namespace papd
