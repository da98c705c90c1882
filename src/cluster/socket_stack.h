// The per-socket simulation stack: one leaf of the cluster budget tree.
//
// A SocketStack is one full per-socket pipeline, mirroring RunScenario's
// stack: the package, its MSR surface, the pinned processes, the policy
// daemon, and a simulator driving ticks + periodic daemon steps.  Stacks
// share nothing mutable, so a budget tree can advance its leaves on worker
// threads without synchronization and stay bit-identical to a serial run.

#ifndef SRC_CLUSTER_SOCKET_STACK_H_
#define SRC_CLUSTER_SOCKET_STACK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/units.h"
#include "src/cpusim/package.h"
#include "src/cpusim/simulator.h"
#include "src/experiments/harness.h"
#include "src/msr/msr.h"
#include "src/policy/daemon.h"
#include "src/specsim/websearch.h"
#include "src/specsim/workload.h"

namespace papd {

// How a budget-tree node's arbiter sizes each child's claim before
// distributing.
enum class RackArbiterKind {
  // Pure share-proportional split between each child's floor and ceiling.
  kShares,
  // Demand-following: a child's claim is capped just above its measured
  // draw, so surplus from lightly loaded children flows to busy ones
  // (min-funding revocation does the redistribution).
  kDemand,
  // Share-proportional like kShares, but each node's shares are multiplied
  // by a per-node bias maintained by an SloFeedbackArbiter
  // (src/policy/slo_feedback.h): watts drift toward latency-violating
  // subtrees, bounded-step with hysteresis.  Bounds are untouched, so the
  // structural cap invariant is unaffected.
  kSloFeedback,
};

inline constexpr int kNumRackArbiterKinds = 3;

// Stable name for bench JSON / sweep plot keys; covered by the papd_lint
// registry-completeness rule like the other registered enums.
const char* RackArbiterKindName(RackArbiterKind kind);

// One socket (budget-tree leaf): a platform running a fixed app mix under
// its own PowerDaemon.
struct RackSocketConfig {
  PlatformSpec platform;
  std::vector<AppSetup> apps;
  PolicyKind policy = PolicyKind::kFrequencyShares;
  // Budget floor the arbiter guarantees this socket (>= the socket's idle
  // draw, or the daemon would throttle forever); 0 derives a floor from the
  // platform's RAPL minimum (or 1/4 TDP without RAPL).
  Watts min_budget_w{0.0};
  // Budget ceiling; 0 derives it from rapl_max_w (or TDP without RAPL).
  Watts max_budget_w{0.0};
  uint64_t seed = 42;
  // Run the per-socket daemon's invariant auditor.
  bool audit = true;
  // Use measured standalone baselines (kPerformanceShares needs them; costs
  // one cached standalone simulation per distinct profile).
  bool use_baseline_ips = true;

  // --- Serving-socket mode ---------------------------------------------------
  // When set, the socket runs an open-loop websearch service on cores
  // 0..n-2 (optionally a cpuburn power virus on the last core) instead of
  // the `apps` process mix; `apps` must then be empty.  This is how Fleet
  // builds latency-sensitive leaves on top of the same SocketStack the
  // budget tree already drives.
  bool websearch = false;
  WebSearch::Params websearch_params;
  bool with_cpuburn = false;
  double websearch_shares = 90.0;
  double cpuburn_shares = 10.0;
};

// Budget floor / ceiling an arbiter uses for this socket (explicit config
// value, or derived from the platform).
Watts SocketFloorW(const RackSocketConfig& cfg);
Watts SocketCeilingW(const RackSocketConfig& cfg);

// FNV-1a hash over every simulation-relevant field of the config (platform
// spec, app mix, policy, bounds, seed, flags).  Two sockets with
// equal hashes evolve identically under equal grant histories — the replica
// memoization key (BudgetTree groups leaves by this plus the initial grant
// bits).
uint64_t HashSocketConfig(const RackSocketConfig& cfg);

// Aborts when the configured floor exceeds the ceiling.  Arbiters clamp
// demand claims with std::clamp(demand, floor, ceiling), which is UB on an
// inverted range — every arbiter validates its sockets up front instead of
// trusting the config.
void ValidateSocketBudgetBounds(const RackSocketConfig& cfg);

struct SocketStack {
  // `record_history` becomes the daemon's DaemonConfig::record_history
  // (BudgetTree passes BudgetTreeConfig::record_history).
  SocketStack(const RackSocketConfig& cfg, Seconds period_s, Seconds tick_s,
              Watts initial_budget_w, ObsSink* obs_sink, int16_t shard,
              const TickOptions& tick, bool record_history = true);

  SocketStack(const SocketStack&) = delete;
  SocketStack& operator=(const SocketStack&) = delete;

  // Advances one control period and records the average power drawn in it.
  // Under TickOptions::socket_hold the period advances through
  // AdvanceSteady segments and the daemon step is *skipped* once the daemon
  // has been quiescent for kQuietPeriodsToHold periods; any grant change,
  // control-epoch bump, ladder departure, fault arming, or out-of-band
  // power drift resyncs back to live daemon stepping.
  void AdvancePeriod(Seconds period_s);

  // Consecutive quiescent daemon periods before daemon stepping is held.
  static constexpr int kQuietPeriodsToHold = 3;
  // Relative band around the power measured when the daemon hold engaged;
  // leaving it forces a resync (the workload mix changed enough that the
  // daemon must re-observe).
  static constexpr double kHoldPowerBand = 0.03;

  RackSocketConfig config;
  Package pkg;
  MsrFile msr;
  std::vector<std::unique_ptr<Process>> procs;
  // The open-loop service when config.websearch is set; nullptr otherwise.
  std::unique_ptr<WebSearch> websearch;
  std::unique_ptr<PowerDaemon> daemon;
  Simulator sim;
  Watts last_measured_w{0.0};

  // --- Socket-hold state (only used when hold_mode) ------------------------
  bool hold_mode = false;     // socket_hold requested && policy is kMultiRate.
  bool daemon_held = false;   // Daemon steps currently skipped.
  uint64_t daemon_steps_skipped = 0;
  uint64_t hold_resyncs = 0;  // Hold exits forced by a predicate failure.

 private:
  // Runs (or skips) the daemon for the period that just finished and
  // updates the hold state machine.
  void StepDaemonHeld();

  int quiet_streak_ = 0;
  // Snapshot when the hold engaged / after the last live step.
  uint64_t held_epoch_ = 0;
  Watts last_limit_w_{0.0};
  Watts held_power_w_{0.0};
};

}  // namespace papd

#endif  // SRC_CLUSTER_SOCKET_STACK_H_
