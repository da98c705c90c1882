// cluster_hold: a 4x16x16 ManyCoreEpyc128 BudgetTree (131072 cores) under
// the shares arbiter with multi-rate ticks, socket hold, replica
// memoization and no history.  Racks cycle through four ManyCoreSpreadMix
// rotations, so four replica classes stay live.
//
// Setup is construction plus the warmup periods after which every live
// daemon is held.  One step is one BudgetTree::Step.  The measured run
// never calls stack()/package()/daemon(): on a memoized leaf those calls
// materialize a replica and change the program being measured.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "cc/common.h"
#include "cc/mirror.h"
#include "src/cluster/budget_tree.h"
#include "src/experiments/scenarios.h"

namespace perfbench {
namespace {

using papd::Watts;

constexpr int kRotations = 4;

struct Sizes {
  int rows, racks_per_row, sockets_per_rack;
  int warmup_periods;
  int measured_periods;  // The hundred steps p90 needs.
};

Sizes SizesFor(const Options& opt) {
  // The daemons converge in about six periods, then need
  // SocketStack::kQuietPeriodsToHold quiet ones before they are held.
  return opt.quick ? Sizes{1, 4, 2, 12, 10} : Sizes{4, 16, 16, 12, 100};
}

papd::BudgetTreeConfig MakeConfig(const Options& opt, const Sizes& s) {
  papd::RackSocketConfig proto{.platform = papd::ManyCoreEpyc128()};
  proto.policy = papd::PolicyKind::kFrequencyShares;
  proto.seed = opt.seed;
  proto.use_baseline_ips = false;
  const int leaves = s.rows * s.racks_per_row * s.sockets_per_rack;
  const Watts floor = papd::SocketFloorW(proto);
  const Watts ceiling = papd::SocketCeilingW(proto);
  const Watts budget{(floor + (ceiling - floor) * 0.6) * static_cast<double>(leaves)};
  papd::BudgetTreeConfig cfg = papd::MakeUniformCluster(
      s.rows, s.racks_per_row, s.sockets_per_rack, proto, budget, /*decorrelate_seeds=*/false);
  int rack_index = 0;
  for (papd::BudgetNodeConfig& row : cfg.root.children) {
    for (papd::BudgetNodeConfig& rack : row.children) {
      const int rotate = rack_index++ % kRotations;
      for (papd::BudgetNodeConfig& socket : rack.children) {
        socket.socket->apps = papd::ManyCoreSpreadMix(proto.platform.num_cores, rotate).apps;
      }
    }
  }
  cfg.arbiter = papd::RackArbiterKind::kShares;
  cfg.tick.policy = papd::TickPolicy::kMultiRate;
  cfg.tick.socket_hold = true;
  cfg.tick.memoize_replicas = true;
  cfg.record_history = false;
  return cfg;
}

// The class representatives: socket0 of each of the first four racks (a
// class's representative is its lowest-indexed member, and is always live).
std::vector<int> Representatives(const papd::BudgetTree& tree) {
  std::vector<int> nodes;
  for (int n = 0; n < tree.num_nodes() && static_cast<int>(nodes.size()) < kRotations; n++) {
    if (tree.is_leaf(n) && tree.node_path(n).ends_with("/socket0")) {
      nodes.push_back(n);
    }
  }
  return nodes;
}

std::unique_ptr<LeafProbes> RepresentativeProbes(const papd::BudgetTree& tree,
                                                 const papd::BudgetTreeConfig& cfg) {
  std::vector<papd::RackSocketConfig> configs;
  for (size_t rack = 0; rack < kRotations; rack++) {
    configs.push_back(*cfg.root.children[0].children[rack].children[0].socket);
  }
  return std::make_unique<LeafProbes>(tree, cfg, Representatives(tree), configs);
}

struct ClusterRun {
  double setup_s = 0.0;
  std::string setup_digest;
  std::string digest;
  double measured_s = 0.0;
  double core_ticks = 0.0;
  std::vector<double> step_ms;
  std::vector<double> arbitrate_s;
  int64_t overrun_periods = 0;
  int nodes = 0;
  int live_leaves = 0;
  int classes = 0;
  double hit_rate = 0.0;
  bool live_unchanged = true;  // Reads of the representatives materialized nothing.
  // Traced run only.
  double instrument_s = 0.0;
  bool probes_faithful = true;
  uint64_t skipped = 0;
  uint64_t rep_periods = 0;
  uint64_t resyncs = 0;
  double c0_pct = 0.0;  // MPERF share of the representatives' cores.
  uint64_t msr_writes = 0;
};

// The representatives' hold counters and C0 (MPERF) cycles.  stack() is safe on
// them: a representative is always live.
struct RepCounters {
  uint64_t skipped = 0;
  uint64_t resyncs = 0;
  double mperf = 0.0;
  double t = 0.0;
  uint64_t msr_writes = 0;
};

RepCounters ReadReps(papd::BudgetTree& tree, const std::vector<int>& reps) {
  RepCounters s;
  for (int rep : reps) {
    papd::SocketStack& st = tree.stack(rep);
    s.skipped += st.daemon_steps_skipped;
    s.resyncs += st.hold_resyncs;
    s.msr_writes += static_cast<uint64_t>(st.msr.write_count());
    for (int c = 0; c < st.pkg.num_cores(); c++) {
      s.mperf += st.pkg.core(c).mperf_cycles();
    }
    s.t = st.pkg.now().value();
  }
  return s;
}

ClusterRun RunOnce(const Options& opt, bool measure, std::unique_ptr<LeafProbes>* traced) {
  const Sizes sizes = SizesFor(opt);
  const papd::BudgetTreeConfig cfg = MakeConfig(opt, sizes);
  ClusterRun out;

  const double t0 = NowS();
  papd::BudgetTree tree(cfg);
  double instrument_s = 0.0;
  if (traced != nullptr) {
    const double i0 = NowS();
    *traced = RepresentativeProbes(tree, cfg);
    instrument_s += NowS() - i0;
  }
  for (int p = 0; p < sizes.warmup_periods; p++) {
    tree.Step();
    if (traced != nullptr) {
      const double i0 = NowS();
      (*traced)->Advance(tree, false);
      instrument_s += NowS() - i0;
    }
  }
  out.setup_s = NowS() - t0 - instrument_s;
  Digest setup_digest;
  DigestGrants(tree, &setup_digest);
  out.setup_digest = setup_digest.Hex();
  if (!measure) {
    return out;
  }

  RepCounters before;
  const int live_before = tree.num_live_leaves();
  if (traced != nullptr) {
    before = ReadReps(tree, (*traced)->nodes());
    out.live_unchanged = tree.num_live_leaves() == live_before;
  }
  Digest digest;
  for (int p = 0; p < sizes.measured_periods; p++) {
    const double a = NowS();
    tree.Step();
    const double b = NowS();
    out.step_ms.push_back((b - a) * 1e3);
    out.measured_s += b - a;
    out.arbitrate_s.push_back(tree.last_arbitrate_wall_s().value());
    if (tree.max_grant_overrun_w() > Watts{kMaxOverrunW}) {
      out.overrun_periods++;
    }
    DigestGrants(tree, &digest);
    if (traced != nullptr) {
      (*traced)->Advance(tree, true);
      out.instrument_s += NowS() - b;
    }
  }
  // Grants and power do not depend on the workload seed; the per-core work
  // retired by the representatives does.
  for (int rep : Representatives(tree)) {
    const papd::Package& pkg = tree.stack(rep).pkg;
    for (int c = 0; c < pkg.num_cores(); c++) {
      digest.F64(pkg.core(c).instructions_retired());
    }
  }
  out.live_unchanged = out.live_unchanged && tree.num_live_leaves() == live_before;
  out.digest = digest.Hex();
  out.nodes = tree.num_nodes();
  out.classes = tree.num_replica_classes();
  out.hit_rate = tree.replica_hit_rate();
  out.live_leaves = tree.num_live_leaves();
  const double cores = static_cast<double>(tree.num_leaves()) * 128.0;
  out.core_ticks = cores * sizes.measured_periods * (cfg.control_period_s / cfg.tick_s);

  if (traced != nullptr) {
    const std::vector<int>& reps = (*traced)->nodes();
    const RepCounters after = ReadReps(tree, reps);
    out.probes_faithful = (*traced)->SameAs(tree);
    out.live_unchanged = out.live_unchanged && tree.num_live_leaves() == live_before;
    const papd::PlatformSpec spec = papd::ManyCoreEpyc128();
    out.skipped = after.skipped - before.skipped;
    out.resyncs = after.resyncs - before.resyncs;
    out.msr_writes = after.msr_writes - before.msr_writes;
    out.rep_periods = static_cast<uint64_t>(sizes.measured_periods) * reps.size();
    // MPERF counts TSC cycles while a core is in C0.
    const double capacity = spec.tsc_mhz.value() * papd::kHzPerMhz * (after.t - before.t) *
                            static_cast<double>(spec.num_cores) * static_cast<double>(reps.size());
    out.c0_pct = Per(100.0 * (after.mperf - before.mperf), capacity);
  }
  return out;
}

}  // namespace

void RunClusterHold(const Options& opt, Report* report) {
  if (opt.phase == "setup") {
    const ClusterRun r = RunOnce(opt, false, nullptr);
    report->setup_s.push_back(r.setup_s);
    report->setup_digest = r.setup_digest;
    return;
  }
  auto add = [report](const ClusterRun& r) {
    report->setup_s.push_back(r.setup_s);
    report->AddRepetition(r.setup_digest, r.digest);
    // One operation per measured period, failed when the cap invariant broke.
    report->attempted += static_cast<int64_t>(r.step_ms.size());
    report->failed += r.overrun_periods;
    if (!r.live_unchanged) {
      report->Error("reading the representatives materialized a replica");
    }
    if (r.classes != kRotations) {
      report->Error("expected " + std::to_string(kRotations) + " replica classes, got " +
                    std::to_string(r.classes));
    }
  };
  if (opt.phase == "measure") {
    const ClusterRun r = RunOnce(opt, true, nullptr);
    add(r);
    report->AddMeasured(r.step_ms, r.measured_s, r.core_ticks);
    return;
  }

  // Traced: one plain run, then the same run with a leaf probe per
  // representative.
  const ClusterRun r = RunOnce(opt, true, nullptr);
  add(r);
  std::unique_ptr<LeafProbes> probes;
  const ClusterRun t = RunOnce(opt, true, &probes);
  add(t);
  auto& m = report->metrics;
  if (t.live_leaves != r.live_leaves) {
    report->Error("traced reads changed num_live_leaves()");
  }
  if (!t.probes_faithful) {
    report->Error("leaf probes diverged from their class representatives");
  }
  double arbitrate_ns = 0.0;
  for (double a : t.arbitrate_s) {
    arbitrate_ns += a * 1e9;
  }
  // The live leaves are the representatives; each probe period stands for
  // one of their AdvancePeriod calls.
  double leaves_ns = 0.0;
  for (double ms : probes->period_ms()) {
    leaves_ns += ms * 1e6;
  }
  const double leaf_period_ms = Median(probes->period_ms());
  const double measured_ns = t.measured_s * 1e9;
  m["cluster.leaf_period_ms"] = leaf_period_ms;
  m["cpusim.c0_pct"] = t.c0_pct;
  m["policy.pstate_writes"] = static_cast<double>(t.msr_writes);
  m["cluster.arbitrate_us"] = Median(t.arbitrate_s) * 1e6;
  m["cluster.arbitrate_ns_per_node"] = Median(t.arbitrate_s) * 1e9 / t.nodes;
  m["cluster.live_leaves"] = t.live_leaves;
  m["cluster.replica_hit_rate"] = t.hit_rate;
  m["cluster.daemon_steps_skipped_pct"] =
      Per(100.0 * static_cast<double>(t.skipped), static_cast<double>(t.rep_periods));
  m["cluster.hold_resyncs"] = static_cast<double>(t.resyncs);
  m["bench.unattributed_pct"] =
      Per(100.0 * (measured_ns - arbitrate_ns - leaves_ns), measured_ns);
  m["bench.trace_overhead_pct"] =
      Per(100.0 * (t.measured_s + t.instrument_s - r.measured_s), r.measured_s);
  m["share.leaves_pct"] = Per(100.0 * leaves_ns, measured_ns);
  m["share.arbitrate_pct"] = Per(100.0 * arbitrate_ns, measured_ns);
}

}  // namespace perfbench
