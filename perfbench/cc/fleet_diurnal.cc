// fleet_diurnal: the 256-socket serving Fleet (4x8x8 Skylake, 1e8 users,
// hot-shard skew, SLO feedback) under a diurnal arrival shape whose period
// is the measured window, stepped serially on the calling thread.
//
// Setup is construction, the warmup periods and ResetStats.  One step is
// one Fleet::Step (a 1 s control period of every socket); the measured
// phase ends with Fleet::Collect.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "cc/common.h"
#include "cc/mirror.h"
#include "src/cluster/fleet.h"

namespace perfbench {
namespace {

using papd::Seconds;
using papd::Watts;

// The traced run samples every kSampleStride-th socket; with the default
// hot_fraction that keeps the hot/cold mix of the whole fleet.
constexpr int kSampleStride = 16;

struct Sizes {
  int warmup_periods;
  int measured_periods;  // The hundred steps p90 needs.
};

Sizes SizesFor(const Options& opt) { return opt.quick ? Sizes{3, 8} : Sizes{10, 100}; }

papd::FleetConfig MakeConfig(const Options& opt, const Sizes& sizes) {
  papd::FleetConfig cfg;  // 4 x 8 x 8 Skylake sockets, 1e8 users, hot shards.
  if (opt.quick) {
    cfg.rows = 1;
    cfg.racks_per_row = 2;
    cfg.sockets_per_rack = 8;
    cfg.users = 1e8 * 16.0 / 256.0;
  }
  cfg.shape = papd::ArrivalShape::kDiurnal;
  cfg.diurnal_amplitude = 0.5;
  // One trough and one peak in every measured window.
  cfg.diurnal_period_s = cfg.control_period_s * static_cast<double>(sizes.measured_periods);
  cfg.arbiter = papd::RackArbiterKind::kSloFeedback;
  cfg.seed = opt.seed;
  return cfg;
}

// The traced run's instruments on the sampled sockets: instrumented mirrors
// (layer split) and plain SocketStack probes (leaf period), both fed the
// fleet's grants.
struct Instruments {
  LayerTimes lt;
  std::vector<int> nodes;
  std::vector<std::unique_ptr<MirrorSocket>> mirrors;
  std::unique_ptr<LeafProbes> probes;
  uint64_t mirror_periods = 0;

  Instruments(papd::Fleet& fleet, const papd::FleetConfig& cfg) {
    papd::BudgetTree& tree = fleet.tree();
    std::vector<papd::RackSocketConfig> configs;
    for (int s = 0; s < fleet.num_sockets(); s += kSampleStride) {
      const int node = fleet.leaf_nodes()[static_cast<size_t>(s)];
      nodes.push_back(node);
      configs.push_back(tree.stack(node).config);
      mirrors.push_back(MirrorSocket::FromServingSocket(configs.back(), cfg.control_period_s,
                                                        cfg.tick_s, tree.grant_w(node),
                                                        cfg.tick, &lt));
    }
    papd::BudgetTreeConfig tree_cfg;
    tree_cfg.control_period_s = cfg.control_period_s;
    tree_cfg.tick_s = cfg.tick_s;
    tree_cfg.tick = cfg.tick;
    probes = std::make_unique<LeafProbes>(tree, tree_cfg, nodes, configs);
  }
  void Advance(papd::Fleet& fleet, const papd::FleetConfig& cfg, bool timed) {
    for (size_t i = 0; i < mirrors.size(); i++) {
      mirrors[i]->Advance(cfg.control_period_s);
      mirrors[i]->daemon().SetPowerLimit(fleet.tree().grant_w(nodes[i]));
      mirror_periods++;
    }
    probes->Advance(fleet.tree(), timed);
  }
  void StartWindow() {
    for (auto& m : mirrors) {
      m->StartWindow();
    }
    probes->ResetServingStats();
  }
  // True when every mirror and probe served exactly what its socket served.
  bool Faithful(papd::Fleet& fleet) {
    for (size_t i = 0; i < mirrors.size(); i++) {
      const papd::WebSearch& a = *mirrors[i]->websearch();
      const papd::WebSearch& b = *fleet.tree().stack(nodes[i]).websearch;
      if (a.latencies() != b.latencies() || a.arrivals() != b.arrivals()) {
        return false;
      }
    }
    return probes->SameAs(fleet.tree());
  }
};

struct FleetRun {
  double setup_s = 0.0;
  std::string setup_digest;
  std::string digest;
  double measured_s = 0.0;
  double collect_s = 0.0;
  double core_ticks = 0.0;
  std::vector<double> step_ms;
  std::vector<double> arbitrate_s;
  int64_t overrun_periods = 0;
  papd::FleetResult result;
  int nodes = 0;
  int live_leaves = 0;
  uint64_t msr_writes = 0;
  bool faithful = true;
  double instrument_s = 0.0;  // Traced instruments' time in the measured phase.
};

FleetRun RunOnce(const Options& opt, bool measure, std::unique_ptr<Instruments>* traced) {
  const Sizes sizes = SizesFor(opt);
  const papd::FleetConfig cfg = MakeConfig(opt, sizes);
  FleetRun out;

  const double t0 = NowS();
  papd::Fleet fleet(cfg);
  double instrument_s = 0.0;
  if (traced != nullptr) {
    const double i0 = NowS();
    *traced = std::make_unique<Instruments>(fleet, cfg);
    instrument_s += NowS() - i0;
  }
  for (int p = 0; p < sizes.warmup_periods; p++) {
    fleet.Step();
    if (traced != nullptr) {
      const double i0 = NowS();
      (*traced)->Advance(fleet, cfg, false);
      instrument_s += NowS() - i0;
    }
  }
  fleet.ResetStats();
  if (traced != nullptr) {
    (*traced)->StartWindow();
  }
  out.setup_s = NowS() - t0 - instrument_s;
  Digest setup_digest;
  DigestGrants(fleet.tree(), &setup_digest);
  out.setup_digest = setup_digest.Hex();
  if (!measure) {
    return out;
  }

  Digest digest;
  for (int p = 0; p < sizes.measured_periods; p++) {
    const double a = NowS();
    fleet.Step();
    const double b = NowS();
    out.step_ms.push_back((b - a) * 1e3);
    out.measured_s += b - a;
    out.arbitrate_s.push_back(fleet.tree().last_arbitrate_wall_s().value());
    if (fleet.tree().max_grant_overrun_w() > Watts{kMaxOverrunW}) {
      out.overrun_periods++;
    }
    DigestGrants(fleet.tree(), &digest);
    if (traced != nullptr) {
      (*traced)->Advance(fleet, cfg, true);
      out.instrument_s += NowS() - b;
    }
  }
  const double c0 = NowS();
  out.result = fleet.Collect();
  out.collect_s = NowS() - c0;
  out.measured_s += out.collect_s;

  for (const papd::FleetSocketResult& s : out.result.sockets) {
    digest.Q(s.grant_w);
    digest.Q(s.p50);
    digest.Q(s.p90);
    digest.Q(s.p99);
    digest.U64(s.completed);
    digest.U64(s.arrivals);
    digest.U64(s.slo_violation_periods);
  }
  out.digest = digest.Hex();
  const double cores = static_cast<double>(FleetSockets(cfg) * cfg.platform.num_cores);
  out.core_ticks = cores * sizes.measured_periods * (cfg.control_period_s / cfg.tick_s);
  out.nodes = fleet.tree().num_nodes();
  out.live_leaves = fleet.tree().num_live_leaves();
  if (traced != nullptr) {
    // The fleet is not memoized, so stack() materializes nothing here.
    for (int node : fleet.leaf_nodes()) {
      out.msr_writes += static_cast<uint64_t>(fleet.tree().stack(node).msr.write_count());
    }
    out.faithful = (*traced)->Faithful(fleet);
  }
  return out;
}

}  // namespace

void RunFleetDiurnal(const Options& opt, Report* report) {
  if (opt.phase == "setup") {
    const FleetRun r = RunOnce(opt, false, nullptr);
    report->setup_s.push_back(r.setup_s);
    report->setup_digest = r.setup_digest;
    return;
  }
  // One operation per measured period, failed when the cap invariant broke.
  auto add = [report](const FleetRun& r) {
    report->setup_s.push_back(r.setup_s);
    report->AddRepetition(r.setup_digest, r.digest);
    report->attempted += static_cast<int64_t>(r.step_ms.size());
    report->failed += r.overrun_periods;
  };
  if (opt.phase == "measure") {
    const FleetRun r = RunOnce(opt, true, nullptr);
    add(r);
    report->AddMeasured(r.step_ms, r.measured_s, r.core_ticks);
    return;
  }

  // Traced: one plain run, then the same run with instruments on the
  // sampled sockets.
  const FleetRun r = RunOnce(opt, true, nullptr);
  add(r);
  std::unique_ptr<Instruments> ins;
  const FleetRun t = RunOnce(opt, true, &ins);
  add(t);
  auto& m = report->metrics;
  if (!t.faithful) {
    report->Error("mirrored or probed sockets diverged from their fleet sockets");
  }
  const LayerTimes& lt = ins->lt;
  const double socket_periods =
      static_cast<double>(t.result.sockets.size() * t.step_ms.size());
  double arbitrate_ns = 0.0;
  for (double a : t.arbitrate_s) {
    arbitrate_ns += a * 1e9;
  }
  double probe_ms = 0.0;
  for (double ms : ins->probes->period_ms()) {
    probe_ms += ms;
  }
  // Every socket's AdvancePeriod, at the probes' mean cost.
  const double leaves_ns =
      Per(probe_ms * 1e6, static_cast<double>(ins->probes->period_ms().size())) * socket_periods;
  const double measured_ns = t.measured_s * 1e9;
  uint64_t completed = 0;
  uint64_t arrivals = 0;
  for (const papd::FleetSocketResult& s : t.result.sockets) {
    completed += s.completed;
    arrivals += s.arrivals;
  }
  HistogramSum redistribute;
  for (auto& s : ins->mirrors) {
    redistribute.Add(s->daemon().metrics().Export(), "daemon.redistribute_latency_us");
  }
  const double ns_per_socket_period_tick =
      Per(lt.tick_ns - lt.WebsearchNs(), static_cast<double>(ins->mirror_periods));
  m["cpusim.tick_ns_per_core_tick"] =
      Per(lt.tick_ns - lt.WebsearchNs(), static_cast<double>(lt.core_ticks));
  m["specsim.websearch_ns_per_core_tick"] =
      Per(lt.WebsearchNs(), static_cast<double>(lt.websearch_core_ticks));
  m["specsim.busy_pct"] = Per(100.0 * static_cast<double>(lt.busy_core_ticks),
                              static_cast<double>(lt.serving_core_ticks));
  m["specsim.arrivals"] = static_cast<double>(arrivals);
  m["specsim.completed"] = static_cast<double>(completed);
  m["msr.sample_us"] = Per(lt.sample_ns / 1e3, static_cast<double>(lt.samples));
  m["policy.daemon_step_us"] = Per(lt.daemon_ns / 1e3, static_cast<double>(lt.daemon_steps));
  m["policy.redistribute_us_p50"] = redistribute.P50();
  m["policy.pstate_writes"] = static_cast<double>(t.msr_writes);
  m["cluster.leaf_period_ms"] = Median(ins->probes->period_ms());
  m["cluster.arbitrate_us"] = Median(t.arbitrate_s) * 1e6;
  m["cluster.arbitrate_ns_per_node"] = Median(t.arbitrate_s) * 1e9 / t.nodes;
  m["cluster.fleet_collect_ms"] = t.collect_s * 1e3;
  m["cluster.live_leaves"] = t.live_leaves;
  m["cluster.slo_violation_pct"] =
      Per(100.0 * static_cast<double>(t.result.total_slo_violations),
          static_cast<double>(t.result.total_measured_periods));
  m["bench.unattributed_pct"] =
      Per(100.0 * (measured_ns - arbitrate_ns - leaves_ns - t.collect_s * 1e9), measured_ns);
  m["bench.trace_overhead_pct"] =
      Per(100.0 * (t.measured_s + t.instrument_s - r.measured_s), r.measured_s);
  // Shares of the measured wall time, for the README's attribution table.
  m["share.collect_pct"] = Per(100.0 * t.collect_s * 1e9, measured_ns);
  m["share.arbitrate_pct"] = Per(100.0 * arbitrate_ns, measured_ns);
  m["share.leaves_pct"] = Per(100.0 * leaves_ns, measured_ns);
  m["share.cpusim_pct"] = Per(100.0 * ns_per_socket_period_tick * socket_periods, measured_ns);
  m["share.websearch_pct"] =
      Per(100.0 * Per(lt.WebsearchNs(), static_cast<double>(ins->mirror_periods)) *
              socket_periods,
          measured_ns);
  m["share.policy_pct"] =
      Per(100.0 * Per(lt.daemon_ns, static_cast<double>(ins->mirror_periods)) * socket_periods,
          measured_ns);
}

}  // namespace perfbench
