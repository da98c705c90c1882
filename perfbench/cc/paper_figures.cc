// paper_figures: the point lists of the fig07, fig09, fig10 and fig12
// benches, run one after another on the calling thread through
// RunScenario / RunWebsearch with those benches' windows, taking one point
// of each figure in turn.
//
// Setup is what the points pay before their measurement windows: the
// Standalone() baseline fill for every (platform, profile) they use, then
// every point's construction and warmup (its RunScenario / RunWebsearch
// with an empty window).  A measured pass runs and reduces every point;
// one step is one simulated control period (1 s) of a point, so the step
// times are point wall time divided by the point's periods.

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cc/common.h"
#include "cc/mirror.h"
#include "src/experiments/harness.h"
#include "src/experiments/scenarios.h"

namespace perfbench {
namespace {

using papd::PolicyKind;
using papd::Seconds;
using papd::Watts;

struct Point {
  std::string label;
  bool websearch = false;
  bool resource_shares = false;  // fig09/fig10 reduce with AddResourceShares.
  papd::ScenarioConfig sc{.platform = papd::SkylakeXeon4114()};
  papd::WebsearchConfig wc{.platform = papd::SkylakeXeon4114()};

  const papd::PlatformSpec& platform() const { return websearch ? wc.platform : sc.platform; }
  Watts limit() const { return websearch ? wc.limit_w : sc.limit_w; }
  double sim_s() const {
    return websearch ? (wc.warmup_s + wc.measure_s).value() : (sc.warmup_s + sc.measure_s).value();
  }
  double core_ticks() const { return platform().num_cores * sim_s() / 0.001; }
};

std::vector<Point> BuildPoints(uint64_t seed, bool quick) {
  std::vector<Point> points;
  auto scenario = [&](const std::string& label, papd::PlatformSpec platform,
                      std::vector<papd::AppSetup> apps, PolicyKind policy, double limit,
                      bool shares) {
    Point p;
    p.label = label;
    p.resource_shares = shares;
    p.sc.platform = std::move(platform);
    p.sc.apps = std::move(apps);
    p.sc.policy = policy;
    p.sc.limit_w = Watts{limit};
    p.sc.warmup_s = Seconds{30};
    p.sc.measure_s = Seconds{60};
    points.push_back(std::move(p));
  };
  // fig07: Table 2 mixes under priority and RAPL at 85/50/40 W.
  for (PolicyKind policy : {PolicyKind::kPriority, PolicyKind::kRaplOnly}) {
    for (double limit : {85.0, 50.0, 40.0}) {
      for (const papd::WorkloadMix& mix : papd::SkylakePriorityMixes()) {
        scenario("fig07", papd::SkylakeXeon4114(), mix.apps, policy, limit, false);
      }
    }
  }
  // fig09: 5x leela vs 5x cactusBSSN share splits on Skylake.
  for (PolicyKind policy :
       {PolicyKind::kFrequencyShares, PolicyKind::kPerformanceShares, PolicyKind::kRaplOnly}) {
    for (double limit : {40.0, 50.0}) {
      for (auto [ld, hd] : {std::pair{90.0, 10.0}, {70.0, 30.0}, {50.0, 50.0}}) {
        scenario("fig09", papd::SkylakeXeon4114(), papd::ShareSplitMix(10, ld, hd).apps,
                 policy, limit, true);
      }
    }
  }
  // fig10: 4x leela vs 4x cactusBSSN on Ryzen, all three share types.
  for (PolicyKind policy : {PolicyKind::kFrequencyShares, PolicyKind::kPerformanceShares,
                            PolicyKind::kPowerShares}) {
    for (double limit : {40.0, 50.0}) {
      for (auto [ld, hd] : {std::pair{90.0, 10.0}, {70.0, 30.0}, {50.0, 50.0}, {30.0, 70.0}}) {
        scenario("fig10", papd::Ryzen1700X(), papd::ShareSplitMix(8, ld, hd).apps, policy,
                 limit, true);
      }
    }
  }
  // fig12: closed-loop websearch alone and next to cpuburn under each policy.
  for (double limit : {65.0, 55.0, 50.0, 45.0, 40.0, 35.0}) {
    for (int k = 0; k < 5; k++) {
      Point p;
      p.label = "fig12";
      p.websearch = true;
      p.wc.platform = papd::SkylakeXeon4114();
      p.wc.limit_w = Watts{limit};
      p.wc.warmup_s = Seconds{20};
      p.wc.measure_s = Seconds{240};
      const PolicyKind kPolicies[] = {PolicyKind::kRaplOnly, PolicyKind::kRaplOnly,
                                      PolicyKind::kFrequencyShares,
                                      PolicyKind::kPerformanceShares, PolicyKind::kPriority};
      p.wc.policy = kPolicies[k];
      p.wc.with_cpuburn = k > 0;
      points.push_back(std::move(p));
    }
  }
  // The workload seed reaches the program only through these configs.
  for (size_t i = 0; i < points.size(); i++) {
    const uint64_t s = seed * 1000003ULL + 7919ULL * i;
    points[i].sc.seed = s;
    points[i].wc.seed = s;
  }
  // Round-robin over the figures, so that a stretch of host contention
  // falls on points of every figure.  Run figure by figure, one stretch
  // would slow fig07's points alone, and their per-period costs sit
  // together around the median step.
  std::vector<std::vector<Point>> by_figure;
  for (Point& p : points) {
    if (by_figure.empty() || by_figure.back().front().label != p.label) {
      by_figure.emplace_back();
    }
    by_figure.back().push_back(std::move(p));
  }
  const size_t total = points.size();
  points.clear();
  for (size_t k = 0; points.size() < total; k++) {
    for (std::vector<Point>& figure : by_figure) {
      if (k < figure.size()) {
        points.push_back(std::move(figure[k]));
      }
    }
  }
  if (quick) {
    // One point per figure, with short windows.
    std::vector<Point> few;
    std::set<std::string> seen;
    for (Point& p : points) {
      if (seen.insert(p.label).second) {
        p.sc.warmup_s = Seconds{3};
        p.sc.measure_s = Seconds{5};
        p.wc.warmup_s = Seconds{3};
        p.wc.measure_s = Seconds{10};
        few.push_back(std::move(p));
      }
    }
    points = std::move(few);
  }
  return points;
}

// Per-point output check; false counts the point as failed.
bool CheckScenario(const Point& p, const papd::ScenarioResult& r) {
  const double w = r.avg_pkg_w.value();
  bool ok = std::isfinite(w) && w > 0.0 && w <= p.limit().value() * 1.02;
  for (const papd::AppResult& a : r.apps) {
    ok = ok && std::isfinite(a.avg_ips.value()) && a.avg_ips.value() >= 0.0;
  }
  return ok;
}

bool CheckWebsearch(const Point& p, const papd::WebsearchResult& r) {
  const double w = r.avg_pkg_w.value();
  const double p90 = r.p90_latency.value();
  return std::isfinite(w) && w > 0.0 && w <= p.limit().value() * 1.02 &&
         r.completed_requests > 0 && std::isfinite(p90) && p90 > 0.0;
}

struct PassResult {
  std::string digest;
  double wall_s = 0.0;
  double core_ticks = 0.0;
  std::vector<double> point_s;  // Wall time per point.
  int64_t failed = 0;
};

// A pass through the program's own entry points.
PassResult RunPass(const std::vector<Point>& points) {
  PassResult out;
  Digest digest;
  const double pass_start = NowS();
  for (const Point& p : points) {
    const double t0 = NowS();
    bool ok = false;
    if (p.websearch) {
      const papd::WebsearchResult r = papd::RunWebsearch(p.wc);
      DigestWebsearch(r, &digest);
      ok = CheckWebsearch(p, r);
    } else {
      papd::ScenarioResult r = papd::RunScenario(p.sc);
      if (p.resource_shares) {
        papd::AddResourceShares(&r);
      }
      DigestScenario(r, &digest);
      ok = CheckScenario(p, r);
    }
    out.point_s.push_back(NowS() - t0);
    out.core_ticks += p.core_ticks();
    out.failed += ok ? 0 : 1;
  }
  out.wall_s = NowS() - pass_start;
  out.digest = digest.Hex();
  return out;
}

// The same pass through the mirrored stacks, with layer spans.
struct TracedPass {
  std::string digest;
  double wall_s = 0.0;
  LayerTimes lt;
  uint64_t arrivals = 0;
  uint64_t completed = 0;
};

TracedPass RunTracedPass(const std::vector<Point>& points, HistogramSum* redistribute_us) {
  TracedPass out;
  Digest digest;
  const double start = NowS();
  for (const Point& p : points) {
    if (p.websearch) {
      auto m = MirrorSocket::FromWebsearch(p.wc, &out.lt);
      m->Advance(p.wc.warmup_s);
      m->StartWindow();
      m->Advance(p.wc.measure_s);
      const papd::WebsearchResult r = m->ReduceWebsearch(p.wc);
      DigestWebsearch(r, &digest);
      redistribute_us->Add(m->daemon().metrics().Export(), "daemon.redistribute_latency_us");
      out.arrivals += m->websearch()->arrivals();
      out.completed += m->websearch()->completed_requests();
    } else {
      auto m = MirrorSocket::FromScenario(p.sc, &out.lt);
      m->Advance(p.sc.warmup_s);
      m->StartWindow();
      m->Advance(p.sc.measure_s);
      papd::ScenarioResult r = m->ReduceScenario(p.sc);
      if (p.resource_shares) {
        papd::AddResourceShares(&r);
      }
      DigestScenario(r, &digest);
      redistribute_us->Add(m->daemon().metrics().Export(), "daemon.redistribute_latency_us");
    }
  }
  out.wall_s = NowS() - start;
  out.digest = digest.Hex();
  return out;
}

// Setup: the Standalone() baselines every point normalizes against, then
// each point up to its measurement window.
double Setup(const std::vector<Point>& points, std::string* setup_digest, double* per_fill_ms) {
  std::set<std::pair<std::string, std::string>> keys;
  std::vector<std::pair<papd::PlatformSpec, std::string>> fills;
  for (const Point& p : points) {
    std::vector<std::string> profiles;
    if (p.websearch) {
      if (p.wc.with_cpuburn) {
        profiles.push_back("cpuburn");
      }
    } else {
      for (const papd::AppSetup& a : p.sc.apps) {
        profiles.push_back(a.profile);
      }
    }
    for (const std::string& prof : profiles) {
      if (keys.insert({p.platform().name, prof}).second) {
        fills.emplace_back(p.platform(), prof);
      }
    }
  }
  Digest d;
  const double t0 = NowS();
  for (const auto& [platform, profile] : fills) {
    const papd::StandaloneBaseline b = papd::Standalone(platform, profile);
    d.Q(b.ips);
    d.Q(b.pkg_w);
    d.Q(b.core_w);
  }
  const double t1 = NowS();
  for (const Point& p : points) {
    // The result of an empty window has nothing to check or digest.
    if (p.websearch) {
      papd::WebsearchConfig c = p.wc;
      c.measure_s = Seconds{0};
      papd::RunWebsearch(c);
    } else {
      papd::ScenarioConfig c = p.sc;
      c.measure_s = Seconds{0};
      papd::RunScenario(c);
    }
  }
  const double t2 = NowS();
  *setup_digest = d.Hex();
  *per_fill_ms = Per((t1 - t0) * 1e3, static_cast<double>(fills.size()));
  return t2 - t0;
}

// obs tracing cost on one point: RunScenario with ObsOptions.trace on and
// off, in alternating pairs.
void ObsOverhead(const Point& p, int pairs, Report* report) {
  std::vector<double> ratios;
  double events_per_sim_s = 0.0;
  for (int i = 0; i < pairs; i++) {
    papd::ScenarioConfig off = p.sc;
    papd::ScenarioConfig on = p.sc;
    on.run.obs.trace = true;
    const double t0 = NowS();
    const papd::ScenarioResult r_off = papd::RunScenario(off);
    const double t1 = NowS();
    const papd::ScenarioResult r_on = papd::RunScenario(on);
    const double t2 = NowS();
    ratios.push_back((t2 - t1) / (t1 - t0));
    events_per_sim_s = static_cast<double>(r_on.trace_events.size()) / p.sim_s();
    Digest a;
    Digest b;
    DigestScenario(r_off, &a);
    DigestScenario(r_on, &b);
    if (a.value() != b.value()) {
      report->Error("obs tracing changed the simulated outputs of " + p.label);
    }
  }
  report->metrics["obs.trace_overhead_pct"] = (Median(ratios) - 1.0) * 100.0;
  report->metrics["obs.events_per_sim_s"] = events_per_sim_s;
}

}  // namespace

void RunPaperFigures(const Options& opt, Report* report) {
  const std::vector<Point> points = BuildPoints(opt.seed, opt.quick);
  double per_fill_ms = 0.0;
  report->setup_s.push_back(Setup(points, &report->setup_digest, &per_fill_ms));
  if (opt.phase == "setup") {
    return;
  }

  if (opt.phase == "measure") {
    // One pass; a step is one simulated control period of a point.
    const PassResult pass = RunPass(points);
    report->AddRepetition(report->setup_digest, pass.digest);
    report->attempted += static_cast<int64_t>(points.size());
    report->failed += pass.failed;
    std::vector<double> period_ms;
    for (size_t i = 0; i < points.size(); i++) {
      period_ms.push_back(pass.point_s[i] * 1e3 / points[i].sim_s());
    }
    report->AddMeasured(std::move(period_ms), pass.wall_s, pass.core_ticks);
    return;
  }

  // Traced: pairs of a plain pass and a mirrored pass, until the measured
  // time reaches --seconds.
  std::vector<PassResult> passes;
  std::vector<TracedPass> traced;
  HistogramSum redistribute;
  double measured = 0.0;
  while (passes.empty() || measured < opt.seconds) {
    passes.push_back(RunPass(points));
    traced.push_back(RunTracedPass(points, &redistribute));
    measured += passes.back().wall_s + traced.back().wall_s;
  }
  for (const PassResult& p : passes) {
    report->AddRepetition(report->setup_digest, p.digest);
    report->attempted += static_cast<int64_t>(points.size());
    report->failed += p.failed;
  }
  for (const TracedPass& t : traced) {
    report->AddRepetition(report->setup_digest, t.digest);
  }

  // Traced: layer shares from the mirrored passes.
  LayerTimes lt;
  std::vector<double> overhead;
  double traced_wall = 0.0;
  uint64_t arrivals = 0;
  uint64_t completed = 0;
  for (size_t i = 0; i < traced.size(); i++) {
    lt.Merge(traced[i].lt);
    overhead.push_back((traced[i].wall_s / passes[i].wall_s - 1.0) * 100.0);
    traced_wall += traced[i].wall_s;
    arrivals = traced[i].arrivals;
    completed = traced[i].completed;
  }
  const double work_ns = lt.ProcessNs() + lt.WebsearchNs();
  auto& m = report->metrics;
  m["cpusim.tick_ns_per_core_tick"] = Per(lt.tick_ns - work_ns, static_cast<double>(lt.core_ticks));
  m["specsim.process_ns_per_core_tick"] =
      Per(lt.ProcessNs(), static_cast<double>(lt.process_core_ticks));
  m["specsim.websearch_ns_per_core_tick"] =
      Per(lt.WebsearchNs(), static_cast<double>(lt.websearch_core_ticks));
  m["specsim.busy_pct"] = Per(100.0 * static_cast<double>(lt.busy_core_ticks),
                              static_cast<double>(lt.serving_core_ticks));
  m["specsim.arrivals"] = static_cast<double>(arrivals);
  m["specsim.completed"] = static_cast<double>(completed);
  m["msr.sample_us"] = Per(lt.sample_ns / 1e3, static_cast<double>(lt.samples));
  m["policy.daemon_step_us"] = Per(lt.daemon_ns / 1e3, static_cast<double>(lt.daemon_steps));
  m["policy.redistribute_us_p50"] = redistribute.P50();
  m["policy.pstate_writes"] = static_cast<double>(lt.msr_writes / traced.size());
  m["experiments.standalone_ms"] = per_fill_ms;
  // The side sampler is instrument-only work; it is not part of a step.
  const double program_ns = traced_wall * 1e9 - lt.sample_ns;
  m["bench.unattributed_pct"] = Per(100.0 * (program_ns - lt.tick_ns - lt.daemon_ns), program_ns);
  m["bench.trace_overhead_pct"] = Median(overhead);
  // Layer shares of the traced wall time (README's attribution table).
  m["share.cpusim_pct"] = Per(100.0 * (lt.tick_ns - work_ns), program_ns);
  m["share.specsim_pct"] = Per(100.0 * work_ns, program_ns);
  m["share.policy_pct"] = Per(100.0 * lt.daemon_ns, program_ns);
  const auto fig09 = std::find_if(points.begin(), points.end(),
                                  [](const Point& p) { return p.label == "fig09"; });
  ObsOverhead(*fig09, opt.quick ? 1 : 5, report);
}

}  // namespace perfbench
