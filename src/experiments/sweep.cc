#include "src/experiments/sweep.h"

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/json.h"
#include "src/experiments/batch.h"
#include "src/obs/export.h"
#include "src/policy/policy_registry.h"

namespace papd {

namespace {

// Axis values in the shortest spelling that reads back exactly ("1e+06"
// for populations, "40" for watts), so distinct values never share a
// label.
std::string FormatDouble(double v) {
  std::string out;
  json::AppendShortest(&out, v);
  return out;
}

struct AxisValues {
  double users = 0.0;
  bool has_users = false;
  Watts cap_w{0.0};
  bool has_cap = false;
  ArrivalShape shape = ArrivalShape::kConstant;
  bool has_shape = false;
  std::string mix;
  bool has_mix = false;
  std::string policy;
};

// The swept non-policy axes as "k=v" labels, in axis order.
std::vector<std::string> AxisLabels(const AxisValues& v) {
  std::vector<std::string> labels;
  if (v.has_users) {
    labels.push_back("users=" + FormatDouble(v.users));
  }
  if (v.has_cap) {
    labels.push_back("cap=" + FormatDouble(v.cap_w.value()) + "w");
  }
  if (v.has_shape) {
    labels.push_back(std::string("shape=") + ArrivalShapeName(v.shape));
  }
  if (v.has_mix) {
    labels.push_back("mix=" + v.mix);
  }
  return labels;
}

std::string PlotGroup(const AxisValues& v) {
  std::string group;
  for (const std::string& kv : AxisLabels(v)) {
    group += (group.empty() ? "" : ",") + kv;
  }
  return group;
}

// The plotgroup's labels as path segments, then the policy.
std::string PointName(const SweepSpec& spec, const AxisValues& v) {
  std::string name = spec.name;
  for (const std::string& kv : AxisLabels(v)) {
    name += "/" + kv;
  }
  return name + "/policy=" + v.policy;
}

void WriteSummary(json::Writer* w, const RunSummary& s) {
  w->BeginObject().Key("avg_pkg_w").Number(s.avg_pkg_w.value());
  w->Key("max_pkg_w").Number(s.max_pkg_w.value()).Key("measured_s").Number(s.measured_s.value());
  w->Key("energy_j").Number(s.energy_j.value());
  w->Key("p50_latency_s").Number(s.p50_latency.value());
  w->Key("p90_latency_s").Number(s.p90_latency.value());
  w->Key("p99_latency_s").Number(s.p99_latency.value());
  w->Key("completed_requests").Uint(s.completed_requests);
  if (!s.apps.empty()) {
    w->Key("apps").BeginArray();
    for (const AppResult& a : s.apps) {
      w->BeginObject().Key("name").String(a.name).Key("cpu").Int(a.cpu);
      w->Key("norm_perf").Number(a.norm_perf);
      w->Key("avg_active_mhz").Number(a.avg_active_mhz.value()).EndObject();
    }
    w->EndArray();
  }
  w->EndObject();
}

}  // namespace

const char* SweepTargetName(SweepTarget target) {
  switch (target) {
    case SweepTarget::kScenario:
      return "scenario";
    case SweepTarget::kFleet:
      return "fleet";
  }
  return "unknown";
}

FleetPolicy FleetPolicyStatic() {
  return FleetPolicy{"static", RackArbiterKind::kShares, false};
}

FleetPolicy FleetPolicyPriority() {
  return FleetPolicy{"priority", RackArbiterKind::kShares, true};
}

FleetPolicy FleetPolicySloFeedback() {
  return FleetPolicy{"slo-feedback", RackArbiterKind::kSloFeedback, false};
}

std::vector<SweepPoint> ExpandSweep(const SweepSpec& spec) {
  PAPD_CHECK(!spec.name.empty()) << " sweeps must be named (plot labels)";
  const SweepAxes& axes = spec.axes;
  const bool scenario = spec.target == SweepTarget::kScenario;
  PAPD_CHECK(scenario || axes.mixes.empty()) << "workload mixes are a scenario axis";

  // Empty axes contribute exactly the base config's value; sentinel lists
  // keep the loop structure uniform.
  AxisValues v;
  v.has_users = !axes.users.empty();
  v.has_cap = !axes.caps_w.empty();
  v.has_shape = !axes.shapes.empty();
  v.has_mix = !axes.mixes.empty();
  const std::vector<double> users = v.has_users ? axes.users : std::vector<double>{0.0};
  const std::vector<Watts> caps = v.has_cap ? axes.caps_w : std::vector<Watts>{Watts{0.0}};
  const std::vector<ArrivalShape> shapes =
      v.has_shape ? axes.shapes : std::vector<ArrivalShape>{ArrivalShape::kConstant};
  const std::vector<WorkloadMix> mixes =
      v.has_mix ? axes.mixes : std::vector<WorkloadMix>{WorkloadMix{}};
  const std::vector<PolicyKind> policies =
      axes.policies.empty() ? std::vector<PolicyKind>{spec.scenario_base.policy} : axes.policies;
  const std::vector<FleetPolicy> fleet_policies =
      axes.fleet_policies.empty() ? std::vector<FleetPolicy>{FleetPolicyStatic()}
                                  : axes.fleet_policies;
  const size_t num_policies = scenario ? policies.size() : fleet_policies.size();

  std::vector<SweepPoint> points;
  std::set<std::string> names;
  for (double u : users) {
    for (Watts cap : caps) {
      for (ArrivalShape shape : shapes) {
        for (const WorkloadMix& mix : mixes) {
          for (size_t k = 0; k < num_policies; ++k) {
            SweepPoint p;
            if (scenario) {
              p.scenario = spec.scenario_base;
              p.scenario.policy = policies[k];
              if (v.has_cap) {
                p.scenario.limit_w = cap;
              }
              if (v.has_mix) {
                p.scenario.apps = mix.apps;
              }
              p.cap_w = p.scenario.limit_w;
              p.shape = shape;
              p.policy = PolicyKindName(policies[k]);
            } else {
              const FleetPolicy& policy = fleet_policies[k];
              p.fleet = spec.fleet_base;
              p.fleet.arbiter = policy.arbiter;
              p.fleet.priority_hot = policy.priority_hot;
              if (v.has_users) {
                p.fleet.users = u;
              }
              if (v.has_cap) {
                p.fleet.budget_w = cap;
              }
              if (v.has_shape) {
                p.fleet.shape = shape;
              }
              p.users = p.fleet.users;
              p.cap_w = p.fleet.budget_w;
              p.shape = p.fleet.shape;
              p.policy = policy.name;
            }
            p.mix = mix.label;
            v.users = p.users;
            v.cap_w = cap;
            v.shape = shape;
            v.mix = mix.label;
            v.policy = p.policy;
            p.name = PointName(spec, v);
            p.plotgroup = PlotGroup(v);
            p.plotkey = p.policy;
            PAPD_CHECK(names.insert(p.name).second) << "duplicate sweep point" << p.name;
            points.push_back(std::move(p));
          }
        }
      }
    }
  }
  return points;
}

SweepResult RunSweep(const SweepSpec& spec, ThreadPool* pool) {
  SweepResult result;
  result.name = spec.name;
  result.target = spec.target;
  std::vector<SweepPoint> points = ExpandSweep(spec);
  result.points.reserve(points.size());

  if (spec.target == SweepTarget::kScenario) {
    // Scenario points are independent single-socket runs; the batch engine
    // fans the whole cross-product out at once.
    std::vector<ScenarioConfig> configs;
    configs.reserve(points.size());
    for (const SweepPoint& p : points) {
      configs.push_back(p.scenario);
    }
    std::vector<ScenarioResult> runs = RunScenarios(configs, pool);
    for (size_t i = 0; i < points.size(); ++i) {
      SweepPointResult pr;
      pr.point = std::move(points[i]);
      pr.summary = std::move(runs[i]);
      result.points.push_back(std::move(pr));
    }
    return result;
  }

  // Fleet points each saturate the pool internally (hundreds of leaves), so
  // they run one after another.
  for (SweepPoint& p : points) {
    FleetResult run = RunFleet(p.fleet, spec.fleet_warmup_s, spec.fleet_measure_s, pool);
    SweepPointResult pr;
    pr.point = std::move(p);
    pr.summary = std::move(run.summary);
    pr.sockets = std::move(run.sockets);
    pr.total_slo_violations = run.total_slo_violations;
    pr.total_measured_periods = run.total_measured_periods;
    pr.max_grant_overrun_w = run.max_grant_overrun_w;
    result.points.push_back(std::move(pr));
  }
  return result;
}

std::string SweepResultToJson(const SweepResult& result) {
  json::Writer w;
  w.BeginObject().Key("sweep").String(result.name);
  w.Key("target").String(SweepTargetName(result.target)).Key("points").BeginArray();
  for (const SweepPointResult& pr : result.points) {
    const SweepPoint& p = pr.point;
    w.BeginObject().Key("name").String(p.name).Key("plotgroup").String(p.plotgroup);
    w.Key("plotkey").String(p.plotkey).Key("users").Number(p.users);
    w.Key("cap_w").Number(p.cap_w.value()).Key("shape").String(ArrivalShapeName(p.shape));
    w.Key("policy").String(p.policy).Key("summary");
    WriteSummary(&w, pr.summary);
    if (result.target == SweepTarget::kFleet) {
      w.Key("total_slo_violations").Uint(pr.total_slo_violations);
      w.Key("total_measured_periods").Uint(pr.total_measured_periods);
      w.Key("max_grant_overrun_w").Number(pr.max_grant_overrun_w.value());
      w.Key("sockets").BeginArray();
      for (const FleetSocketResult& sr : pr.sockets) {
        w.BeginObject().Key("path").String(sr.path).Key("hot").Bool(sr.hot);
        w.Key("grant_w").Number(sr.grant_w.value()).Key("p50_s").Number(sr.p50.value());
        w.Key("p90_s").Number(sr.p90.value()).Key("p99_s").Number(sr.p99.value());
        w.Key("completed").Uint(sr.completed).Key("arrivals").Uint(sr.arrivals);
        w.Key("slo_violation_periods").Uint(sr.slo_violation_periods);
        w.Key("measured_periods").Uint(sr.measured_periods);
        w.Key("mean_queue_depth").Number(sr.mean_queue_depth);
        w.Key("peak_queue_depth").Uint(sr.peak_queue_depth).EndObject();
      }
      w.EndArray();
    }
    w.EndObject();
  }
  w.EndArray().EndObject();
  return w.Finish();
}

void WriteSweepJson(const SweepResult& result, const std::string& path) {
  PAPD_CHECK(obs::WriteFile(path, SweepResultToJson(result))) << " cannot write " << path;
}

}  // namespace papd
