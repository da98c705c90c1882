// Table 1 and Figures 1-13.  Figures that sweep only policy x cap x
// workload mix are SweepSpecs run through RunSweep; the rest step the
// simulator or sweep something else, and stay plain functions.

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/figures.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/cpusim/package.h"
#include "src/cpusim/simulator.h"
#include "src/cpusim/timeshare.h"
#include "src/experiments/batch.h"
#include "src/experiments/scenarios.h"
#include "src/specsim/spec2017.h"
#include "src/specsim/workload.h"

namespace papd {

namespace {

std::string LimitLabel(Watts limit) { return TextTable::Num(limit.value(), 0) + "W"; }

std::string Pct(double fraction, int precision = 1) {
  return TextTable::Num(fraction * 100.0, precision) + "%";
}

// Scenario sweeps share the paper's settling windows.
SweepSpec ScenarioSweep(const std::string& name, const PlatformSpec& platform, Seconds warmup,
                        Seconds measure) {
  SweepSpec spec;
  spec.name = name;
  spec.target = SweepTarget::kScenario;
  spec.scenario_base = ScenarioConfig{.platform = platform};
  spec.scenario_base.warmup_s = warmup;
  spec.scenario_base.measure_s = measure;
  return spec;
}

}  // namespace

// The sweeps of Figures 1, 7 and 9 (described with each figure below).

SweepSpec Fig01Spec() {
  SweepSpec spec = ScenarioSweep("fig01", SkylakeXeon4114(), Seconds{20}, Seconds{60});
  spec.scenario_base.policy = PolicyKind::kRaplOnly;
  spec.scenario_base.apps.assign(5, AppSetup{.profile = "gcc"});
  spec.scenario_base.apps.resize(10, AppSetup{.profile = "cam4"});
  spec.axes.caps_w = {Watts{85.0}, Watts{60.0}, Watts{50.0}, Watts{40.0}};
  return spec;
}

SweepSpec Fig07Spec() {
  SweepSpec spec = ScenarioSweep("fig07", SkylakeXeon4114(), Seconds{30}, Seconds{60});
  spec.axes.caps_w = {Watts{85.0}, Watts{50.0}, Watts{40.0}};
  spec.axes.mixes = SkylakePriorityMixes();
  spec.axes.policies = {PolicyKind::kPriority, PolicyKind::kRaplOnly};
  return spec;
}

SweepSpec Fig09Spec() {
  SweepSpec spec = ScenarioSweep("fig09", SkylakeXeon4114(), Seconds{30}, Seconds{60});
  spec.axes.caps_w = {Watts{40.0}, Watts{50.0}};
  spec.axes.mixes = {ShareSplitMix(10, 90, 10), ShareSplitMix(10, 70, 30),
                     ShareSplitMix(10, 50, 50)};
  spec.axes.policies = {PolicyKind::kFrequencyShares, PolicyKind::kPerformanceShares,
                        PolicyKind::kRaplOnly};
  return spec;
}

namespace {

// --- Table 1: summary of power-management features (mechanisms) available
// on the two evaluation platforms.

void Table01(std::ostream& os) {
  for (const PlatformSpec& spec : {SkylakeXeon4114(), Ryzen1700X()}) {
    PrintBanner(os, spec.name);
    TextTable t;
    t.SetHeader({"feature", "value"});
    t.AddRow({"cores", std::to_string(spec.num_cores)});
    t.AddRow({"frequency range",
              TextTable::Num(spec.min_mhz.value() / 1000.0, 1) + "-" +
                  TextTable::Num(spec.base_max_mhz.value() / 1000.0, 1) + " GHz + " +
                  TextTable::Num(spec.turbo_max_mhz.value() / 1000.0, 1) + " GHz boost"});
    t.AddRow({"DVFS increments", TextTable::Num(spec.step_mhz.value(), 0) + " MHz"});
    t.AddRow({"per-core DVFS", spec.max_simultaneous_pstates == 0
                                   ? "yes (independent per core)"
                                   : "yes (" + std::to_string(spec.max_simultaneous_pstates) +
                                         " simultaneous P-states)"});
    t.AddRow({"RAPL power capping",
              spec.has_rapl_limit ? TextTable::Num(spec.rapl_min_w.value(), 0) + "-" +
                                        TextTable::Num(spec.rapl_max_w.value(), 0) + " W"
                                  : "not available"});
    t.AddRow({"platform power measurement", "yes (package energy counter)"});
    t.AddRow({"per-core power measurement", spec.has_per_core_power ? "yes" : "no"});
    t.AddRow({"TDP", TextTable::Num(spec.tdp_w.value(), 0) + " W"});
    t.AddRow({"AVX frequency caps",
              TextTable::Num(spec.avx_max_mhz_light.value(), 0) + " MHz (<=" +
                  std::to_string(spec.avx_light_cores) + " AVX cores), " +
                  TextTable::Num(spec.avx_max_mhz_heavy.value(), 0) + " MHz (more)"});
    t.Print(os);
  }
}

// --- Figure 1: performance interference between applications under RAPL,
// normalized to standalone execution at 85 W.
//
// Five copies of gcc (low demand) and five of cam4 (high demand, AVX) run
// concurrently on the ten Skylake cores under progressively lower RAPL
// limits.  The paper's observations to reproduce:
//   - cam4 is pinned near its AVX frequency cap regardless of the limit;
//   - as the limit drops, RAPL's global ceiling throttles gcc *first* and
//     *harder* in relative terms, even though gcc draws less power;
//   - at the lowest limit both run at the same frequency, which costs gcc a
//     far larger fraction of its standalone performance.

void Fig01(std::ostream& os) {
  TextTable t;
  t.SetHeader({"limit", "pkg W", "gcc MHz", "gcc perf", "cam4 MHz", "cam4 perf",
               "gcc loss", "cam4 loss"});
  for (const SweepPointResult& pr : RunSweep(Fig01Spec()).points) {
    const AppGroup gcc = GroupOf(pr.summary, "gcc");
    const AppGroup cam = GroupOf(pr.summary, "cam4");
    t.AddRow({LimitLabel(pr.point.cap_w), TextTable::Num(pr.summary.avg_pkg_w.value(), 1),
              TextTable::Num(gcc.mhz.value(), 0), TextTable::Num(gcc.perf, 2),
              TextTable::Num(cam.mhz.value(), 0), TextTable::Num(cam.perf, 2),
              Pct(1.0 - gcc.perf), Pct(1.0 - cam.perf)});
  }
  t.Print(os);
  os << "\nPaper shape check: gcc's relative loss exceeds cam4's at every limit\n"
        "below 85 W, and both converge to the same frequency at 40 W.\n";
}

// --- Figures 2-3: effects of DVFS on Skylake and Ryzen for the SPEC
// CPU2017 subset.
//
// Every benchmark runs pinned to an isolated core with all cores set to the
// same P-state; we report the distribution (median, quartiles, p1/p99)
// across the 11 benchmarks of (a) performance normalized to a reference
// frequency and (b) average package power — the two panels of the paper's
// box plots.

struct DvfsPoint {
  Ips ips{0.0};
  Watts pkg_w{0.0};
  Mhz active_mhz{0.0};
};

// benchmark -> MHz -> point.
using DvfsSweep = std::map<std::string, std::map<double, DvfsPoint>>;

// Runs every benchmark at each `step` from the platform's minimum to its
// maximum frequency (and at `ref`), and prints panels (a) and (b).
DvfsSweep RunDvfsSweep(std::ostream& os, const PlatformSpec& platform, Mhz step, Mhz ref) {
  std::vector<Mhz> freqs;
  for (Mhz f = platform.min_mhz; f <= platform.turbo_max_mhz; f += step) {
    freqs.push_back(f);
  }
  std::vector<Mhz> runs = freqs;
  if (std::find(runs.begin(), runs.end(), ref) == runs.end()) {
    runs.push_back(ref);
  }

  // The full benchmark x frequency grid fans out across the pool.
  std::vector<ScenarioConfig> configs;
  std::vector<std::pair<std::string, Mhz>> keys;
  for (const std::string& name : SpecBenchmarkNames()) {
    for (Mhz f : runs) {
      ScenarioConfig c{.platform = platform};
      c.apps = {{.profile = name}};
      c.policy = PolicyKind::kStatic;
      c.static_mhz = f;
      c.warmup_s = Seconds{5};
      c.measure_s = Seconds{20};
      configs.push_back(c);
      keys.emplace_back(name, f);
    }
  }
  const std::vector<ScenarioResult> results = RunScenarios(configs);
  DvfsSweep sweep;
  for (size_t i = 0; i < results.size(); i++) {
    const AppResult& app = results[i].apps[0];
    sweep[keys[i].first][keys[i].second.value()] = DvfsPoint{
        .ips = app.avg_ips, .pkg_w = results[i].avg_pkg_w, .active_mhz = app.avg_active_mhz};
  }

  PrintBanner(os, "(a) Performance normalized to " + TextTable::Num(ref.value() / 1000.0, 1) +
                      " GHz (box stats over benchmarks)");
  TextTable perf;
  perf.SetHeader({"MHz", "p1", "q1", "median", "q3", "p99"});
  for (Mhz f : freqs) {
    std::vector<double> values;
    for (const std::string& name : SpecBenchmarkNames()) {
      values.push_back(sweep[name][f.value()].ips / sweep[name][ref.value()].ips);
    }
    const BoxStats s = Summarize(values);
    perf.AddRow({TextTable::Num(f.value(), 0), TextTable::Num(s.p1, 2), TextTable::Num(s.q1, 2),
                 TextTable::Num(s.median, 2), TextTable::Num(s.q3, 2),
                 TextTable::Num(s.p99, 2)});
  }
  perf.Print(os);

  PrintBanner(os, "(b) Average package power in watts (box stats over benchmarks)");
  TextTable power;
  power.SetHeader({"MHz", "p1", "q1", "median", "q3", "p99"});
  for (Mhz f : freqs) {
    std::vector<double> values;
    for (const std::string& name : SpecBenchmarkNames()) {
      values.push_back(sweep[name][f.value()].pkg_w.value());
    }
    const BoxStats s = Summarize(values);
    power.AddRow({TextTable::Num(f.value(), 0), TextTable::Num(s.p1, 1), TextTable::Num(s.q1, 1),
                  TextTable::Num(s.median, 1), TextTable::Num(s.q3, 1),
                  TextTable::Num(s.p99, 1)});
  }
  power.Print(os);
  return sweep;
}

// Figure 2, Skylake, normalized to 2.2 GHz.  Shape features to reproduce:
// AVX apps (lbm, imagick, cam4) are power outliers whose performance
// saturates near 1.9 GHz, and package power jumps by ~5 W entering the
// turbo region above 2.2 GHz.
void Fig02(std::ostream& os) {
  const Mhz ref{2200};
  DvfsSweep sweep = RunDvfsSweep(os, SkylakeXeon4114(), Mhz{100}, ref);

  PrintBanner(os, "Per-benchmark detail at the range ends (AVX saturation visible)");
  TextTable detail;
  detail.SetHeader({"benchmark", "perf@3000/perf@2200", "active MHz @3000", "pkg W @3000",
                    "AVX"});
  for (const std::string& name : SpecBenchmarkNames()) {
    const DvfsPoint& hi = sweep[name][3000];
    detail.AddRow({name, TextTable::Num(hi.ips / sweep[name][ref.value()].ips, 2),
                   TextTable::Num(hi.active_mhz.value(), 0), TextTable::Num(hi.pkg_w.value(), 1),
                   GetProfile(name).UsesAvx() ? "yes" : "no"});
  }
  detail.Print(os);
  os << "\nPaper shape check: AVX benchmarks saturate near 1.9 GHz (perf ratio ~1)\n"
        "and show outlier power; non-AVX apps keep scaling into the turbo range.\n";
}

// Figure 3, Ryzen 1700X, normalized to 3.0 GHz as in the paper.  Shape
// features to reproduce: near-linear performance scaling (smaller anomalies
// than Skylake), and a package power jump entering the XFR/boost region
// above 3.4 GHz.
void Fig03(std::ostream& os) {
  RunDvfsSweep(os, Ryzen1700X(), Mhz{250}, Mhz{3000});
  os << "\nPaper shape check: performance rises nearly linearly with frequency\n"
        "(no Skylake-style saturation plateau), and power steps up in the boost\n"
        "region above 3.4 GHz.\n";
}

// --- Figure 4: impact of RAPL on per-core DVFS with the gcc benchmark.
//
// Ten copies of gcc on Skylake: five cores are unconstrained (request the
// maximum P-state) and five are throttled to the frequency on the X axis,
// under RAPL limits from 85 W down to 40 W.  The paper's observations:
//   (a) power saved by the throttled cores is spent by the unconstrained
//       cores, whose performance rises above the all-at-2.5GHz baseline;
//   (b) RAPL finds a global maximum frequency — it throttles only the
//       unconstrained (fastest) cores; already-throttled cores keep their
//       requested frequency.

struct PerCorePoint {
  double unconstrained_perf = 0.0;  // Mean IPS of the unconstrained half.
  Mhz unconstrained_mhz{0.0};
  Mhz throttled_mhz{0.0};
  Watts pkg_w{0.0};
};

// This experiment needs raw per-core frequency requests *plus* a hardware
// RAPL limit — a combination no daemon policy expresses — so it drives the
// simulator directly, like the paper's scripts drive the MSRs.
PerCorePoint MeasureDirect(Watts limit, Mhz throttle_mhz) {
  const PlatformSpec spec = SkylakeXeon4114();
  Package pkg(spec);
  std::vector<std::unique_ptr<Process>> procs;
  for (int i = 0; i < 10; i++) {
    procs.push_back(std::make_unique<Process>(GetProfile("gcc"), 1 + i));
    pkg.AttachWork(i, procs[static_cast<size_t>(i)].get());
    pkg.SetRequestedMhz(i, i < 5 ? spec.turbo_max_mhz : throttle_mhz);
  }
  pkg.SetRaplLimit(limit);
  Simulator sim(&pkg);
  sim.Run(Seconds{10.0});  // Warmup/settling.
  std::vector<double> instr0(10);
  std::vector<double> aperf0(10);
  std::vector<double> mperf0(10);
  for (int i = 0; i < 10; i++) {
    instr0[static_cast<size_t>(i)] = pkg.core(i).instructions_retired();
    aperf0[static_cast<size_t>(i)] = pkg.core(i).aperf_cycles();
    mperf0[static_cast<size_t>(i)] = pkg.core(i).mperf_cycles();
  }
  const Joules e0{pkg.package_energy_j()};
  const Seconds t0{pkg.now()};
  sim.Run(Seconds{40.0});
  const Seconds dt{pkg.now() - t0};

  PerCorePoint p;
  for (int i = 0; i < 10; i++) {
    const auto idx = static_cast<size_t>(i);
    const double ips = (pkg.core(i).instructions_retired() - instr0[idx]) / dt.value();
    const double dm = pkg.core(i).mperf_cycles() - mperf0[idx];
    const Mhz mhz = dm > 0 ? (pkg.core(i).aperf_cycles() - aperf0[idx]) / dm * spec.tsc_mhz : Mhz{0};
    if (i < 5) {
      p.unconstrained_perf += ips / 5.0;
      p.unconstrained_mhz += mhz / 5.0;
    } else {
      p.throttled_mhz += mhz / 5.0;
    }
  }
  p.pkg_w = (pkg.package_energy_j() - e0) / dt;
  return p;
}

void Fig04(std::ostream& os) {
  // Baseline: all limits satisfied, everything at the all-core turbo
  // ("2.5 GHz" in the paper); performance is normalized to this point.
  const PerCorePoint base = MeasureDirect(Watts{85.0}, SkylakeXeon4114().turbo_max_mhz);

  for (double limit : {85.0, 60.0, 50.0, 40.0}) {
    PrintBanner(os, "RAPL limit " + TextTable::Num(limit, 0) + " W");
    TextTable t;
    t.SetHeader({"throttled-to", "unconstrained MHz", "throttled MHz",
                 "unconstrained perf vs base", "pkg W"});
    for (Mhz throttle : {Mhz{2500.0}, Mhz{2200.0}, Mhz{1900.0}, Mhz{1600.0}, Mhz{1300.0}, Mhz{1000.0}, Mhz{800.0}}) {
      const PerCorePoint p = MeasureDirect(Watts{limit}, throttle);
      t.AddRow({TextTable::Num(throttle.value(), 0), TextTable::Num(p.unconstrained_mhz.value(), 0),
                TextTable::Num(p.throttled_mhz.value(), 0),
                Pct(p.unconstrained_perf / base.unconstrained_perf),
                TextTable::Num(p.pkg_w.value(), 1)});
    }
    t.Print(os);
  }
  os << "\nPaper shape check: (a) throttling half the cores lets the other half\n"
        "run above the baseline (e.g. at 50 W, throttled@800 pushes the\n"
        "unconstrained cores past 100%); (b) the throttled cores' frequency\n"
        "always equals their request — RAPL reduces only the fastest cores.\n";
}

// The websearch experiment of Figures 5, 12 and 13 on Skylake: websearch
// (300 users) on nine cores at 90 shares per core, plus a cpuburn power
// virus at 10 shares on the tenth core when `with_cpuburn`.
WebsearchConfig WebsearchAt(Watts limit, PolicyKind policy, bool with_cpuburn,
                            Seconds measure) {
  WebsearchConfig c{.platform = SkylakeXeon4114()};
  c.policy = policy;
  c.limit_w = limit;
  c.with_cpuburn = with_cpuburn;
  c.warmup_s = Seconds{20};
  c.measure_s = measure;
  return c;
}

// --- Figure 5: effect of co-location under RAPL on a latency-sensitive
// application.
//
// websearch runs with and without the cpuburn power virus, under
// progressively lower RAPL limits with all cores requesting 3 GHz.  The
// paper reports 90th-percentile latency; the shape to reproduce is a
// dramatic degradation (worse than 2x of running alone) once the limit
// drops toward 40 W, caused by the virus dragging the global RAPL ceiling
// down.

void Fig05(std::ostream& os) {
  const std::vector<double> limits = {85.0, 65.0, 55.0, 50.0, 45.0, 40.0, 35.0};
  std::vector<WebsearchConfig> configs;
  for (double limit : limits) {
    for (bool colocated : {false, true}) {
      configs.push_back(WebsearchAt(Watts{limit}, PolicyKind::kRaplOnly, colocated, Seconds{240}));
    }
  }
  const std::vector<WebsearchResult> results = RunWebsearches(configs);

  TextTable t;
  t.SetHeader({"limit", "alone p90 ms", "colocated p90 ms", "alone=1.0 rel.",
               "alone pkg W", "colo pkg W"});
  for (size_t i = 0; i < limits.size(); i++) {
    const WebsearchResult& a = results[2 * i];
    const WebsearchResult& c = results[2 * i + 1];
    t.AddRow({LimitLabel(Watts{limits[i]}), TextTable::Num(a.p90_latency.value() * 1e3, 1),
              TextTable::Num(c.p90_latency.value() * 1e3, 1),
              TextTable::Num(c.p90_latency / a.p90_latency, 2),
              TextTable::Num(a.avg_pkg_w.value(), 1), TextTable::Num(c.avg_pkg_w.value(), 1)});
  }
  t.Print(os);
  os << "\nPaper shape check: co-location is nearly free at high limits, but below\n"
        "~45 W the power virus more than doubles websearch's p90 latency\n"
        "(the paper reports >2x degradation under 40 W).\n";
}

// --- Figure 6: time-shared power consumption for cactusBSSN (HD) and gcc
// (LD) on a single Ryzen core at 3.4 GHz.
//
// One application is fixed at 50% CPU share while the other's share sweeps
// 10%..50% (the docker --cpu-shares experiment of Section 4.3); both
// standalone (100% share) power draws are shown as references.  The result
// to reproduce: average core power is the residency-weighted sum of the
// two applications' standalone draws.

Watts CorePowerWithShares(double hd_share, double ld_share) {
  Package pkg(Ryzen1700X());
  Process hd(GetProfile("cactusBSSN"), 1);
  Process ld(GetProfile("gcc"), 2);
  std::vector<TimeSharedCore::Member> members;
  if (hd_share > 0.0) {
    members.push_back({.work = &hd, .residency = hd_share});
  }
  if (ld_share > 0.0) {
    members.push_back({.work = &ld, .residency = ld_share});
  }
  TimeSharedCore shared(std::move(members));
  pkg.AttachWork(0, &shared);
  pkg.SetRequestedMhz(0, Mhz{3400});
  Simulator sim(&pkg);
  sim.Run(Seconds{5.0});
  const Joules e0{pkg.core(0).energy_j()};
  const Seconds t0{pkg.now()};
  sim.Run(Seconds{20.0});
  return (pkg.core(0).energy_j() - e0) / (pkg.now() - t0);
}

void Fig06(std::ostream& os) {
  const Watts hd_alone{CorePowerWithShares(1.0, 0.0)};
  const Watts ld_alone{CorePowerWithShares(0.0, 1.0)};
  os << "standalone @100% share:  cactusBSSN " << TextTable::Num(hd_alone.value(), 2)
     << " W,  gcc " << TextTable::Num(ld_alone.value(), 2) << " W\n";

  PrintBanner(os, "(a) HD fixed at 50%, LD share varied");
  TextTable a;
  a.SetHeader({"LD share", "core W", "residency-weighted model W"});
  for (double ld : {0.1, 0.2, 0.3, 0.4, 0.5}) {
    const Watts measured{CorePowerWithShares(0.5, ld)};
    const Watts modeled{0.5 * hd_alone + ld * ld_alone};  // Idle remainder ~0 W.
    a.AddRow({Pct(ld, 0), TextTable::Num(measured.value(), 2), TextTable::Num(modeled.value(), 2)});
  }
  a.Print(os);

  PrintBanner(os, "(b) LD fixed at 50%, HD share varied");
  TextTable b;
  b.SetHeader({"HD share", "core W", "residency-weighted model W"});
  for (double hd : {0.1, 0.2, 0.3, 0.4, 0.5}) {
    const Watts measured{CorePowerWithShares(hd, 0.5)};
    const Watts modeled{hd * hd_alone + 0.5 * ld_alone};
    b.AddRow({Pct(hd, 0), TextTable::Num(measured.value(), 2), TextTable::Num(modeled.value(), 2)});
  }
  b.Print(os);
  os << "\nPaper shape check: core power rises linearly with the varied share and\n"
        "matches the time-weighted sum of the standalone draws.\n";
}

// --- Figure 7 (and Table 2): priority-policy experiments on Skylake.
//
// The Table 2 workload mixes (cactusBSSN = HD, leela = LD; 10H0L .. 1H9L)
// run under the priority policy and under bare RAPL at 85/50/40 W.  For
// each run we report, per priority class, the mean normalized performance
// and mean active frequency — the two panels of Figure 7.  Shapes to
// reproduce:
//   - priority protects HP performance; RAPL treats both classes alike;
//   - at 50/40 W with many HP apps, LP apps starve;
//   - at 40 W with few HP apps they run *faster* than at 85 W thanks to
//     opportunistic scaling over the offlined LP cores.

void Fig07(std::ostream& os) {
  PrintBanner(os, "Table 2: workload mixes (columns: count of each app kind)");
  TextTable mixes;
  mixes.SetHeader({"mix", "cactusBSSN-HP", "leela-HP", "cactusBSSN-LP", "leela-LP"});
  for (const WorkloadMix& mix : SkylakePriorityMixes()) {
    int chp = 0;
    int lhp = 0;
    int clp = 0;
    int llp = 0;
    for (const AppSetup& a : mix.apps) {
      if (a.profile == "cactusBSSN") {
        (a.high_priority ? chp : clp)++;
      } else {
        (a.high_priority ? lhp : llp)++;
      }
    }
    mixes.AddRow({mix.label, std::to_string(chp), std::to_string(lhp), std::to_string(clp),
                  std::to_string(llp)});
  }
  mixes.Print(os);

  const SweepSpec spec = Fig07Spec();
  const SweepResult result = RunSweep(spec);
  for (PolicyKind policy : spec.axes.policies) {
    PrintBanner(os, std::string("policy: ") + PolicyKindName(policy));
    TextTable t;
    t.SetHeader({"limit", "mix", "HP perf", "LP perf", "HP MHz", "LP MHz", "LP starved",
                 "pkg W"});
    for (const SweepPointResult* pr : PointsOf(result, PolicyKindName(policy))) {
      const ClassStats s = ReduceClasses(pr->summary);
      t.AddRow({LimitLabel(pr->point.cap_w), pr->point.mix, TextTable::Num(s.hp_perf, 2),
                TextTable::Num(s.lp_perf, 2), TextTable::Num(s.hp_mhz.value(), 0),
                TextTable::Num(s.lp_mhz.value(), 0), std::to_string(s.lp_starved),
                TextTable::Num(pr->summary.avg_pkg_w.value(), 1)});
    }
    t.Print(os);
  }
  os << "\nPaper shape check: under the priority policy HP perf stays near its 85 W\n"
        "level at every limit (rising above it at 40 W for 3H7L/1H9L via turbo),\n"
        "while LP apps starve when residual power runs out; under RAPL both\n"
        "classes degrade together.\n";
}

// --- Figure 8: priority-policy experiments on Ryzen 1700X.
//
// Same structure as Figure 7 but on the 8-core Ryzen (which has no RAPL
// limiting, so only the policy runs), with the additional middle panel the
// paper shows: per-class core power, available through Ryzen's per-core
// energy counters.

void Fig08(std::ostream& os) {
  SweepSpec spec = ScenarioSweep("fig08", Ryzen1700X(), Seconds{30}, Seconds{60});
  spec.scenario_base.policy = PolicyKind::kPriority;
  spec.axes.caps_w = {Watts{85.0}, Watts{50.0}, Watts{40.0}};
  spec.axes.mixes = RyzenPriorityMixes();

  TextTable t;
  t.SetHeader({"limit", "mix", "HP perf", "LP perf", "HP core W", "LP core W", "HP MHz",
               "LP MHz", "LP starved", "pkg W"});
  for (const SweepPointResult& pr : RunSweep(spec).points) {
    const ClassStats s = ReduceClasses(pr.summary);
    t.AddRow({LimitLabel(pr.point.cap_w), pr.point.mix, TextTable::Num(s.hp_perf, 2),
              TextTable::Num(s.lp_perf, 2), TextTable::Num(s.hp_w.value(), 2),
              TextTable::Num(s.lp_w.value(), 2), TextTable::Num(s.hp_mhz.value(), 0),
              TextTable::Num(s.lp_mhz.value(), 0), std::to_string(s.lp_starved),
              TextTable::Num(pr.summary.avg_pkg_w.value(), 1)});
  }
  t.Print(os);
  os << "\nPaper shape check: nearly identical behaviour to Skylake — at 50 W LP\n"
        "apps run only when few HP apps exist; at 40 W only the 2H6L mix leaves\n"
        "room for LP work.  HP core power exceeds LP core power whenever both run\n"
        "(4H4L's all-HD HP class draws more than 2H6L's mixed HP class).\n";
}

// --- Figure 9: proportional-share policy experiments on Skylake.
//
// Five copies of leela (LD) and five of cactusBSSN (HD) run with share
// splits 90/10, 70/30 and 50/50 under 40 W and 50 W limits, once with
// frequency shares and once with performance shares; bare RAPL is included
// as the no-policy reference.  Shapes to reproduce:
//   - low dynamic range: at 90/10 the low-share apps keep more than 10% of
//     the resource (the 800 MHz floor);
//   - frequency and performance shares produce very similar outcomes;
//   - under RAPL the HD app wins slightly (it is AVX-free here, so both run
//     at the ceiling and cactusBSSN's higher IPC-per-MHz demand shows).

void Fig09(std::ostream& os) {
  const SweepSpec spec = Fig09Spec();
  const SweepResult result = RunSweep(spec);
  for (PolicyKind policy : spec.axes.policies) {
    PrintBanner(os, std::string("policy: ") + PolicyKindName(policy));
    TextTable t;
    t.SetHeader({"limit", "shares LD/HD", "LD MHz", "HD MHz", "LD perf", "HD perf",
                 "LD freq%", "HD freq%", "pkg W"});
    for (const SweepPointResult* pr : PointsOf(result, PolicyKindName(policy))) {
      const ScenarioResult r = WithShares(pr->summary);
      const AppGroup ld = GroupOf(r, "leela");
      const AppGroup hd = GroupOf(r, "cactusBSSN");
      t.AddRow({LimitLabel(pr->point.cap_w), pr->point.mix, TextTable::Num(ld.mhz.value(), 0),
                TextTable::Num(hd.mhz.value(), 0), TextTable::Num(ld.perf, 2),
                TextTable::Num(hd.perf, 2), Pct(ld.freq_share), Pct(hd.freq_share),
                TextTable::Num(r.avg_pkg_w.value(), 1)});
    }
    t.Print(os);
  }
  os << "\nPaper shape check: frequency and performance shares track each other\n"
        "closely; the 90/10 split cannot push the HD apps below the minimum\n"
        "P-state (they keep >20% of total frequency); RAPL ignores shares.\n";
}

// --- Figure 10: proportional-share policy experiments on Ryzen.
//
// Four copies of leela (LD) and four of cactusBSSN (HD) at share splits
// 90/10, 70/30, 50/50 and 30/70 under 40 W and 50 W, for all three share
// types — frequency, performance, and power shares (the last possible only
// here, where per-core power telemetry exists).  The paper visualizes the
// *percent of total resource used* by each application for each of the
// three measured resources; shapes to reproduce:
//   - the daemon tracks 30/70..70/30 splits accurately but cannot push an
//     app below ~20% (minimum-frequency floor);
//   - frequency shares give the most accurate performance control;
//   - power shares equalize power but isolate performance poorly.

void Fig10(std::ostream& os) {
  SweepSpec spec = ScenarioSweep("fig10", Ryzen1700X(), Seconds{30}, Seconds{60});
  spec.axes.caps_w = {Watts{40.0}, Watts{50.0}};
  spec.axes.mixes = {ShareSplitMix(8, 90, 10), ShareSplitMix(8, 70, 30),
                     ShareSplitMix(8, 50, 50), ShareSplitMix(8, 30, 70)};
  spec.axes.policies = {PolicyKind::kFrequencyShares, PolicyKind::kPerformanceShares,
                        PolicyKind::kPowerShares};
  const SweepResult result = RunSweep(spec);
  for (PolicyKind policy : spec.axes.policies) {
    PrintBanner(os, std::string("policy: ") + PolicyKindName(policy));
    TextTable t;
    t.SetHeader({"limit", "shares LD/HD", "LD freq%", "HD freq%", "LD perf%", "HD perf%",
                 "LD power%", "HD power%", "pkg W"});
    for (const SweepPointResult* pr : PointsOf(result, PolicyKindName(policy))) {
      const ScenarioResult r = WithShares(pr->summary);
      const AppGroup ld = GroupOf(r, "leela");
      const AppGroup hd = GroupOf(r, "cactusBSSN");
      t.AddRow({LimitLabel(pr->point.cap_w), pr->point.mix, Pct(ld.freq_share),
                Pct(hd.freq_share), Pct(ld.perf_share), Pct(hd.perf_share),
                Pct(ld.power_share), Pct(hd.power_share),
                TextTable::Num(r.avg_pkg_w.value(), 1)});
    }
    t.Print(os);
  }
  os << "\nPaper shape check: all policies are accurate for 30/70..70/30; none can\n"
        "drive an app class below ~20% of the resource; under power shares the\n"
        "power split matches the ratio while the performance split does not\n"
        "(poor performance isolation).\n";
}

// --- Figure 11 (and Table 3): random-mix proportional-share experiments on
// Skylake.
//
// Two randomly drawn application sets (Table 3).  Two copies of each of the
// five applications run on the ten cores, with share levels
// {20, 40, 60, 80, 100} by application index; frequency and performance
// shares at 40/50/85 W.  Shapes to reproduce:
//   - set A: resource use rises with share level for both policies;
//     exchange2 (A3) under-performs and perlbench (A1) over-performs their
//     frequency allocations under performance shares (frequency
//     sensitivity);
//   - set B: cam4 (B3) and lbm (B4) are AVX-capped and cannot use their
//     full share at 85 W;
//   - at 40 W the frequency dynamic range left is small, so allocations
//     compress.

void Fig11(std::ostream& os) {
  PrintBanner(os, "Table 3: applications for random experiments");
  TextTable sets;
  sets.SetHeader({"set", "app0", "app1", "app2", "app3", "app4"});
  for (const RandomSet& set : RandomSets()) {
    std::vector<std::string> row = {set.label};
    row.insert(row.end(), set.apps.begin(), set.apps.end());
    sets.AddRow(row);
  }
  sets.Print(os);
  os << "share levels by app index: 20, 40, 60, 80, 100 (both copies alike)\n";

  SweepSpec spec = ScenarioSweep("fig11", SkylakeXeon4114(), Seconds{30}, Seconds{60});
  spec.axes.caps_w = {Watts{40.0}, Watts{50.0}, Watts{85.0}};
  for (const RandomSet& set : RandomSets()) {
    spec.axes.mixes.push_back(WorkloadMix{.label = set.label, .apps = RandomSetApps(set)});
  }
  spec.axes.policies = {PolicyKind::kFrequencyShares, PolicyKind::kPerformanceShares};
  const SweepResult result = RunSweep(spec);

  for (const RandomSet& set : RandomSets()) {
    for (PolicyKind policy : spec.axes.policies) {
      PrintBanner(os, "set " + set.label + ", policy " + PolicyKindName(policy));
      TextTable t;
      std::vector<std::string> header = {"limit"};
      for (size_t i = 0; i < set.apps.size(); i++) {
        header.push_back(set.label + std::to_string(i) + ":" + set.apps[i] + " freq%/perf%");
      }
      header.push_back("pkg W");
      t.SetHeader(header);

      for (const SweepPointResult* pr : PointsOf(result, PolicyKindName(policy))) {
        if (pr->point.mix != set.label) {
          continue;
        }
        const ScenarioResult r = WithShares(pr->summary);
        std::vector<std::string> row = {LimitLabel(pr->point.cap_w)};
        // Aggregate the two copies of each application (copies sit at
        // indices 2i and 2i+1).
        for (size_t i = 0; i < set.apps.size(); i++) {
          const double f = r.apps[2 * i].share_of_freq + r.apps[2 * i + 1].share_of_freq;
          const double p = r.apps[2 * i].share_of_perf + r.apps[2 * i + 1].share_of_perf;
          row.push_back(Pct(f) + "/" + Pct(p));
        }
        row.push_back(TextTable::Num(r.avg_pkg_w.value(), 1));
        t.AddRow(row);
      }
      t.Print(os);
    }
  }
  os << "\nPaper shape check: resource use increases with share level in set A;\n"
        "in set B the AVX apps (cam4, lbm) saturate below their allocation at\n"
        "85 W; at 40 W allocations compress toward equality.\n";
}

// --- Figure 12: latency-sensitive experiment with the share policies.
//
// The Figure 5 scenario re-run with the daemon policies.  For each limit we
// report p90 latency relative to websearch running alone at the same limit
// (the paper's baseline, noted above its bars), for bare RAPL and for
// frequency/performance shares.  Shape to reproduce: the policies recover
// most of the loss RAPL inflicts, approaching (sometimes matching) the
// alone baseline.

constexpr double kWebsearchLimits[] = {65.0, 55.0, 50.0, 45.0, 40.0, 35.0};

void Fig12(std::ostream& os) {
  const PolicyKind kColocated[] = {PolicyKind::kRaplOnly, PolicyKind::kFrequencyShares,
                                   PolicyKind::kPerformanceShares, PolicyKind::kPriority};
  // Per limit: the alone baseline followed by the four co-located policies.
  std::vector<WebsearchConfig> configs;
  for (double limit : kWebsearchLimits) {
    configs.push_back(WebsearchAt(Watts{limit}, PolicyKind::kRaplOnly, false, Seconds{240}));
    for (PolicyKind policy : kColocated) {
      configs.push_back(WebsearchAt(Watts{limit}, policy, true, Seconds{240}));
    }
  }
  const std::vector<WebsearchResult> results = RunWebsearches(configs);

  TextTable t;
  t.SetHeader({"limit", "alone p90 ms", "rapl rel.", "freq-shares rel.",
               "perf-shares rel.", "priority rel."});
  const size_t stride = 1 + std::size(kColocated);
  for (size_t i = 0; i < std::size(kWebsearchLimits); i++) {
    const WebsearchResult& r_alone = results[stride * i];
    auto rel = [&](size_t k) {
      return results[stride * i + 1 + k].p90_latency / r_alone.p90_latency;
    };
    t.AddRow({LimitLabel(Watts{kWebsearchLimits[i]}),
              TextTable::Num(r_alone.p90_latency.value() * 1e3, 1), TextTable::Num(rel(0), 2),
              TextTable::Num(rel(1), 2), TextTable::Num(rel(2), 2),
              TextTable::Num(rel(3), 2)});
  }
  t.Print(os);
  os << "\nPaper shape check: relative p90 under the policies stays near 1.0 at\n"
        "every limit (occasionally below 1.0 within run-to-run variance), while\n"
        "RAPL degrades sharply below 45 W.  Performance shares track frequency\n"
        "shares closely, as the paper notes.\n";
}

// --- Figure 13: active-frequency measurements for the latency-sensitive
// experiment under the proportional frequency policy.
//
// For the Figure 12 frequency-shares runs we report the mean active
// frequency of the websearch cores and of the cpuburn core at each power
// limit, next to the same measurement under RAPL.  Shape to reproduce: the
// policy holds websearch's frequency high and pins the virus near the
// minimum P-state; the improvement over RAPL is bounded by the platform's
// low frequency dynamic range (the paper's explanation for the ~10%
// latency gain).

void Fig13(std::ostream& os) {
  // Per limit: frequency shares, RAPL co-located, RAPL alone.
  std::vector<WebsearchConfig> configs;
  for (double limit : kWebsearchLimits) {
    configs.push_back(WebsearchAt(Watts{limit}, PolicyKind::kFrequencyShares, true, Seconds{180}));
    configs.push_back(WebsearchAt(Watts{limit}, PolicyKind::kRaplOnly, true, Seconds{180}));
    configs.push_back(WebsearchAt(Watts{limit}, PolicyKind::kRaplOnly, false, Seconds{180}));
  }
  const std::vector<WebsearchResult> results = RunWebsearches(configs);

  TextTable t;
  t.SetHeader({"limit", "policy ws MHz", "policy burn MHz", "rapl ws MHz", "rapl burn MHz",
               "alone ws MHz"});
  for (size_t i = 0; i < std::size(kWebsearchLimits); i++) {
    const WebsearchResult& r_share = results[3 * i];
    const WebsearchResult& r_rapl = results[3 * i + 1];
    const WebsearchResult& r_alone = results[3 * i + 2];
    t.AddRow({LimitLabel(Watts{kWebsearchLimits[i]}),
              TextTable::Num(r_share.websearch_avg_mhz.value(), 0),
              TextTable::Num(r_share.cpuburn_avg_mhz.value(), 0),
              TextTable::Num(r_rapl.websearch_avg_mhz.value(), 0),
              TextTable::Num(r_rapl.cpuburn_avg_mhz.value(), 0),
              TextTable::Num(r_alone.websearch_avg_mhz.value(), 0)});
  }
  t.Print(os);
  os << "\nPaper shape check: under the policy the cpuburn core sits at/near the\n"
        "800 MHz floor at every limit while websearch tracks the alone-run\n"
        "frequency; under RAPL both classes share one declining ceiling.\n";
}

}  // namespace

std::vector<Figure> PaperFigures() {
  return {
      {"table01_platform_features", "Table 1: Summary of power management features available",
       Table01},
      {"fig01_rapl_interference",
       "Figure 1: RAPL interference: 5x gcc (LD) + 5x cam4 (HD/AVX) on Skylake", Fig01},
      {"fig02_dvfs_sweep_skylake",
       "Figure 2: Effects of DVFS on Skylake for SPEC CPU2017 workloads", Fig02},
      {"fig03_dvfs_sweep_ryzen", "Figure 3: Effects of DVFS on Ryzen for SPEC CPU2017 workloads",
       Fig03},
      {"fig04_rapl_percore_dvfs",
       "Figure 4: RAPL x per-core DVFS: 5 unconstrained + 5 throttled cores of gcc", Fig04},
      {"fig05_websearch_rapl",
       "Figure 5: websearch p90 latency with/without cpuburn under RAPL (Skylake)", Fig05},
      {"fig06_timeshare_power",
       "Figure 6: Time-shared core power, cactusBSSN (HD) / gcc (LD), Ryzen @3.4 GHz", Fig06},
      {"fig07_priority_skylake", "Figure 7 / Table 2: Priority policy vs RAPL on Skylake", Fig07},
      {"fig08_priority_ryzen", "Figure 8: Priority policy on Ryzen (8 cores, per-core power)",
       Fig08},
      {"fig09_shares_skylake",
       "Figure 9: Proportional shares on Skylake: 5x leela (LD) vs 5x cactusBSSN (HD)", Fig09},
      {"fig10_shares_ryzen",
       "Figure 10: Proportional shares on Ryzen: 4x leela (LD) vs 4x cactusBSSN (HD)", Fig10},
      {"fig11_random_skylake", "Figure 11 / Table 3: Random-mix share experiments on Skylake",
       Fig11},
      {"fig12_websearch_policies",
       "Figure 12: websearch p90 with policies vs RAPL, relative to running alone", Fig12},
      {"fig13_websearch_frequency",
       "Figure 13: Active frequencies for the latency-sensitive experiment", Fig13},
  };
}

}  // namespace papd
