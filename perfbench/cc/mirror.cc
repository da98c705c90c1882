#include "cc/mirror.h"

#include <chrono>
#include <utility>

#include "src/common/check.h"
#include "src/specsim/spec2017.h"

namespace perfbench {

using papd::Ips;
using papd::Joules;
using papd::Mhz;
using papd::Seconds;
using papd::Watts;

namespace {

using Clock = std::chrono::steady_clock;

double Ns(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

// Simulator's tolerance on due-time comparisons.
constexpr Seconds kEps{1e-12};

// Work proxies time one RunBatch call in kSampleEvery, which keeps their
// clock reads from dominating a call of a few tens of nanoseconds.
constexpr uint64_t kSampleEvery = 8;

// Median cost of one steady_clock read pair, subtracted from sampled spans.
double ClockOverheadNs() {
  static const double overhead = [] {
    std::vector<double> v;
    for (int i = 0; i < 2001; i++) {
      const auto a = Clock::now();
      const auto b = Clock::now();
      v.push_back(Ns(a, b));
    }
    return Median(v);
  }();
  return overhead;
}

}  // namespace

double LayerTimes::ProcessNs() const {
  return process_sampled == 0 ? 0.0
                              : process_sampled_ns / static_cast<double>(process_sampled) *
                                    static_cast<double>(process_calls);
}

double LayerTimes::WebsearchNs() const {
  return websearch_sampled == 0 ? 0.0
                                : websearch_sampled_ns /
                                      static_cast<double>(websearch_sampled) *
                                      static_cast<double>(websearch_calls);
}

void LayerTimes::Merge(const LayerTimes& o) {
  tick_ns += o.tick_ns;
  core_ticks += o.core_ticks;
  process_sampled_ns += o.process_sampled_ns;
  process_sampled += o.process_sampled;
  process_calls += o.process_calls;
  process_core_ticks += o.process_core_ticks;
  websearch_sampled_ns += o.websearch_sampled_ns;
  websearch_sampled += o.websearch_sampled;
  websearch_calls += o.websearch_calls;
  websearch_core_ticks += o.websearch_core_ticks;
  serving_core_ticks += o.serving_core_ticks;
  busy_core_ticks += o.busy_core_ticks;
  daemon_ns += o.daemon_ns;
  daemon_steps += o.daemon_steps;
  sample_ns += o.sample_ns;
  samples += o.samples;
  msr_writes += o.msr_writes;
}

void TimedProcess::RunBatch(Seconds dt, const Mhz* freqs_mhz, papd::WorkSlice* out, int n) {
  const uint64_t call = lt_->process_calls++;
  lt_->process_core_ticks += static_cast<uint64_t>(n);
  if (call % kSampleEvery != 0) {
    inner_->RunBatch(dt, freqs_mhz, out, n);
    return;
  }
  const auto a = Clock::now();
  inner_->RunBatch(dt, freqs_mhz, out, n);
  const auto b = Clock::now();
  lt_->process_sampled_ns += Ns(a, b) - ClockOverheadNs();
  lt_->process_sampled++;
}

void TimedWebSearch::RunBatch(Seconds dt, const Mhz* freqs_mhz, papd::WorkSlice* out,
                              size_t n) {
  const uint64_t call = lt_->websearch_calls++;
  lt_->websearch_core_ticks += n;
  if (call % kSampleEvery != 0) {
    inner_->RunBatch(dt, freqs_mhz, out, n);
  } else {
    const auto a = Clock::now();
    inner_->RunBatch(dt, freqs_mhz, out, n);
    const auto b = Clock::now();
    lt_->websearch_sampled_ns += Ns(a, b) - ClockOverheadNs();
    lt_->websearch_sampled++;
  }
  lt_->serving_core_ticks += n;
  for (size_t i = 0; i < n; i++) {
    lt_->busy_core_ticks += out[i].busy_fraction > 0.0 ? 1 : 0;
  }
}

MirrorSocket::MirrorSocket(const papd::PlatformSpec& spec, const papd::TickOptions& tick,
                           Seconds tick_s, Seconds period_s, LayerTimes* lt)
    : lt_(lt),
      pkg_(spec),
      msr_(&pkg_),
      side_sampler_(&msr_),
      tick_s_(tick_s),
      period_s_(period_s) {
  pkg_.SetTickPolicy(tick.policy, tick.max_hold_ticks);
}

void MirrorSocket::AddProcess(int core, const std::string& profile, uint64_t seed) {
  procs_.push_back(std::make_unique<TimedProcess>(
      std::make_unique<papd::Process>(papd::GetProfile(profile), seed), lt_));
  pkg_.AttachWork(core, procs_.back().get());
}

void MirrorSocket::AddWebSearch(const std::vector<int>& cores,
                                const papd::WebSearch::Params& params, uint64_t seed) {
  websearch_ = std::make_unique<papd::WebSearch>(cores, params, seed);
  timed_websearch_ = std::make_unique<TimedWebSearch>(websearch_.get(), lt_);
  pkg_.AttachMultiWork(timed_websearch_.get());
}

void MirrorSocket::StartDaemon(std::vector<papd::ManagedApp> managed,
                               const papd::DaemonConfig& dcfg, bool periodic) {
  managed_ = managed;
  daemon_ = std::make_unique<papd::PowerDaemon>(&msr_, std::move(managed), dcfg);
  daemon_->Start();
  periodic_ = periodic;
  next_due_s_ = pkg_.now() + period_s_;
}

std::unique_ptr<MirrorSocket> MirrorSocket::FromScenario(const papd::ScenarioConfig& c,
                                                         LayerTimes* lt) {
  // RunScenario's stack.
  PAPD_CHECK(c.run.daemon.faults.Any() == false);
  std::unique_ptr<MirrorSocket> m(
      new MirrorSocket(c.platform, c.run.tick, Seconds{0.001}, c.daemon_period_s, lt));
  std::vector<papd::ManagedApp> managed;
  for (size_t i = 0; i < c.apps.size(); i++) {
    const papd::AppSetup& setup = c.apps[i];
    m->AddProcess(static_cast<int>(i), setup.profile, c.seed + 1000 * i);
    managed.push_back(papd::ManagedApp{
        .name = setup.profile,
        .cpu = static_cast<int>(i),
        .shares = setup.shares,
        .high_priority = setup.high_priority,
        .baseline_ips = papd::Standalone(c.platform, setup.profile).ips,
    });
  }
  for (int core = static_cast<int>(c.apps.size()); core < m->pkg_.num_cores(); core++) {
    m->pkg_.SetRequestedMhz(core, c.platform.min_mhz);
  }
  m->StartDaemon(std::move(managed), papd::ToDaemonConfig(c),
                 c.policy != papd::PolicyKind::kStatic);
  return m;
}

std::unique_ptr<MirrorSocket> MirrorSocket::FromWebsearch(const papd::WebsearchConfig& c,
                                                          LayerTimes* lt) {
  // RunWebsearch's stack.
  std::unique_ptr<MirrorSocket> m(
      new MirrorSocket(c.platform, c.run.tick, Seconds{0.001}, Seconds{1.0}, lt));
  const int burn_cpu = c.platform.num_cores - 1;
  std::vector<int> ws_cores;
  for (int core = 0; core < burn_cpu; core++) {
    ws_cores.push_back(core);
  }
  papd::WebSearch::Params params;
  params.users = c.users;
  params.open_loop = c.open_loop;
  m->AddWebSearch(ws_cores, params, c.seed);
  if (c.with_cpuburn) {
    m->AddProcess(burn_cpu, "cpuburn", c.seed + 7);
  } else {
    m->pkg_.SetRequestedMhz(burn_cpu, c.platform.min_mhz);
  }
  std::vector<papd::ManagedApp> managed;
  const Ips ws_baseline = papd::IpsAtMhz(c.platform.turbo_max_mhz, params.ipc);
  for (int core : ws_cores) {
    managed.push_back(papd::ManagedApp{.name = "websearch",
                                       .cpu = core,
                                       .shares = c.websearch_shares,
                                       .high_priority = true,
                                       .baseline_ips = ws_baseline});
  }
  if (c.with_cpuburn) {
    managed.push_back(papd::ManagedApp{
        .name = "cpuburn",
        .cpu = burn_cpu,
        .shares = c.cpuburn_shares,
        .high_priority = false,
        .baseline_ips = papd::Standalone(c.platform, "cpuburn").ips});
  }
  papd::DaemonConfig dcfg;
  dcfg.kind = c.policy;
  dcfg.power_limit_w = c.limit_w;
  dcfg.audit = c.run.daemon.audit;
  dcfg.use_hwp_hints = c.run.daemon.hwp_hints;
  m->period_s_ = dcfg.period_s;
  m->StartDaemon(std::move(managed), dcfg, c.policy != papd::PolicyKind::kStatic);
  return m;
}

std::unique_ptr<MirrorSocket> MirrorSocket::FromServingSocket(
    const papd::RackSocketConfig& c, Seconds period_s, Seconds tick_s, Watts initial_grant_w,
    const papd::TickOptions& tick, LayerTimes* lt) {
  // SocketStack's serving-socket layout (no socket hold: serving sockets
  // never hold).
  PAPD_CHECK(c.websearch && !c.with_cpuburn && c.apps.empty());
  PAPD_CHECK(!tick.socket_hold);
  std::unique_ptr<MirrorSocket> m(new MirrorSocket(c.platform, tick, tick_s, period_s, lt));
  const int burn_cpu = c.platform.num_cores - 1;
  std::vector<int> ws_cores;
  for (int core = 0; core < burn_cpu; core++) {
    ws_cores.push_back(core);
  }
  m->AddWebSearch(ws_cores, c.websearch_params, c.seed);
  m->pkg_.SetRequestedMhz(burn_cpu, c.platform.min_mhz);
  std::vector<papd::ManagedApp> managed;
  const Ips ws_baseline = papd::IpsAtMhz(c.platform.turbo_max_mhz, c.websearch_params.ipc);
  for (int core : ws_cores) {
    managed.push_back(papd::ManagedApp{.name = "websearch",
                                       .cpu = core,
                                       .shares = c.websearch_shares,
                                       .high_priority = true,
                                       .baseline_ips = ws_baseline});
  }
  papd::DaemonConfig dcfg;
  dcfg.kind = c.policy;
  dcfg.power_limit_w = initial_grant_w;
  dcfg.period_s = period_s;
  dcfg.audit = c.audit;
  m->StartDaemon(std::move(managed), dcfg, /*periodic=*/true);
  return m;
}

void MirrorSocket::Advance(Seconds duration_s) {
  const Seconds end{pkg_.now() + duration_s};
  const uint64_t cores = static_cast<uint64_t>(pkg_.num_cores());
  while (pkg_.now() + kEps < end) {
    // Tick until the next daemon deadline or the window end, as one span.
    const auto a = Clock::now();
    uint64_t ticks = 0;
    bool fire = false;
    while (pkg_.now() + kEps < end) {
      pkg_.Tick(tick_s_);
      ticks++;
      if (periodic_ && pkg_.now() + kEps >= next_due_s_) {
        fire = true;
        break;
      }
    }
    const auto b = Clock::now();
    lt_->tick_ns += Ns(a, b);
    lt_->core_ticks += ticks * cores;
    if (!fire) {
      break;
    }
    const Seconds now{pkg_.now()};
    while (next_due_s_ <= now + kEps) {
      const auto c = Clock::now();
      daemon_->Step();
      const auto d = Clock::now();
      side_sampler_.Sample();
      const auto e = Clock::now();
      lt_->daemon_ns += Ns(c, d);
      lt_->daemon_steps++;
      lt_->sample_ns += Ns(d, e);
      lt_->samples++;
      next_due_s_ += period_s_;
    }
  }
}

MirrorSocket::Window MirrorSocket::Take() const {
  Window w;
  for (int i = 0; i < pkg_.num_cores(); i++) {
    const papd::Core c = pkg_.core(i);
    w.aperf.push_back(c.aperf_cycles());
    w.mperf.push_back(c.mperf_cycles());
    w.instructions.push_back(c.instructions_retired());
    w.core_energy.push_back(c.energy_j());
  }
  w.pkg_energy = pkg_.package_energy_j();
  w.t = pkg_.now();
  return w;
}

void MirrorSocket::StartWindow() {
  if (websearch_ != nullptr) {
    websearch_->ResetStats();
  }
  start_ = Take();
}

void MirrorSocket::Finish() { lt_->msr_writes += static_cast<uint64_t>(msr_.write_count()); }

papd::ScenarioResult MirrorSocket::ReduceScenario(const papd::ScenarioConfig& c) {
  pkg_.FlushSteadyWork();
  const Window end = Take();
  const Seconds dt{end.t - start_.t};
  papd::ScenarioResult r;
  r.measured_s = dt;
  r.energy_j = end.pkg_energy - start_.pkg_energy;
  r.avg_pkg_w = r.energy_j / dt;
  for (size_t i = 0; i < c.apps.size(); i++) {
    const papd::ManagedApp& app = managed_[i];
    papd::AppResult a;
    a.name = app.name;
    a.cpu = app.cpu;
    a.high_priority = app.high_priority;
    a.shares = app.shares;
    a.avg_ips = (end.instructions[i] - start_.instructions[i]) / dt;
    a.norm_perf = app.baseline_ips > Ips{0.0} ? a.avg_ips / app.baseline_ips : 0.0;
    const double dm = end.mperf[i] - start_.mperf[i];
    a.avg_active_mhz =
        dm > 0.0 ? (end.aperf[i] - start_.aperf[i]) / dm * c.platform.tsc_mhz : Mhz{0.0};
    a.avg_busy = dm / (c.platform.tsc_mhz * papd::kHzPerMhz * dt);
    a.avg_core_w = (end.core_energy[i] - start_.core_energy[i]) / dt;
    a.starved = a.avg_busy < 0.01;
    r.apps.push_back(a);
  }
  Finish();
  return r;
}

papd::WebsearchResult MirrorSocket::ReduceWebsearch(const papd::WebsearchConfig& c) {
  pkg_.FlushSteadyWork();
  const Window end = Take();
  const Seconds dt{end.t - start_.t};
  papd::WebsearchResult r;
  r.p50_latency = websearch_->LatencyPercentile(50.0);
  r.p90_latency = websearch_->LatencyPercentile(90.0);
  r.p99_latency = websearch_->LatencyPercentile(99.0);
  r.completed_requests = websearch_->completed_requests();
  r.measured_s = dt;
  r.energy_j = end.pkg_energy - start_.pkg_energy;
  r.avg_pkg_w = r.energy_j / dt;
  const int burn_cpu = c.platform.num_cores - 1;
  Mhz ws_mhz{0.0};
  for (int core = 0; core < burn_cpu; core++) {
    const auto i = static_cast<size_t>(core);
    const double dm = end.mperf[i] - start_.mperf[i];
    ws_mhz += dm > 0.0 ? (end.aperf[i] - start_.aperf[i]) / dm * c.platform.tsc_mhz
                       : Mhz{0.0};
  }
  r.websearch_avg_mhz = ws_mhz / static_cast<double>(burn_cpu);
  {
    const auto i = static_cast<size_t>(burn_cpu);
    const double dm = end.mperf[i] - start_.mperf[i];
    r.cpuburn_avg_mhz =
        dm > 0.0 ? (end.aperf[i] - start_.aperf[i]) / dm * c.platform.tsc_mhz : Mhz{0.0};
  }
  Finish();
  return r;
}

LeafProbes::LeafProbes(const papd::BudgetTree& tree, const papd::BudgetTreeConfig& tree_cfg,
                       std::vector<int> nodes,
                       const std::vector<papd::RackSocketConfig>& configs)
    : period_s_(tree_cfg.control_period_s), nodes_(std::move(nodes)) {
  PAPD_CHECK_EQ(nodes_.size(), configs.size());
  for (size_t i = 0; i < nodes_.size(); i++) {
    stacks_.push_back(std::make_unique<papd::SocketStack>(
        configs[i], tree_cfg.control_period_s, tree_cfg.tick_s, tree.grant_w(nodes_[i]),
        nullptr, 0, tree_cfg.tick));
  }
}

void LeafProbes::Advance(const papd::BudgetTree& tree, bool timed) {
  for (size_t i = 0; i < stacks_.size(); i++) {
    const double a = NowS();
    stacks_[i]->AdvancePeriod(period_s_);
    const double b = NowS();
    stacks_[i]->daemon->SetPowerLimit(tree.grant_w(nodes_[i]));
    if (timed) {
      period_ms_.push_back((b - a) * 1e3);
    }
  }
}

void LeafProbes::ResetServingStats() {
  for (auto& s : stacks_) {
    if (s->websearch != nullptr) {
      s->websearch->ResetStats();
    }
  }
}

bool LeafProbes::SameAs(papd::BudgetTree& tree) const {
  for (size_t i = 0; i < stacks_.size(); i++) {
    const papd::SocketStack& a = *stacks_[i];
    const papd::SocketStack& b = tree.stack(nodes_[i]);
    if (a.pkg.package_energy_j() != b.pkg.package_energy_j()) {
      return false;
    }
    if (a.websearch != nullptr && a.websearch->latencies() != b.websearch->latencies()) {
      return false;
    }
  }
  return true;
}

void HistogramSum::Add(const papd::obs::MetricsSnapshot& snap, const std::string& name) {
  for (const papd::obs::MetricValue& m : snap) {
    if (m.name != name) {
      continue;
    }
    if (counts.empty()) {
      bounds = m.upper_bounds;
      counts.assign(m.bucket_counts.size(), 0);
    }
    for (size_t i = 0; i < counts.size() && i < m.bucket_counts.size(); i++) {
      counts[i] += m.bucket_counts[i];
    }
  }
}

double HistogramSum::P50() const {
  uint64_t total = 0;
  for (uint64_t c : counts) {
    total += c;
  }
  const double half = static_cast<double>(total) / 2.0;
  double cum = 0.0;
  for (size_t i = 0; i < counts.size(); i++) {
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    // The overflow bucket has no upper bound; read its lower one.
    const double hi = i < bounds.size() ? bounds[i] : lo;
    if (counts[i] > 0 && cum + static_cast<double>(counts[i]) >= half) {
      return lo + (hi - lo) * (half - cum) / static_cast<double>(counts[i]);
    }
    cum += static_cast<double>(counts[i]);
  }
  return 0.0;
}

void DigestScenario(const papd::ScenarioResult& r, Digest* d) {
  d->Q(r.energy_j);
  d->Q(r.avg_pkg_w);
  d->U64(r.apps.size());
  for (const papd::AppResult& a : r.apps) {
    d->Q(a.avg_ips);
    d->F64(a.norm_perf);
    d->Q(a.avg_active_mhz);
    d->Q(a.avg_core_w);
    d->F64(a.share_of_freq);
    d->F64(a.share_of_perf);
    d->F64(a.share_of_power);
  }
}

void DigestWebsearch(const papd::WebsearchResult& r, Digest* d) {
  d->Q(r.energy_j);
  d->Q(r.avg_pkg_w);
  d->Q(r.p50_latency);
  d->Q(r.p90_latency);
  d->Q(r.p99_latency);
  d->U64(r.completed_requests);
  d->Q(r.websearch_avg_mhz);
  d->Q(r.cpuburn_avg_mhz);
}

}  // namespace perfbench
