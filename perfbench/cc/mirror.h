// The traced run's instrument: a socket pipeline assembled from the public
// classes (Package, MsrFile, Process/WebSearch, PowerDaemon) exactly as
// RunScenario, RunWebsearch and a serving SocketStack assemble it, with the
// tick loop written out here so that each layer call can be timed from this
// side of the API.  Nothing inside src/ is instrumented.
//
// Fidelity is checked, not assumed: every mirrored run is digested and
// compared with the digest of the same configuration run through the
// program's own entry point.

#ifndef PERFBENCH_CC_MIRROR_H_
#define PERFBENCH_CC_MIRROR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "cc/common.h"
#include "src/cluster/budget_tree.h"
#include "src/cluster/socket_stack.h"
#include "src/cpusim/package.h"
#include "src/experiments/harness.h"
#include "src/msr/msr.h"
#include "src/msr/turbostat.h"
#include "src/policy/daemon.h"
#include "src/specsim/websearch.h"
#include "src/specsim/workload.h"

namespace perfbench {

// Host time (ns) and work counts accumulated across mirrored sockets.
struct LayerTimes {
  // Package::Tick, including the work RunBatch calls made inside it.
  double tick_ns = 0.0;
  uint64_t core_ticks = 0;
  // Work RunBatch, estimated from every kSampleEvery-th call.
  double process_sampled_ns = 0.0;
  uint64_t process_sampled = 0;
  uint64_t process_calls = 0;
  uint64_t process_core_ticks = 0;
  double websearch_sampled_ns = 0.0;
  uint64_t websearch_sampled = 0;
  uint64_t websearch_calls = 0;
  uint64_t websearch_core_ticks = 0;
  // Serving core-ticks, and those with a request in service.
  uint64_t serving_core_ticks = 0;
  uint64_t busy_core_ticks = 0;
  // PowerDaemon::Step (its own Turbostat sample included).
  double daemon_ns = 0.0;
  uint64_t daemon_steps = 0;
  // A side Turbostat::Sample per daemon period (instrument-only work).
  double sample_ns = 0.0;
  uint64_t samples = 0;
  uint64_t msr_writes = 0;

  double ProcessNs() const;
  double WebsearchNs() const;
  void Merge(const LayerTimes& o);
};

class TimedProcess final : public papd::CoreWork {
 public:
  TimedProcess(std::unique_ptr<papd::Process> inner, LayerTimes* lt)
      : inner_(std::move(inner)), lt_(lt) {}
  void RunBatch(papd::Seconds dt, const papd::Mhz* freqs_mhz, papd::WorkSlice* out,
                int n) override;
  int SteadyTicks(papd::Seconds dt) const override { return inner_->SteadyTicks(dt); }
  void RunSteadyBatch(papd::Seconds dt, int k, papd::Mhz freq_mhz,
                      papd::WorkSlice* last_slice) override {
    inner_->RunSteadyBatch(dt, k, freq_mhz, last_slice);
  }
  bool UsesAvx() const override { return inner_->UsesAvx(); }
  std::string Name() const override { return inner_->Name(); }

 private:
  std::unique_ptr<papd::Process> inner_;
  LayerTimes* lt_;
};

class TimedWebSearch final : public papd::MultiCoreWork {
 public:
  TimedWebSearch(papd::WebSearch* inner, LayerTimes* lt) : inner_(inner), lt_(lt) {}
  const std::vector<int>& Cores() const override { return inner_->Cores(); }
  void RunBatch(papd::Seconds dt, const papd::Mhz* freqs_mhz, papd::WorkSlice* out,
                size_t n) override;
  bool UsesAvx() const override { return inner_->UsesAvx(); }
  std::string Name() const override { return inner_->Name(); }

 private:
  papd::WebSearch* inner_;
  LayerTimes* lt_;
};

// One mirrored socket.  Build with the From* factories, then Advance().
class MirrorSocket {
 public:
  static std::unique_ptr<MirrorSocket> FromScenario(const papd::ScenarioConfig& c,
                                                    LayerTimes* lt);
  static std::unique_ptr<MirrorSocket> FromWebsearch(const papd::WebsearchConfig& c,
                                                     LayerTimes* lt);
  // A fleet leaf: SocketStack's serving-socket layout at `initial_grant_w`.
  static std::unique_ptr<MirrorSocket> FromServingSocket(const papd::RackSocketConfig& c,
                                                         papd::Seconds period_s,
                                                         papd::Seconds tick_s,
                                                         papd::Watts initial_grant_w,
                                                         const papd::TickOptions& tick,
                                                         LayerTimes* lt);

  // Simulator::Run(duration_s) with the daemon as its one periodic
  // callback, timing tick chunks and daemon steps.
  void Advance(papd::Seconds duration_s);

  // RunScenario's / RunWebsearch's reductions over [start, end].
  papd::ScenarioResult ReduceScenario(const papd::ScenarioConfig& c);
  papd::WebsearchResult ReduceWebsearch(const papd::WebsearchConfig& c);
  // Marks the start of the measurement window.
  void StartWindow();

  papd::PowerDaemon& daemon() { return *daemon_; }
  papd::WebSearch* websearch() { return websearch_.get(); }

 private:
  // Adds this socket's MSR write count to the layer totals.
  void Finish();
  MirrorSocket(const papd::PlatformSpec& spec, const papd::TickOptions& tick,
               papd::Seconds tick_s, papd::Seconds period_s, LayerTimes* lt);
  void AddProcess(int core, const std::string& profile, uint64_t seed);
  void AddWebSearch(const std::vector<int>& cores, const papd::WebSearch::Params& params,
                    uint64_t seed);
  void StartDaemon(std::vector<papd::ManagedApp> managed, const papd::DaemonConfig& dcfg,
                   bool periodic);

  struct Window {
    std::vector<double> aperf, mperf, instructions;
    std::vector<papd::Joules> core_energy;
    papd::Joules pkg_energy{0.0};
    papd::Seconds t{0.0};
  };
  Window Take() const;

  LayerTimes* lt_;
  papd::Package pkg_;
  papd::MsrFile msr_;
  papd::Turbostat side_sampler_;
  papd::Seconds tick_s_;
  papd::Seconds period_s_;
  papd::Seconds next_due_s_{0.0};
  bool periodic_ = false;
  std::vector<std::unique_ptr<TimedProcess>> procs_;
  std::unique_ptr<papd::WebSearch> websearch_;
  std::unique_ptr<TimedWebSearch> timed_websearch_;
  std::vector<papd::ManagedApp> managed_;
  std::unique_ptr<papd::PowerDaemon> daemon_;
  Window start_;
};

// Real SocketStacks built from some tree leaves' configs and initial
// grants, advanced in lockstep with the tree (one period after each tree
// step, then the tree's new grant, as BudgetTree::Step applies it), so that
// SocketStack::AdvancePeriod can be timed from outside the tree.
class LeafProbes {
 public:
  // `configs[i]` is the config of tree leaf `nodes[i]`.
  LeafProbes(const papd::BudgetTree& tree, const papd::BudgetTreeConfig& tree_cfg,
             std::vector<int> nodes, const std::vector<papd::RackSocketConfig>& configs);
  // Advances every probe one period; `timed` records the periods' wall time.
  void Advance(const papd::BudgetTree& tree, bool timed);
  void ResetServingStats();
  // True when every probe's package energy (and, for serving sockets,
  // every latency) equals its leaf's.
  bool SameAs(papd::BudgetTree& tree) const;

  const std::vector<int>& nodes() const { return nodes_; }
  const std::vector<double>& period_ms() const { return period_ms_; }

 private:
  papd::Seconds period_s_;
  std::vector<int> nodes_;
  std::vector<std::unique_ptr<papd::SocketStack>> stacks_;
  std::vector<double> period_ms_;
};

// Sum of one named histogram over several daemons' metrics snapshots.
struct HistogramSum {
  std::vector<double> bounds;
  std::vector<uint64_t> counts;
  void Add(const papd::obs::MetricsSnapshot& snap, const std::string& name);
  // Median, interpolated linearly inside its bucket; 0 when empty.
  double P50() const;
};

// Digests of the simulated outputs the benchmark checks.
void DigestScenario(const papd::ScenarioResult& r, Digest* d);
void DigestWebsearch(const papd::WebsearchResult& r, Digest* d);

}  // namespace perfbench

#endif  // PERFBENCH_CC_MIRROR_H_
