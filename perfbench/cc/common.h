// Shared pieces of the benchmark binary: wall clock, FNV-1a digests of
// simulated outputs, the cap-invariant check, and the one-line JSON report
// each phase prints.

#ifndef PERFBENCH_CC_COMMON_H_
#define PERFBENCH_CC_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/budget_tree.h"
#include "src/common/stats.h"
#include "src/common/units.h"

namespace perfbench {

using papd::Percentile;

// The cap invariant every measured period of a budget tree must hold.
constexpr double kMaxOverrunW = 1e-6;

// num / den, or 0 when there is nothing to divide by.
inline double Per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

inline double NowS() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// FNV-1a over the bit patterns of simulated outputs.  Two runs of one seed
// must produce the same digest whatever the host timing was.
class Digest {
 public:
  void U64(uint64_t v) {
    for (int i = 0; i < 8; i++) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xFF)) * 1099511628211ULL;
    }
  }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  template <class Tag>
  void Q(papd::Quantity<Tag> q) {
    F64(q.value());
  }
  uint64_t value() const { return h_; }
  std::string Hex() const;

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

// Every node's grant and the root's measured power: the simulated outputs
// of one budget-tree step.
void DigestGrants(const papd::BudgetTree& tree, Digest* d);

// Peak resident set of this process, MiB.
double PeakRssMb();

// What one phase of one workload reports.  Printed as a single JSON line;
// run.py merges the lines of one invocation into the benchmark result.
struct Report {
  std::vector<double> setup_s;  // One sample per set-up this process ran.
  std::string setup_digest;
  // Digest of the measured unit (a pass over the figure points, a fleet
  // day, a cluster run).  Every unit of one invocation must agree.
  std::string digest;
  bool digests_agree = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  // Wall time of each step of a measured phase, in order.
  std::vector<double> step_ms;
  std::map<std::string, double> metrics;

  void Error(const std::string& what) { errors.push_back(what); }
  // Folds one run's digests in: the first sets them, later ones must match.
  void AddRepetition(const std::string& setup, const std::string& measured);
  // The end-to-end figures of one measured phase: its steps (which are
  // also recorded in step_ms) and its total wall time, reductions included.
  void AddMeasured(std::vector<double> step_ms, double measured_s, double core_ticks);
  void Print() const;
};

struct Options {
  std::string workload;
  std::string phase;  // setup | measure | trace
  uint64_t seed = 1;
  double seconds = 10.0;
  bool quick = false;
};

// Each workload runs one phase and fills the report.
void RunPaperFigures(const Options& opt, Report* report);
void RunFleetDiurnal(const Options& opt, Report* report);
void RunClusterHold(const Options& opt, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_CC_COMMON_H_
