// The paper's evaluation as one registry: Table 1, Figures 1-13 and the
// ablations A1-A9, each a named entry that prints its tables to a stream.
//
// `papd_figures NAME` prints one entry and `papd_figures` prints them all;
// figures_test diffs every entry against tests/data/figures/<name>.txt.
// Absolute values come from the simulator, so the expectation is shape
// fidelity, not number fidelity (see EXPERIMENTS.md).

#ifndef BENCH_FIGURES_H_
#define BENCH_FIGURES_H_

#include <ostream>
#include <string>
#include <vector>

#include "src/experiments/harness.h"
#include "src/experiments/sweep.h"

namespace papd {

struct Figure {
  std::string name;   // Command-line name and golden file stem.
  std::string title;  // Header line, e.g. "Figure 9: Proportional shares ...".
  void (*run)(std::ostream& os);
};

// Every entry in paper order: Table 1, Figures 1-13, Ablations A1-A9.
const std::vector<Figure>& Figures();
std::vector<Figure> PaperFigures();     // Table 1 and Figures 1-13.
std::vector<Figure> AblationFigures();  // A1-A9.

// The entry named `name`, or else the one entry whose name starts with it
// ("fig09"); nullptr when there is none or several.
const Figure* FindFigure(const std::string& name);

// Prints the figure's header banner, then its tables.
void RunFigure(const Figure& figure, std::ostream& os);

// The figure sweeps the paper-claim tests check (see figures_test).
SweepSpec Fig01Spec();
SweepSpec Fig07Spec();
SweepSpec Fig09Spec();

// The points of a sweep run under one policy, in sweep order.
std::vector<const SweepPointResult*> PointsOf(const SweepResult& result,
                                              const std::string& policy);

// A run's summary with share_of_* filled in (AddResourceShares).
ScenarioResult WithShares(const RunSummary& summary);

// Per-priority-class means of one run (Figures 7-8, A1); a class with no
// apps reads 0.
struct ClassStats {
  double hp_perf = 0.0;
  double lp_perf = 0.0;
  Watts hp_w{0.0};
  Watts lp_w{0.0};
  Mhz hp_mhz{0.0};
  Mhz lp_mhz{0.0};
  int lp_starved = 0;
};
ClassStats ReduceClasses(const RunSummary& r);

// The apps named `name` in one run (Figures 1, 9, 10, A2): mean active
// MHz and normalized performance, and the summed share_of_* fractions.
struct AppGroup {
  Mhz mhz{0.0};
  double perf = 0.0;
  double freq_share = 0.0;
  double perf_share = 0.0;
  double power_share = 0.0;
};
AppGroup GroupOf(const RunSummary& r, const std::string& name);

}  // namespace papd

#endif  // BENCH_FIGURES_H_
