// The paper's tables, gated.  Every registry entry must print exactly its
// golden, tests/data/figures/<name>.txt (EXPERIMENTS.md says how to
// regenerate one), so any moved cell shows up as a diff.  Three of the
// paper's qualitative claims are also checked on the structured sweep
// results: they say which moves a regenerated golden may not make.

#include "bench/figures.h"

#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/experiments/scenarios.h"

namespace papd {

// Keeps the ctest names to the figure name.
void PrintTo(const Figure& figure, std::ostream* os) { *os << figure.name; }

namespace {

std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(PAPD_FIGURES_DIR) + "/" + name + ".txt", std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

class FigureGolden : public ::testing::TestWithParam<Figure> {};

TEST_P(FigureGolden, PrintsCheckedInTable) {
  const Figure& figure = GetParam();
  const std::string golden = ReadGolden(figure.name);
  ASSERT_FALSE(golden.empty()) << "no golden for " << figure.name;
  std::ostringstream out;
  RunFigure(figure, out);
  EXPECT_EQ(out.str(), golden);
}

INSTANTIATE_TEST_SUITE_P(Figures, FigureGolden, ::testing::ValuesIn(Figures()),
                         [](const ::testing::TestParamInfo<Figure>& info) {
                           return info.param.name;
                         });

TEST(FigureRegistry, NamesAreUniqueAndPrefixesResolve) {
  ASSERT_EQ(Figures().size(), 23u);
  for (const Figure& f : Figures()) {
    EXPECT_EQ(FindFigure(f.name), &f) << f.name;
  }
  ASSERT_NE(FindFigure("fig09"), nullptr);
  EXPECT_EQ(FindFigure("fig09")->name, "fig09_shares_skylake");
  EXPECT_EQ(FindFigure("fig0"), nullptr);  // Ambiguous.
  EXPECT_EQ(FindFigure("fig99"), nullptr);
}

// Keeps only the mix labelled `label` on the spec's mix axis.
void OnlyMix(SweepSpec* spec, const std::string& label) {
  std::erase_if(spec->axes.mixes, [&label](const WorkloadMix& m) { return m.label != label; });
  ASSERT_EQ(spec->axes.mixes.size(), 1u);
}

// Figure 7 at 40 W, mix 3H7L: the priority policy starves all seven LP apps
// to keep the HP apps fast; RAPL throttles both classes alike and starves
// none.
TEST(PaperClaims, Fig07PriorityStarvesEveryLpAppAndRaplNone) {
  SweepSpec spec = Fig07Spec();
  spec.axes.caps_w = {Watts{40.0}};
  OnlyMix(&spec, "3H7L");
  const SweepResult result = RunSweep(spec);
  const auto priority = PointsOf(result, PolicyKindName(PolicyKind::kPriority));
  const auto rapl = PointsOf(result, PolicyKindName(PolicyKind::kRaplOnly));
  ASSERT_EQ(priority.size(), 1u);
  ASSERT_EQ(rapl.size(), 1u);
  EXPECT_EQ(ReduceClasses(priority[0]->summary).lp_starved, 7);
  EXPECT_EQ(ReduceClasses(rapl[0]->summary).lp_starved, 0);
}

// Figure 9, 90/10 split under frequency shares: the 800 MHz floor keeps the
// low-share HD class above 20% of total frequency (EXPERIMENTS.md: 24-29%).
TEST(PaperClaims, Fig09FloorKeepsLowShareClassAboveTwentyPercent) {
  SweepSpec spec = Fig09Spec();
  OnlyMix(&spec, "90/10");
  spec.axes.policies = {PolicyKind::kFrequencyShares};
  const SweepResult result = RunSweep(spec);
  ASSERT_EQ(result.points.size(), 2u);  // 40 W and 50 W.
  for (const SweepPointResult& pr : result.points) {
    EXPECT_GT(GroupOf(WithShares(pr.summary), "cactusBSSN").freq_share, 0.20) << pr.point.name;
  }
}

// Figure 1 at 40 W: RAPL's one global ceiling runs gcc and cam4 at the same
// active frequency (EXPERIMENTS.md: 1346 MHz for both).
TEST(PaperClaims, Fig01RaplRunsBothAppsAtOneFrequency) {
  SweepSpec spec = Fig01Spec();
  spec.axes.caps_w = {Watts{40.0}};
  const SweepResult result = RunSweep(spec);
  ASSERT_EQ(result.points.size(), 1u);
  const RunSummary& r = result.points[0].summary;
  EXPECT_NEAR(GroupOf(r, "gcc").mhz / GroupOf(r, "cam4").mhz, 1.0, 0.01);
}

}  // namespace
}  // namespace papd
