// Unit tests for src/platform: P-state tables, voltage curves, platform
// descriptors, and the 64/128-core many-core presets.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/cpusim/package.h"
#include "src/cpusim/simulator.h"
#include "src/experiments/scenarios.h"
#include "src/platform/platform_spec.h"
#include "src/platform/pstate.h"
#include "src/platform/voltage_curve.h"
#include "src/specsim/spec2017.h"
#include "src/specsim/workload.h"

namespace papd {
namespace {

TEST(PStateTable, SizeAndOrdering) {
  const PStateTable t(Mhz{800}, Mhz{2200}, Mhz{100});
  EXPECT_EQ(t.size(), 15u);
  EXPECT_DOUBLE_EQ(t.FrequencyOf(0).value(), 2200.0);  // P0 fastest.
  EXPECT_DOUBLE_EQ(t.FrequencyOf(14).value(), 800.0);
  EXPECT_DOUBLE_EQ(t.min_mhz().value(), 800.0);
  EXPECT_DOUBLE_EQ(t.max_mhz().value(), 2200.0);
}

TEST(PStateTable, QuantizeDown) {
  const PStateTable t(Mhz{800}, Mhz{2200}, Mhz{100});
  EXPECT_DOUBLE_EQ(t.QuantizeDown(Mhz{1234}).value(), 1200.0);
  EXPECT_DOUBLE_EQ(t.QuantizeDown(Mhz{1200}).value(), 1200.0);
  EXPECT_DOUBLE_EQ(t.QuantizeDown(Mhz{799}).value(), 800.0);   // Clamp low.
  EXPECT_DOUBLE_EQ(t.QuantizeDown(Mhz{9999}).value(), 2200.0);  // Clamp high.
}

TEST(PStateTable, QuantizeUp) {
  const PStateTable t(Mhz{800}, Mhz{2200}, Mhz{100});
  EXPECT_DOUBLE_EQ(t.QuantizeUp(Mhz{1201}).value(), 1300.0);
  EXPECT_DOUBLE_EQ(t.QuantizeUp(Mhz{1300}).value(), 1300.0);
  EXPECT_DOUBLE_EQ(t.QuantizeUp(Mhz{100}).value(), 800.0);
  EXPECT_DOUBLE_EQ(t.QuantizeUp(Mhz{5000}).value(), 2200.0);
}

TEST(PStateTable, QuantizeNearest) {
  const PStateTable t(Mhz{800}, Mhz{2200}, Mhz{100});
  EXPECT_DOUBLE_EQ(t.QuantizeNearest(Mhz{1249}).value(), 1200.0);
  EXPECT_DOUBLE_EQ(t.QuantizeNearest(Mhz{1251}).value(), 1300.0);
}

TEST(PStateTable, IndexRoundTrip) {
  const PStateTable t(Mhz{800}, Mhz{2200}, Mhz{100});
  for (size_t i = 0; i < t.size(); i++) {
    EXPECT_EQ(t.IndexOf(t.FrequencyOf(i)), i);
  }
}

TEST(PStateTable, OnGrid) {
  const PStateTable t(Mhz{800}, Mhz{3400}, Mhz{25});
  EXPECT_TRUE(t.OnGrid(Mhz{825}));
  EXPECT_TRUE(t.OnGrid(Mhz{3400}));
  EXPECT_FALSE(t.OnGrid(Mhz{812}));
  EXPECT_FALSE(t.OnGrid(Mhz{3500}));
}

TEST(PStateTable, Ryzen25MhzGridIsFine) {
  const PStateTable t(Mhz{800}, Mhz{3800}, Mhz{25});
  EXPECT_EQ(t.size(), 121u);
  EXPECT_DOUBLE_EQ(t.QuantizeDown(Mhz{3333}).value(), 3325.0);
}

TEST(VoltageCurve, InterpolatesAndClamps) {
  const VoltageCurve curve({{Mhz{800}, Volts{0.65}}, {Mhz{2200}, Volts{1.00}}, {Mhz{3000}, Volts{1.15}}});
  EXPECT_DOUBLE_EQ(curve.At(Mhz{800}).value(), 0.65);
  EXPECT_DOUBLE_EQ(curve.At(Mhz{2200}).value(), 1.00);
  EXPECT_DOUBLE_EQ(curve.At(Mhz{3000}).value(), 1.15);
  EXPECT_NEAR(curve.At(Mhz{1500}).value(), 0.65 + 0.35 * 700.0 / 1400.0, 1e-12);
  // Clamped outside the range.
  EXPECT_DOUBLE_EQ(curve.At(Mhz{100}).value(), 0.65);
  EXPECT_DOUBLE_EQ(curve.At(Mhz{9000}).value(), 1.15);
  EXPECT_DOUBLE_EQ(curve.min_volts().value(), 0.65);
  EXPECT_DOUBLE_EQ(curve.max_volts().value(), 1.15);
}

TEST(VoltageCurve, MonotoneOverRange) {
  const PlatformSpec spec = SkylakeXeon4114();
  Volts prev{0.0};
  for (Mhz f = spec.min_mhz; f <= spec.turbo_max_mhz; f += Mhz{50}) {
    const Volts v{spec.voltage.At(f)};
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(PlatformSpec, SkylakeMatchesTable1) {
  const PlatformSpec s = SkylakeXeon4114();
  EXPECT_EQ(s.num_cores, 10);
  EXPECT_DOUBLE_EQ(s.min_mhz.value(), 800.0);
  EXPECT_DOUBLE_EQ(s.base_max_mhz.value(), 2200.0);
  EXPECT_DOUBLE_EQ(s.turbo_max_mhz.value(), 3000.0);
  EXPECT_DOUBLE_EQ(s.step_mhz.value(), 100.0);
  EXPECT_DOUBLE_EQ(s.rapl_min_w.value(), 20.0);
  EXPECT_DOUBLE_EQ(s.rapl_max_w.value(), 85.0);
  EXPECT_TRUE(s.has_rapl_limit);
  EXPECT_FALSE(s.has_per_core_power);
  EXPECT_EQ(s.max_simultaneous_pstates, 0);
}

TEST(PlatformSpec, RyzenMatchesTable1) {
  const PlatformSpec r = Ryzen1700X();
  EXPECT_EQ(r.num_cores, 8);
  EXPECT_DOUBLE_EQ(r.step_mhz.value(), 25.0);
  EXPECT_DOUBLE_EQ(r.turbo_max_mhz.value(), 3800.0);
  EXPECT_FALSE(r.has_rapl_limit);
  EXPECT_TRUE(r.has_per_core_power);
  EXPECT_EQ(r.max_simultaneous_pstates, 3);
}

TEST(PlatformSpec, TurboLadderMonotone) {
  for (const PlatformSpec& spec : {SkylakeXeon4114(), Ryzen1700X()}) {
    Mhz prev{spec.turbo_max_mhz + Mhz{1}};
    for (int active = 1; active <= spec.num_cores; active++) {
      const Mhz limit{spec.TurboLimitMhz(active)};
      EXPECT_LE(limit, prev) << spec.name << " active=" << active;
      EXPECT_GE(limit, spec.base_max_mhz);
      prev = limit;
    }
    // Few active cores reach max turbo.
    EXPECT_DOUBLE_EQ(spec.TurboLimitMhz(1).value(), spec.turbo_max_mhz.value());
  }
}

TEST(PlatformSpec, SkylakeAllCoreTurboAbove2500) {
  // Figure 4 of the paper observes ~2.5-2.65 GHz with all 10 cores active.
  const PlatformSpec s = SkylakeXeon4114();
  EXPECT_GE(s.TurboLimitMhz(10), Mhz{2500.0});
  EXPECT_LT(s.TurboLimitMhz(10), s.turbo_max_mhz);
}

TEST(PlatformSpec, AvxCaps) {
  const PlatformSpec s = SkylakeXeon4114();
  EXPECT_DOUBLE_EQ(s.AvxCapMhz(0).value(), s.turbo_max_mhz.value());  // No AVX work: no cap.
  EXPECT_DOUBLE_EQ(s.AvxCapMhz(1).value(), s.avx_max_mhz_light.value());
  EXPECT_DOUBLE_EQ(s.AvxCapMhz(2).value(), s.avx_max_mhz_light.value());
  EXPECT_DOUBLE_EQ(s.AvxCapMhz(5).value(), s.avx_max_mhz_heavy.value());
  EXPECT_LT(s.avx_max_mhz_heavy, s.avx_max_mhz_light);
  EXPECT_LT(s.avx_max_mhz_light, s.base_max_mhz);
}

TEST(PlatformSpec, PStatesCoverFullRange) {
  for (const PlatformSpec& spec : {SkylakeXeon4114(), Ryzen1700X()}) {
    const PStateTable t = spec.PStates();
    EXPECT_DOUBLE_EQ(t.min_mhz().value(), spec.min_mhz.value());
    EXPECT_DOUBLE_EQ(t.max_mhz().value(), spec.turbo_max_mhz.value());
  }
}

// Paper Section 5.2: "frequency only varies by a factor of 3-4".
TEST(PlatformSpec, FrequencyDynamicRange) {
  for (const PlatformSpec& spec : {SkylakeXeon4114(), Ryzen1700X()}) {
    const double range = spec.turbo_max_mhz / spec.min_mhz;
    EXPECT_GE(range, 3.0) << spec.name;
    EXPECT_LE(range, 5.0) << spec.name;
  }
}

// --- Many-core presets -------------------------------------------------------

TEST(ManyCorePresets, LaddersAreMonotoneAndCoverAllCores) {
  for (const PlatformSpec& spec : {ManyCoreXeon64(), ManyCoreEpyc128()}) {
    ASSERT_FALSE(spec.turbo_ladder.empty()) << spec.name;
    EXPECT_EQ(spec.turbo_ladder.back().max_active_cores, spec.num_cores) << spec.name;
    for (size_t i = 1; i < spec.turbo_ladder.size(); i++) {
      EXPECT_GT(spec.turbo_ladder[i].max_active_cores,
                spec.turbo_ladder[i - 1].max_active_cores);
      EXPECT_LE(spec.turbo_ladder[i].mhz, spec.turbo_ladder[i - 1].mhz);
    }
    EXPECT_EQ(spec.TurboLimitMhz(1), spec.turbo_max_mhz) << spec.name;
    EXPECT_GE(spec.TurboLimitMhz(spec.num_cores), spec.base_max_mhz) << spec.name;
    EXPECT_LE(spec.avx_max_mhz_heavy, spec.avx_max_mhz_light) << spec.name;
  }
}

TEST(ManyCorePresets, FullyLoaded128CoreTickIsSane) {
  const PlatformSpec spec = ManyCoreEpyc128();
  Package pkg(spec);
  std::vector<std::unique_ptr<Process>> procs;
  const WorkloadMix mix = ManyCoreSpreadMix(spec.num_cores, /*rotate=*/0);
  for (int i = 0; i < spec.num_cores; i++) {
    procs.push_back(std::make_unique<Process>(GetProfile(mix.apps[static_cast<size_t>(i)].profile),
                                              /*seed=*/42 + static_cast<uint64_t>(i)));
    pkg.AttachWork(i, procs.back().get());
  }
  Simulator sim(&pkg);
  sim.Run(Seconds{1.0});
  // All-core turbo limit respected, real power drawn, counters advanced.
  for (int i = 0; i < spec.num_cores; i++) {
    EXPECT_LE(pkg.core(i).effective_mhz(), spec.TurboLimitMhz(spec.num_cores));
    EXPECT_GT(pkg.core(i).instructions_retired(), 0.0);
  }
  EXPECT_GT(pkg.last_package_power_w(), spec.power.uncore_base_w);
  EXPECT_EQ(pkg.DistinctRequestedFrequencies(), 1);
}

TEST(ManyCorePresets, ManyCorePriorityMixesFillEveryCore) {
  for (const int cores : {64, 128}) {
    for (const WorkloadMix& mix : ManyCorePriorityMixes(cores)) {
      EXPECT_EQ(static_cast<int>(mix.apps.size()), cores) << mix.label;
    }
  }
}

TEST(ManyCorePresets, DistinctRequestedFrequenciesCountsGridSlots) {
  const PlatformSpec spec = ManyCoreXeon64();
  Package pkg(spec);
  // Spread requests over 16 distinct grid frequencies, cycling.
  for (int i = 0; i < spec.num_cores; i++) {
    pkg.SetRequestedMhz(i, spec.min_mhz + spec.step_mhz * (i % 16));
  }
  EXPECT_EQ(pkg.DistinctRequestedFrequencies(), 16);
  // Offline cores drop out of the census.
  for (int i = 0; i < spec.num_cores; i++) {
    if (i % 16 != 0) {
      pkg.SetOnline(i, false);
    }
  }
  EXPECT_EQ(pkg.DistinctRequestedFrequencies(), 1);
  // Repeated calls are stable (the scratch bitmap is cleared each time).
  EXPECT_EQ(pkg.DistinctRequestedFrequencies(), 1);
}

}  // namespace
}  // namespace papd
