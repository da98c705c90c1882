// Unit and closed-loop tests for the thermal model and thermald.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/cpusim/package.h"
#include "src/cpusim/simulator.h"
#include "src/cpusim/thermal.h"
#include "src/governor/thermald.h"
#include "src/msr/msr.h"
#include "src/msr/turbostat.h"
#include "src/specsim/spec2017.h"
#include "src/specsim/workload.h"

namespace papd {
namespace {

ThermalParams TestParams() {
  ThermalParams p;
  p.ambient_c = 40.0;
  p.r_core_c_per_w = 2.0;
  p.spread_fraction = 0.0;  // Isolate per-core behaviour.
  p.tau_s = Seconds{2.0};
  p.tj_max_c = 95.0;
  return p;
}

TEST(ThermalModel, StartsAtAmbient) {
  ThermalModel model(TestParams(), 4);
  EXPECT_DOUBLE_EQ(model.core_temp_c(0), 40.0);
  EXPECT_DOUBLE_EQ(model.max_temp_c(), 40.0);
  EXPECT_FALSE(model.OverLimit());
}

TEST(ThermalModel, SteadyStateIsAmbientPlusRTimesP) {
  ThermalModel model(TestParams(), 2);
  const std::vector<Watts> power = {Watts{10.0}, Watts{0.0}};
  for (int i = 0; i < 20000; i++) {  // 20 s >> tau.
    model.Update(power, Watts{0.0}, Seconds{0.001});
  }
  EXPECT_NEAR(model.core_temp_c(0), 40.0 + 2.0 * 10.0, 0.1);
  EXPECT_NEAR(model.core_temp_c(1), 40.0, 0.1);
}

TEST(ThermalModel, FirstOrderResponseTimeConstant) {
  ThermalModel model(TestParams(), 1);
  const std::vector<Watts> power = {Watts{10.0}};
  // After one time constant the step response covers ~63.2%.
  for (int i = 0; i < 2000; i++) {
    model.Update(power, Watts{0.0}, Seconds{0.001});
  }
  const double expected = 40.0 + 20.0 * (1.0 - std::exp(-1.0));
  EXPECT_NEAR(model.core_temp_c(0), expected, 0.3);
}

TEST(ThermalModel, SpreadCouplesNeighbourHeat) {
  ThermalParams p = TestParams();
  p.spread_fraction = 0.1;
  ThermalModel model(p, 2);
  const std::vector<Watts> power = {Watts{20.0}, Watts{0.0}};
  for (int i = 0; i < 20000; i++) {
    model.Update(power, Watts{5.0}, Seconds{0.001});
  }
  // The idle core heats from its neighbours: 0.1 * (20 + 5) = 2.5 W eff.
  EXPECT_NEAR(model.core_temp_c(1), 40.0 + 2.0 * 2.5, 0.2);
  EXPECT_GT(model.core_temp_c(0), model.core_temp_c(1));
}

TEST(ThermalModel, OverLimitDetection) {
  ThermalParams p = TestParams();
  p.tj_max_c = 50.0;
  ThermalModel model(p, 1);
  const std::vector<Watts> power = {Watts{10.0}};  // Steady 60 C.
  for (int i = 0; i < 20000; i++) {
    model.Update(power, Watts{0.0}, Seconds{0.001});
  }
  EXPECT_TRUE(model.OverLimit());
}

TEST(PackageThermal, BusyCoresHeatUp) {
  Package pkg(SkylakeXeon4114());
  Process proc(GetProfile("cpuburn"), 1);
  pkg.AttachWork(0, &proc);
  pkg.SetRequestedMhz(0, Mhz{3000});
  Simulator sim(&pkg);
  sim.Run(Seconds{20.0});
  EXPECT_GT(pkg.thermal().core_temp_c(0), pkg.thermal().core_temp_c(5) + 10.0);
  EXPECT_GT(pkg.thermal().core_temp_c(0), 60.0);
}

TEST(PackageThermal, ProchotThrottlesOverheatedCore) {
  // Shrink the junction limit so cpuburn trips PROCHOT, then verify the
  // core oscillates against the floor instead of melting.
  PlatformSpec spec = SkylakeXeon4114();
  spec.thermal.tj_max_c = 70.0;
  Package pkg(spec);
  Process proc(GetProfile("cpuburn"), 1);
  pkg.AttachWork(0, &proc);
  pkg.SetRequestedMhz(0, Mhz{3000});
  Simulator sim(&pkg);
  sim.Run(Seconds{60.0});
  EXPECT_LT(pkg.thermal().core_temp_c(0), 72.0);
  // PROCHOT is bang-bang (floor when hot, release when cooled), so judge
  // by the time-averaged frequency rather than the last tick.
  const Mhz avg =
      pkg.core(0).aperf_cycles() / pkg.core(0).mperf_cycles() * pkg.spec().tsc_mhz;
  EXPECT_LT(avg, Mhz{2800.0});
}

TEST(ThermStatusMsr, DigitalReadoutMatchesModel) {
  Package pkg(SkylakeXeon4114());
  MsrFile msr(&pkg);
  Process proc(GetProfile("gcc"), 1);
  pkg.AttachWork(0, &proc);
  Simulator sim(&pkg);
  sim.Run(Seconds{15.0});
  const uint64_t readout = (msr.Read(kMsrIa32ThermStatus, 0) >> 16) & 0x7F;
  const double temp = pkg.spec().thermal.tj_max_c - static_cast<double>(readout);
  EXPECT_NEAR(temp, pkg.thermal().core_temp_c(0), 1.0);
}

TEST(TurbostatThermal, SampleCarriesTemperature) {
  Package pkg(SkylakeXeon4114());
  MsrFile msr(&pkg);
  Process proc(GetProfile("cactusBSSN"), 1);
  pkg.AttachWork(3, &proc);
  Turbostat ts(&msr);
  Simulator sim(&pkg);
  sim.Run(Seconds{10.0});
  const TelemetrySample s = ts.Sample();
  EXPECT_GT(s.cores[3].temp_c, s.cores[0].temp_c + 5.0);
}

// --- thermald closed loop ----------------------------------------------

TEST(ThermalDaemon, PerCoreModeThrottlesOnlyHotCore) {
  Package pkg(SkylakeXeon4114());
  MsrFile msr(&pkg);
  Process burn(GetProfile("cpuburn"), 1);
  Process leela(GetProfile("leela"), 2);
  pkg.AttachWork(0, &burn);
  pkg.AttachWork(1, &leela);
  msr.WritePerfTargetMhz(0, Mhz{3000});
  msr.WritePerfTargetMhz(1, Mhz{3000});

  // 75 C: above leela's full-speed temperature (~67 C) but far below the
  // virus's unthrottled ~105 C.
  ThermalDaemon daemon(&msr, {.limit_c = 75.0, .mode = ThermalDaemon::Mode::kPerCoreDvfs});
  Simulator sim(&pkg);
  sim.AddPeriodic(Seconds{1.0}, [&daemon](Seconds) { daemon.Step(); });
  sim.Run(Seconds{120.0});

  // The virus core is held at/under the limit by throttling...
  EXPECT_LT(pkg.thermal().core_temp_c(0), 78.0);
  EXPECT_LT(pkg.core(0).requested_mhz(), Mhz{3000.0});
  // ...while the cool app is untouched at full speed.
  EXPECT_DOUBLE_EQ(pkg.core(1).requested_mhz().value(), 3000.0);
}

// Per-core DVFS steps by the platform's grid step: on EPYC a hot core
// moves down exactly 25 MHz per period.  (Read back in 100 MHz ratios,
// 3475 MHz would round to 3500 and the core would never throttle.)
TEST(ThermalDaemon, PerCoreModeStepsEpycBy25Mhz) {
  const PlatformSpec spec = ManyCoreEpyc128();
  Package pkg(spec);
  MsrFile msr(&pkg);
  Process burn(GetProfile("cpuburn"), 1);
  pkg.AttachWork(0, &burn);
  msr.WritePerfTargetMhz(0, spec.turbo_max_mhz);

  // A few degrees above ambient: once warmed up, the virus core stays over
  // the limit while thermald walks it down.
  constexpr Celsius kLimitC = 44.0;
  ThermalDaemon daemon(&msr, {.limit_c = kLimitC, .mode = ThermalDaemon::Mode::kPerCoreDvfs});
  Simulator sim(&pkg);
  sim.Run(Seconds{10.0});
  for (int period = 1; period <= 3; period++) {
    ASSERT_GT(pkg.thermal().core_temp_c(0), kLimitC);
    daemon.Step();
    EXPECT_DOUBLE_EQ(pkg.core(0).requested_mhz().value(),
                     (spec.turbo_max_mhz - period * spec.step_mhz).value())
        << "after period " << period;
    sim.Run(Seconds{1.0});
  }
}

TEST(ThermalDaemon, GlobalRaplModeThrottlesEveryone) {
  Package pkg(SkylakeXeon4114());
  MsrFile msr(&pkg);
  Process burn(GetProfile("cpuburn"), 1);
  Process leela(GetProfile("leela"), 2);
  pkg.AttachWork(0, &burn);
  pkg.AttachWork(1, &leela);
  msr.WritePerfTargetMhz(0, Mhz{3000});
  msr.WritePerfTargetMhz(1, Mhz{3000});

  ThermalDaemon daemon(&msr, {.limit_c = 75.0, .mode = ThermalDaemon::Mode::kGlobalRapl});
  Simulator sim(&pkg);
  sim.AddPeriodic(Seconds{1.0}, [&daemon](Seconds) { daemon.Step(); });
  sim.Run(Seconds{200.0});

  EXPECT_LT(pkg.thermal().core_temp_c(0), 78.0);
  EXPECT_LT(daemon.current_rapl_limit_w(), SkylakeXeon4114().rapl_max_w);
  // Collateral damage: the innocent app also runs below max.
  EXPECT_LT(pkg.core(1).effective_mhz(), Mhz{3000.0});
}

TEST(ThermalDaemon, ReleasesThrottleWhenCool) {
  Package pkg(SkylakeXeon4114());
  MsrFile msr(&pkg);
  Process leela(GetProfile("leela"), 1);  // Cool workload.
  pkg.AttachWork(0, &leela);
  msr.WritePerfTargetMhz(0, Mhz{800});  // Start throttled.

  ThermalDaemon daemon(&msr, {.limit_c = 90.0, .mode = ThermalDaemon::Mode::kPerCoreDvfs});
  Simulator sim(&pkg);
  sim.AddPeriodic(Seconds{1.0}, [&daemon](Seconds) { daemon.Step(); });
  sim.Run(Seconds{60.0});
  // Far below the limit: thermald steps the core back up toward max.
  EXPECT_GT(pkg.core(0).requested_mhz(), Mhz{2500.0});
}

}  // namespace
}  // namespace papd
