// Multi-rate tick engine with a RAPL limit armed (TickPolicy::kMultiRate).
//
// While RAPL is enabled no tick can be fast, so the engine has no reason to
// rebuild its hold plan every tick; it builds one per control epoch. This
// binary checks that skipping those rebuilds leaves the trajectory
// bit-identical to the every-tick reference, and that clearing the limit
// brings the fast path back.

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/cpusim/package.h"
#include "src/msr/msr.h"
#include "src/specsim/spec2017.h"
#include "src/specsim/workload.h"

namespace papd {
namespace {

constexpr Seconds kTick{0.001};

// 6 gcc processes on cores 0..5 (steady phase horizon ~38 ticks at 1 ms,
// above Package::kMinHoldTicks), cores 6..9 idle, multi-rate ticking.
struct Replica {
  Replica() : pkg(SkylakeXeon4114()), msr(&pkg) {
    for (int i = 0; i < 6; i++) {
      procs.push_back(std::make_unique<Process>(GetProfile("gcc"), 100 + i));
      pkg.AttachWork(i, procs.back().get());
    }
    pkg.SetTickPolicy(TickPolicy::kMultiRate);
  }

  Package pkg;
  MsrFile msr;
  std::vector<std::unique_ptr<Process>> procs;
};

uint64_t EnergyBits(const Package& pkg) {
  const double v = pkg.package_energy_j().value();
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Package energy bits at the end of the run below, as the engine produced
// them when it still rebuilt the hold plan after every RAPL-on tick.
// Skipping those discarded rebuilds must not move the trajectory by a bit.
constexpr uint64_t kRaplRunEnergyBits = 0x4063c8df9ee4c5ffULL;

// While RAPL is enabled no tick can be fast (CanFastTick), and RAPL can
// only turn off through a control-plane write that moves the epoch; so the
// engine builds one plan per epoch instead of one per tick, and the
// RAPL-on stretch stays bit-identical to the every-tick reference.
TEST(MultiRateRapl, RaplOnBuildsOnePlanPerEpoch) {
  Replica multi;
  Replica every;
  every.pkg.SetTickPolicy(TickPolicy::kEveryTick);
  multi.msr.WriteRaplLimitW(Watts{30.0});
  every.msr.WriteRaplLimitW(Watts{30.0});
  const uint64_t rebuilds_before = multi.pkg.tick_stats().plan_rebuilds;
  for (int t = 0; t < 2000; t++) {
    multi.pkg.Tick(kTick);
    every.pkg.Tick(kTick);
  }
  EXPECT_LE(multi.pkg.tick_stats().plan_rebuilds - rebuilds_before, 1u);
  EXPECT_EQ(multi.pkg.tick_stats().fast_ticks, 0u);
  EXPECT_EQ(EnergyBits(multi.pkg), EnergyBits(every.pkg));
  EXPECT_EQ(multi.pkg.now(), every.pkg.now());

  // Clearing the limit moves the epoch: the engine replans and holds again.
  multi.msr.DisableRaplLimit();
  for (int t = 0; t < 2000; t++) {
    multi.pkg.Tick(kTick);
  }
  EXPECT_GT(multi.pkg.tick_stats().fast_ticks, 0u);
  EXPECT_EQ(EnergyBits(multi.pkg), kRaplRunEnergyBits);
}

}  // namespace
}  // namespace papd
