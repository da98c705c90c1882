#include "src/msr/turbostat.h"

#include <algorithm>
#include <utility>

#include "src/msr/fault_plan.h"

namespace papd {
namespace {

// Resets *s to a default-constructed sample over `cores` default cores,
// keeping the core buffer's capacity.
void ResetSample(TelemetrySample* s, size_t cores) {
  std::vector<CoreTelemetry> buffer = std::move(s->cores);
  *s = TelemetrySample{};
  s->cores = std::move(buffer);
  s->cores.assign(cores, CoreTelemetry{});
}

}  // namespace

uint64_t WrappingDelta32(uint64_t now, uint64_t before) {
  return (now - before) & 0xFFFFFFFFULL;
}

Turbostat::Turbostat(MsrFile* msr) : msr_(msr) {
  Take(&prev_);
  const PlatformSpec& spec = msr_->spec();
  // Generous physical ceilings: anything beyond them is a measurement
  // fault (wrap storm, reset, garbage read), not a hot package.
  max_plausible_pkg_w_ = 4.0 * spec.tdp_w + Watts{25.0};
  max_plausible_core_w_ = 2.0 * spec.tdp_w;
  max_plausible_mhz_ = 1.5 * spec.turbo_max_mhz;
  max_plausible_ips_ = IpsAtMhz(spec.turbo_max_mhz, 32.0);  // IPC far above any core.
}

void Turbostat::Take(Snapshot* s) const {
  s->t = msr_->NowSeconds();
  s->pkg_energy = msr_->Read(kMsrPkgEnergyStatus, 0);
  const int n = msr_->num_cores();
  s->aperf.resize(static_cast<size_t>(n));
  s->mperf.resize(static_cast<size_t>(n));
  s->instructions.resize(static_cast<size_t>(n));
  if (msr_->spec().has_per_core_power) {
    s->core_energy.resize(static_cast<size_t>(n));
  }
  for (int c = 0; c < n; c++) {
    const auto i = static_cast<size_t>(c);
    s->aperf[i] = msr_->Read(kMsrIa32Aperf, c);
    s->mperf[i] = msr_->Read(kMsrIa32Mperf, c);
    s->instructions[i] = msr_->Read(kMsrFixedCtr0, c);
    if (msr_->spec().has_per_core_power) {
      s->core_energy[i] = msr_->Read(kMsrAmdCoreEnergy, c);
    }
  }
}

double Turbostat::ClampedDelta(uint64_t now, uint64_t before, bool* regressed) {
  if (now < before) {
    *regressed = true;
    return 0.0;
  }
  return static_cast<double>(now - before);
}

void Turbostat::RawSample(bool repeat, TelemetrySample* out) {
  // Pre-hardening semantics, kept verbatim for the naive-daemon baseline:
  // zero dt produces an all-zero (but "valid") sample and counter deltas
  // wrap unsigned.
  const Snapshot& now = repeat ? prev_ : cur_;
  TelemetrySample& sample = *out;
  ResetSample(&sample, now.aperf.size());
  sample.t = now.t;
  sample.dt = now.t - prev_.t;
  if (sample.dt <= Seconds{0.0}) {
    if (!repeat) {
      std::swap(prev_, cur_);
    }
    return;
  }
  sample.pkg_w =
      Joules{static_cast<double>(WrappingDelta32(now.pkg_energy, prev_.pkg_energy)) *
             kRaplEnergyUnitJoules} / sample.dt;
  const Mhz tsc_mhz{msr_->spec().tsc_mhz};
  for (size_t i = 0; i < now.aperf.size(); i++) {
    CoreTelemetry& ct = sample.cores[i];
    ct.cpu = static_cast<int>(i);
    ct.online = msr_->CoreOnline(static_cast<int>(i));
    const double da = static_cast<double>(now.aperf[i] - prev_.aperf[i]);
    const double dm = static_cast<double>(now.mperf[i] - prev_.mperf[i]);
    ct.active_mhz = dm > 0.0 ? da / dm * tsc_mhz : Mhz{0.0};
    ct.busy = dm / (tsc_mhz * kHzPerMhz * sample.dt);
    ct.ips = static_cast<double>(now.instructions[i] - prev_.instructions[i]) / sample.dt;
    const uint64_t readout =
        (msr_->Read(kMsrIa32ThermStatus, static_cast<int>(i)) >> 16) & 0x7F;
    ct.temp_c = msr_->spec().thermal.tj_max_c - static_cast<double>(readout);
    if (!now.core_energy.empty()) {
      ct.core_w = Joules{static_cast<double>(
                            WrappingDelta32(now.core_energy[i], prev_.core_energy[i])) *
                        kRaplEnergyUnitJoules} / sample.dt;
    }
  }
  std::swap(prev_, cur_);  // A repeat has dt == 0 and never gets here.
}

void Turbostat::StaleSample(TelemetrySample* out) {
  TelemetrySample& sample = *out;
  ResetSample(&sample, 0);
  sample.t = prev_.t;
  sample.dt = Seconds{0.0};
  sample.valid = false;
  sample.fault_flags = kSampleStale;
  invalid_counter_->Increment();
  if (has_last_good_) {
    // Re-serve the last good rates so consumers that ignore `valid` see a
    // plausible world instead of "zero power" (which the priority policy
    // would read as limit_w of headroom and ramp every core to maximum).
    sample.pkg_w = last_good_.pkg_w;
    sample.cores = last_good_.cores;
    for (CoreTelemetry& ct : sample.cores) {
      ct.plausible = false;
    }
  } else {
    sample.cores.resize(static_cast<size_t>(msr_->num_cores()));
    for (size_t i = 0; i < sample.cores.size(); i++) {
      sample.cores[i].cpu = static_cast<int>(i);
      sample.cores[i].online = msr_->CoreOnline(static_cast<int>(i));
      sample.cores[i].plausible = false;
    }
  }
}

TelemetrySample Turbostat::Sample() {
  TelemetrySample sample;
  SampleInto(&sample);
  return sample;
}

void Turbostat::SampleInto(TelemetrySample* out) {
  Take(&cur_);
  const Snapshot& now = cur_;
  FaultInjector* injector = msr_->faults();
  FaultInjector::SampleFaults injected;
  if (injector != nullptr) {
    injected = injector->CorruptSnapshot(cur_.t, &cur_.aperf, &cur_.mperf, &cur_.instructions,
                                         &cur_.pkg_energy, &cur_.core_energy);
  }
  if (!validate_) {
    // Naive mode still honors an injected stale read (the reader got the
    // old data again — with the old timestamp, hence dt == 0).
    RawSample(injected.stale, out);
    return;
  }

  if (injected.stale) {
    // Dropped read: prev_ is kept, so the next good sample covers the gap.
    StaleSample(out);
    return;
  }

  if (now.t - prev_.t <= Seconds{0.0}) {
    StaleSample(out);
    return;
  }
  TelemetrySample& sample = *out;
  ResetSample(&sample, now.aperf.size());
  sample.t = now.t;
  sample.dt = now.t - prev_.t;
  sample.pkg_w =
      Joules{static_cast<double>(WrappingDelta32(now.pkg_energy, prev_.pkg_energy)) *
             kRaplEnergyUnitJoules} / sample.dt;
  if (sample.pkg_w > max_plausible_pkg_w_) {
    // Energy counter reset/wrap storm: the 32-bit delta is garbage, and
    // with it the package-power ground the control loops stand on.
    sample.fault_flags |= kSampleEnergyImplausible;
    sample.pkg_w = has_last_good_ ? last_good_.pkg_w : Watts{0.0};
  }

  const Mhz tsc_mhz{msr_->spec().tsc_mhz};
  for (size_t i = 0; i < now.aperf.size(); i++) {
    CoreTelemetry& ct = sample.cores[i];
    ct.cpu = static_cast<int>(i);
    ct.online = msr_->CoreOnline(static_cast<int>(i));
    bool regressed = false;
    const double da = ClampedDelta(now.aperf[i], prev_.aperf[i], &regressed);
    const double dm = ClampedDelta(now.mperf[i], prev_.mperf[i], &regressed);
    const double di = ClampedDelta(now.instructions[i], prev_.instructions[i], &regressed);
    ct.active_mhz = dm > 0.0 ? da / dm * tsc_mhz : Mhz{0.0};
    ct.busy = dm / (tsc_mhz * kHzPerMhz * sample.dt);
    ct.ips = di / sample.dt;
    const uint64_t readout =
        (msr_->Read(kMsrIa32ThermStatus, static_cast<int>(i)) >> 16) & 0x7F;
    ct.temp_c = msr_->spec().thermal.tj_max_c - static_cast<double>(readout);
    if (!now.core_energy.empty()) {
      ct.core_w = Joules{static_cast<double>(
                            WrappingDelta32(now.core_energy[i], prev_.core_energy[i])) *
                        kRaplEnergyUnitJoules} / sample.dt;
      if (*ct.core_w > max_plausible_core_w_) {
        // Core-scope fault: flagged as a rate problem, not an energy one —
        // package power (what the budget check runs on) is still sound.
        sample.fault_flags |= kSampleRateImplausible;
        ct.plausible = false;
        ct.core_w = has_last_good_ && i < last_good_.cores.size()
                        ? last_good_.cores[i].core_w
                        : std::optional<Watts>(Watts{0.0});
      }
    }
    if (regressed) {
      sample.fault_flags |= kSampleCounterReset;
      ct.plausible = false;
    }
    if (ct.busy > 1.1 || ct.active_mhz > max_plausible_mhz_ || ct.ips > max_plausible_ips_) {
      sample.fault_flags |= kSampleRateImplausible;
      ct.plausible = false;
    }
    if (!ct.plausible && has_last_good_ && i < last_good_.cores.size()) {
      const CoreTelemetry& good = last_good_.cores[i];
      ct.active_mhz = good.active_mhz;
      ct.busy = good.busy;
      ct.ips = good.ips;
      if (good.core_w.has_value()) {
        ct.core_w = good.core_w;
      }
    }
  }

  std::swap(prev_, cur_);
  // Core-scope faults (counter reset, rate/core-power implausibility) have
  // their rates substituted with last-good values and the affected cores
  // marked implausible; package power is still trustworthy, so the sample
  // remains safe to control on.  Only package-scope faults — a stale read
  // or garbage package energy — make the whole sample invalid.
  sample.valid = (sample.fault_flags & (kSampleStale | kSampleEnergyImplausible)) == 0;
  if (sample.fault_flags == 0) {
    last_good_ = sample;
    has_last_good_ = true;
  }
  if (!sample.valid) {
    invalid_counter_->Increment();
  }
}

}  // namespace papd
