#include "src/common/stats.h"

#include <algorithm>
#include <cmath>

namespace papd {

void Accumulator::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  count_++;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void Accumulator::Merge(const Accumulator& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Accumulator::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double Percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return PercentileOfSorted(samples, p);
}

BoxStats Summarize(const std::vector<double>& samples) {
  BoxStats s;
  s.count = samples.size();
  if (samples.empty()) {
    return s;
  }
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  auto pct = [&sorted](double p) {
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= sorted.size()) {
      return sorted.back();
    }
    return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
  };
  s.median = pct(50.0);
  s.q1 = pct(25.0);
  s.q3 = pct(75.0);
  s.p1 = pct(1.0);
  s.p99 = pct(99.0);
  double sum = 0.0;
  for (double x : sorted) {
    sum += x;
  }
  s.mean = sum / static_cast<double>(sorted.size());
  return s;
}

}  // namespace papd
