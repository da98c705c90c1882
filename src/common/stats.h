// Summary statistics used by the experiment harness and benches.
//
// The paper reports box plots (median, quartiles, 1st/99th percentiles) for
// the DVFS sweeps and simple means elsewhere; this header provides both.

#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "src/common/units.h"

namespace papd {

// Streaming accumulator (Welford) for mean/variance/min/max.
class Accumulator {
 public:
  void Add(double x);
  // Merges another accumulator into this one.
  void Merge(const Accumulator& other);

  size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const;  // Population variance; 0 for < 2 samples.
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Linear-interpolated percentile of an ascending-sorted sample set; p in
// [0, 100].  Returns T{} (zero) for an empty set.  T is double or a unit
// Quantity (the interpolation uses only Quantity-preserving operators).
// Reading several percentiles from one sorted copy costs one sort.
template <class T>
T PercentileOfSorted(const std::vector<T>& sorted, double p) {
  if (sorted.empty()) {
    return T{};
  }
  if (p <= 0.0) {
    return sorted.front();
  }
  if (p >= 100.0) {
    return sorted.back();
  }
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) {
    return sorted.back();
  }
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

// The same percentile by selection instead of a full sort: reorders
// *samples (expected O(n)) and returns exactly what PercentileOfSorted
// returns on the sorted set.  The upper interpolation neighbour is the
// minimum of the partition above the selected rank.
template <class T>
T PercentileInPlace(std::vector<T>* samples, double p) {
  std::vector<T>& s = *samples;
  if (s.empty()) {
    return T{};
  }
  if (p <= 0.0) {
    return *std::min_element(s.begin(), s.end());
  }
  const double rank = p / 100.0 * static_cast<double>(s.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  if (p >= 100.0 || lo + 1 >= s.size()) {
    return *std::max_element(s.begin(), s.end());
  }
  const double frac = rank - static_cast<double>(lo);
  const auto lo_it = s.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(s.begin(), lo_it, s.end());
  const T next = *std::min_element(lo_it + 1, s.end());
  return *lo_it * (1.0 - frac) + next * frac;
}

// Linear-interpolated percentile of a sample set; p in [0, 100].
// Returns 0 for an empty sample set.
double Percentile(std::vector<double> samples, double p);

// Strong-typed overload: identical algorithm over unit-typed samples.
template <class Tag>
Quantity<Tag> Percentile(std::vector<Quantity<Tag>> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return PercentileOfSorted(samples, p);
}

// Box-plot summary matching the paper's figures: median, 1st and 3rd
// quartiles, and 1st/99th percentiles as whiskers.
struct BoxStats {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double p1 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
  size_t count = 0;
};

BoxStats Summarize(const std::vector<double>& samples);

}  // namespace papd

#endif  // SRC_COMMON_STATS_H_
