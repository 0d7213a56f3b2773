// Order statistics for the latency and set-up figures.
#ifndef SERVEBENCH_STATS_H_
#define SERVEBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace servebench {

/// Nearest-rank percentile of `samples` (need not be sorted; p in (0, 100]).
double Percentile(std::vector<double> samples, double p);

double Median(std::vector<double> samples);

/// The tail percentile this benchmark reports: the highest of
/// {99, 98, 95, 90, 75, 50} that still leaves at least ten samples strictly
/// beyond its nearest rank, so the figure is never set by fewer than ten
/// calls. p99 is the ceiling: with enough samples the figure is p99, not a
/// rarer quantile that a handful of calls would decide. `percentile` is 0 (and `value` the maximum) when there
/// are at most ten samples.
struct TailPercentile {
  double percentile = 0;
  double value = 0;
  std::size_t samples = 0;
};
TailPercentile Tail(const std::vector<double>& samples);

}  // namespace servebench

#endif  // SERVEBENCH_STATS_H_
