#include "stats.h"

#include <algorithm>
#include <cmath>

namespace servebench {

namespace {

/// 1-based nearest rank of percentile p over n samples.
std::size_t Rank(std::size_t n, double p) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  return samples[Rank(samples.size(), p) - 1];
}

double Median(std::vector<double> samples) { return Percentile(std::move(samples), 50); }

TailPercentile Tail(const std::vector<double>& samples) {
  TailPercentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  for (double p : {99.0, 98.0, 95.0, 90.0, 75.0, 50.0}) {
    const std::size_t rank = Rank(n, p);
    if (n - rank >= 10) {
      out.percentile = p;
      out.value = sorted[rank - 1];
      return out;
    }
  }
  out.value = sorted.back();
  return out;
}

}  // namespace servebench
