#include "reference.h"

#include <stdexcept>

#include "common.h"
#include "stats.h"

namespace servebench {

namespace {

constexpr std::size_t kTableWords = std::size_t{1} << 20;  // 4 MiB
constexpr int kLoads = 40000;

/// Keeps the kernel's result observable, so the compiler cannot drop it.
volatile std::uint64_t sink;

}  // namespace

HostReference::HostReference() : table_(kTableWords) {
  for (std::size_t i = 0; i < kTableWords; ++i) {
    table_[i] = static_cast<std::uint32_t>(i * 2654435761u);
  }
}

void HostReference::Sample() {
  // Untimed: bring the table back into the caches, so the timed walk does
  // not depend on how much of it the server's calls evicted.
  std::uint64_t x = 1;
  for (std::uint32_t word : table_) x += word;
  const double start = ProcessCpuMicros();
  for (int k = 0; k < kLoads; ++k) {  // each load's address depends on the last
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    x ^= table_[(x >> 40) & (kTableWords - 1)];
  }
  samples_us_.push_back(ProcessCpuMicros() - start);
  sink = x;
}

double HostReference::ScaleAt(std::size_t index) const {
  if (index == 0 || index > samples_us_.size()) {
    throw std::logic_error("no reference sample before this time");
  }
  const double before = samples_us_[index - 1];
  const double around =
      index < samples_us_.size() ? (before + samples_us_[index]) / 2 : before;
  return kNominalUs / around;
}

double HostReference::MedianUs() const { return Median(samples_us_); }

}  // namespace servebench
