// The host-speed reference: a fixed memory-latency kernel, written here and
// never taken from the program, that the benchmark runs between timed
// calls. Each call's time is scaled by the kernel's time around it, so the
// reported timings read as if the whole run had gone at one reference speed.
//
// Why: the VM this benchmark was built on shares a host whose speed changes
// from second to second and between phases that last minutes. The server's
// calls took 1.4-1.65x as long in a slow phase as in a fast one, on every
// workload alike and on the CPU clock as on the wall clock, so runs of the
// same code disagreed by more than any useful bound. The kernel walks a
// 4 MiB table by dependent random loads, the access pattern of the server's
// hash tables; it slows down with the host about as the calls do. Across
// seven 5 s runs in a fluctuating stretch, scaling each call by the samples
// around it cut the IQR/median of throughput from 0.22-0.33 to 0.05-0.10
// per workload; scaling by the run's median sample did less (0.08-0.13).
#ifndef SERVEBENCH_REFERENCE_H_
#define SERVEBENCH_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace servebench {

class HostReference {
 public:
  /// The kernel's CPU time in a fast phase of the host the bounds were set
  /// on: a call timed next to samples of this length is not rescaled.
  static constexpr double kNominalUs = 2500;

  HostReference();

  /// Runs the kernel once and records its CPU time.
  void Sample();
  std::size_t samples() const { return samples_us_.size(); }

  /// The factor that scales a time measured after sample `index - 1` (and
  /// before sample `index`, if it exists) to the reference speed:
  /// kNominalUs over the mean of those samples. Needs index >= 1.
  double ScaleAt(std::size_t index) const;

  /// Median of all samples, for the printed summary.
  double MedianUs() const;

 private:
  std::vector<std::uint32_t> table_;
  std::vector<double> samples_us_;
};

}  // namespace servebench

#endif  // SERVEBENCH_REFERENCE_H_
