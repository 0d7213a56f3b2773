// Shared vocabulary of the served-verdict benchmark: generated requests with
// their expected answers, a seeded random source, and small helpers.
#ifndef SERVEBENCH_COMMON_H_
#define SERVEBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <ctime>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// CPU time the process has used so far, in microseconds. The server runs
/// single-threaded here, so the CPU time a call adds is its service time:
/// its wall time less any time the core spent on other processes.
inline double ProcessCpuMicros() {
  timespec t;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) * 1e6 + static_cast<double>(t.tv_nsec) / 1e3;
}

/// FNV-1a over bytes, chained through `h` (the request-stream hash).
inline std::uint64_t Fnv1a(const std::string& bytes,
                           std::uint64_t h = 1469598103934665603ull) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Seeded random source. Only the engine's raw output is used (the
/// distribution classes of the standard library are not portable across
/// implementations), so a seed names the same stream everywhere.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  std::uint64_t Next() { return engine_(); }
  /// Uniform in [lo, hi].
  int Uniform(int lo, int hi) {
    return lo + static_cast<int>(Next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  /// True with probability `percent` / 100.
  bool Percent(int percent) { return static_cast<int>(Next() % 100) < percent; }
  /// A fresh seed for a sub-generator.
  std::uint64_t Fork() { return Next() ^ 0x9e3779b97f4a7c15ull; }

  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (std::size_t i = items->size(); i > 1; --i) {
      std::swap((*items)[i - 1], (*items)[Next() % i]);
    }
  }

 private:
  std::mt19937_64 engine_;
};

/// The answer a response must carry, fixed when the request is generated.
struct Expected {
  enum class Kind { kContainment, kEval, kAnalyze };
  Kind kind = Kind::kContainment;
  bool contained = false;  // containment
  bool acyclic = false;    // analyze: the report's ucq.acyclic flag
  /// eval: the number of goal tuples and their order-independent digest
  /// (oracle.h TupleDigest), as the breadth-first oracle computed them.
  std::uint64_t tuple_count = 0;
  std::uint64_t tuple_digest = 0;
};

/// One generated request line and its expected answer.
struct Request {
  std::string line;
  Expected expect;
};

}  // namespace servebench

#endif  // SERVEBENCH_COMMON_H_
