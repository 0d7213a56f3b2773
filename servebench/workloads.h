// Seeded request-stream generators for the three benchmark workloads. Each
// generated request carries the answer the server must give, fixed here and
// never taken from the server: by construction for the containment
// families, by engine agreement plus a bounded-expansion refuter for random
// containment pairs, and by a breadth-first search for evaluation.
#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"

namespace servebench {

enum class WorkloadKind { kContainCold, kServeHot, kEvalClosure };

struct WorkloadConfig {
  std::string name;
  WorkloadKind kind;
  std::size_t batch;    // request lines per timed call; 1 = HandleLine
};

/// The workloads, in the order `--workload all` runs them.
std::vector<WorkloadConfig> AllWorkloads();
/// Nullptr when `name` is not a workload.
const WorkloadConfig* FindWorkload(const std::string& name);

/// A (program, query) containment instance in the parser's text syntax.
struct ContainmentPair {
  std::string program;
  std::string query;
  bool contained = false;
  bool acyclic = false;
};

/// The containment families, each with every predicate name suffixed by
/// `suffix` (so distinct suffixes give canonically distinct instances).
/// Answers hold by construction; the self-test re-derives them with both
/// engines.
///  - Star(f): transitive closure against the paper's star e(x,y) ∧
///    e(x,u1..uf), with a distinct marker atom m_i(u_i) on each fan-out
///    variable so the star is its own core and minimization cannot shrink
///    it. Acyclic, not contained; ACk wins from f ≈ 9 on.
///  - ChainUnion(m): transitive closure against e-chains of length 1..m.
///    Acyclic, not contained.
///  - Stride(w): chains of length 1 (mod w) against "one edge out of x and
///    one edge into y". Acyclic, contained.
///  - Cycle(k): transitive closure against a k-cycle through the head
///    edge. Cyclic, not contained.
///  - CycleContained(k): "a path to an m-node, plus a k-cycle somewhere"
///    against the two disjuncts that cover depth 0 and depth > 0. Cyclic,
///    contained.
ContainmentPair StarPair(int f, const std::string& suffix);
ContainmentPair ChainUnionPair(int m, const std::string& suffix);
ContainmentPair StridePair(int w, const std::string& suffix);
ContainmentPair CyclePair(int k, const std::string& suffix);
ContainmentPair CycleContainedPair(int k, const std::string& suffix);

/// Consistently renames every variable of a program or query text by
/// appending `tag`; predicates and the goal directive are kept. The result
/// is alpha-equivalent, so its canonical hash is unchanged.
std::string AlphaRename(const std::string& text, const std::string& tag);

/// serve_hot's program pool and the hot queries of each pool program.
constexpr int kHotPrograms = 96;  // 1.5 × the default artifact capacity (64)
std::vector<ContainmentPair> HotPairs(int program_index);

/// The closure programs of eval_closure (all derive exactly the pairs, or
/// for "reach" the nodes, that the breadth-first oracle computes).
constexpr int kClosurePrograms = 4;
std::string ClosureProgram(int which);

/// A request stream. Construction fixes everything from the seed: the
/// same (workload, seed) always yields byte-identical lines.
class Generator {
 public:
  virtual ~Generator() = default;
  /// The warm-up prefix the server sees before the first timed call.
  virtual std::vector<Request> WarmUp() = 0;
  /// The next `lines` timed request lines.
  virtual std::vector<Request> Next(std::size_t lines) = 0;
};

std::unique_ptr<Generator> MakeGenerator(const WorkloadConfig& config,
                                         std::uint64_t seed);

/// Hash of the first `lines` timed request lines of (workload, seed),
/// generated on a private generator — the printed stream identity.
std::uint64_t StreamHash(const WorkloadConfig& config, std::uint64_t seed,
                         std::size_t lines);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_
