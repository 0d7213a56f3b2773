// Independent answer oracles and response checking.
#ifndef SERVEBENCH_ORACLE_H_
#define SERVEBENCH_ORACLE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace servebench {

/// Transitive closure of a directed graph by one breadth-first search per
/// node: every (u, v) with v reachable from u in one or more steps.
std::vector<std::pair<int, int>> ClosurePairs(
    int nodes, const std::vector<std::pair<int, int>>& edges);

/// Nodes reachable from `sources` in zero or more steps.
std::vector<int> ReachableNodes(int nodes,
                                const std::vector<std::pair<int, int>>& edges,
                                const std::vector<int>& sources);

/// Order-independent digest of a tuple set: the sum of the FNV-1a hashes of
/// the tuples, each rendered as its values joined by ','.
std::uint64_t TupleDigest(const std::vector<std::string>& joined_tuples);

/// Decides a random containment pair by agreement: the forced-ACk and the
/// forced-general engines must agree, and a bounded-expansion refuter
/// (every expansion of depth ≤ `refuter_depth` tested with the
/// Chandra-Merlin criterion) must find a counterexample exactly when the
/// engines say "not contained". Returns nullopt when the engines say "not
/// contained" but no expansion within the bound refutes it (the pair
/// cannot be checked independently, so the generator draws another).
/// Throws std::runtime_error when the engines disagree, fail, or the
/// refuter contradicts a "contained" verdict.
std::optional<bool> DecideByAgreement(const std::string& program,
                                      const std::string& query,
                                      int refuter_depth);

/// What a response line says, reduced to what the oracle and the traced
/// replay compare: status, cache marker, and the answer payload.
struct ResponseAnswer {
  std::string status;
  std::string cache;
  /// containment: "contained=<0|1>;route=<r>;ack_level=<k>;witness=<w>";
  /// eval: "n=<count>;digest=<hex>"; analyze: the report JSON re-dumped;
  /// otherwise the error code.
  std::string payload;
  bool contained = false;
  bool acyclic = false;
  std::uint64_t tuple_count = 0;
  std::uint64_t tuple_digest = 0;
};

/// Parses one server response line; nullopt when it is not a response.
std::optional<ResponseAnswer> ParseResponse(const std::string& response);

/// True iff `answer` is ok and agrees with `expect`.
bool MatchesExpected(const ResponseAnswer& answer, const Expected& expect);

/// Payload helpers shared with the replay so both sides render the same
/// comparison string.
std::string ContainmentPayload(bool contained, const std::string& route,
                               int ack_level, const std::string& witness);
std::string EvalPayload(std::uint64_t count, std::uint64_t digest);

}  // namespace servebench

#endif  // SERVEBENCH_ORACLE_H_
