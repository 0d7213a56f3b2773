// How the benchmark drives the server: its options and one timed call
// (HandleLine for single-line calls, HandleBatch otherwise).
#ifndef SERVEBENCH_HARNESS_H_
#define SERVEBENCH_HARNESS_H_

#include <string>
#include <vector>

#include "common.h"
#include "server/server.h"

namespace servebench {

/// Every workload runs the server with default ServerOptions (one batch
/// worker, one engine thread) and no obs sink, so each call runs on one
/// thread and its process CPU time is its service time (README "Timing").
inline qcont::server::ServerOptions BenchOptions() { return {}; }

inline std::vector<std::string> ServeCall(qcont::server::Server& server,
                                          const std::vector<std::string>& lines) {
  if (lines.size() == 1) return {server.HandleLine(lines.front())};
  return server.HandleBatch(lines);
}

/// Groups requests into calls of `batch` lines (the last may be shorter).
inline std::vector<std::vector<std::string>> SplitCalls(
    const std::vector<Request>& requests, std::size_t batch) {
  std::vector<std::vector<std::string>> calls;
  for (std::size_t i = 0; i < requests.size(); i += batch) {
    std::vector<std::string> call;
    for (std::size_t j = i; j < requests.size() && j < i + batch; ++j) {
      call.push_back(requests[j].line);
    }
    calls.push_back(std::move(call));
  }
  return calls;
}

}  // namespace servebench

#endif  // SERVEBENCH_HARNESS_H_
