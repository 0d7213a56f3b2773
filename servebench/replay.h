// The traced replay: every request of a server call is pushed through the
// layers' public functions in the order server::Server runs them (decode,
// parse, hash, coalesce, minimize, plan-cache lookups, analysis, engine,
// plan-cache inserts), with one span recorded around each call. The
// program itself is not instrumented: the spans are taken from here, so
// their sum against the untraced server's wall time is the ledger of what
// no public layer call accounts for.
#ifndef SERVEBENCH_REPLAY_H_
#define SERVEBENCH_REPLAY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/interner.h"
#include "oracle.h"
#include "server/plan_cache.h"
#include "server/server.h"

namespace servebench {

/// The layers a span is charged to. kAux spans are measurement-only calls
/// the server does not make (forced engines for the routing regret, the
/// bare fixpoint under EvaluateGoal); they are kept out of the ledger.
enum class Layer { kJson, kParser, kAnalysis, kCq, kPlanCache, kCore, kDatalog, kAux };

/// One replayed request's answer plus what the derived-facts check needs.
struct ReplayAnswer {
  ResponseAnswer answer;
  bool evaluated = false;           // EvaluateGoal ran for this request
  std::uint64_t derived_facts = 0;  // its DatalogEvalStats::derived_facts
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Replayer {
 public:
  /// Mirrors a server built with `options` (its engine thread count). Spans
  /// of the first `trace_calls` recorded calls are kept for the trace file.
  Replayer(const qcont::server::ServerOptions& options, std::size_t trace_calls);
  ~Replayer();

  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  /// Replays one server call — `lines` as one scheduler batch, as
  /// HandleLine (one line) or HandleBatch (≤ max_batch lines) would run
  /// it. Unrecorded calls (the warm-up prefix) only advance the cache
  /// state. Returns one answer per line.
  std::vector<ReplayAnswer> Call(const std::vector<std::string>& lines,
                                 bool record);

  /// Sum of the ledger (non-aux) layer spans of the last recorded call, and
  /// the call's whole traced time.
  double last_layer_us() const { return last_layer_us_; }
  double last_call_us() const { return last_call_us_; }

  /// Per-layer metrics over every recorded call. `unattributed_pct` and
  /// `overhead_pct` come from the caller's ledger against the untraced
  /// server run; `response_bytes` is the server's mean response size.
  std::vector<Metric> Metrics(double response_bytes,
                                   double unattributed_pct,
                                   double overhead_pct);

  /// Writes the kept spans as Chrome trace_event JSON ("<layer>/<call>"
  /// names; tid 0 = the server's path, tid 1 = aux calls). Returns false
  /// when the file cannot be written.
  bool WriteTrace(const std::string& path) const;

 private:
  struct Item;
  struct SpanRecord {
    const char* name;
    int tid;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  void Prepare(const std::string& line, Item* item);
  void Execute(Item* item);
  void RunContainment(Item* item);
  void RunEval(Item* item);
  void RunAnalyze(Item* item);
  void AddSpan(const char* name, Layer layer, std::int64_t start_ns,
               std::int64_t end_ns);
  /// Runs `fn` inside one span charged to `layer`; returns its result.
  template <typename Fn>
  auto Timed(const char* name, Layer layer, Fn&& fn);
  std::int64_t NowNs() const;

  int engine_threads_;
  std::size_t trace_calls_;
  std::shared_ptr<qcont::Interner> pool_;
  qcont::server::PlanCache cache_;  // the server's default capacities
  std::int64_t base_ns_ = 0;
  mutable std::int64_t last_ns_ = -1;  // NowNs is strictly increasing

  bool recording_ = false;
  std::size_t recorded_calls_ = 0;
  std::size_t recorded_requests_ = 0;
  double call_layer_us_ = 0;
  double call_aux_us_ = 0;
  double last_layer_us_ = 0;
  double last_call_us_ = 0;
  std::vector<SpanRecord> spans_;
  std::unordered_map<const char*, double> span_us_;  // by span name

  // Counters over recorded calls.
  std::uint64_t coalesced_ = 0;
  std::uint64_t parsed_bytes_ = 0;
  struct HitCount {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
  };
  HitCount verdict_, analysis_, core_, eval_;
  qcont::ProgramArtifactCacheStats artifact_before_;
  qcont::server::PlanCacheStats plan_before_;
  std::uint64_t ack_runs_ = 0, type_runs_ = 0;
  std::uint64_t antichain_sets_ = 0, game_states_ = 0;
  std::uint64_t kinds_ = 0, elements_ = 0, combos_ = 0;
  double chosen_acyclic_us_ = 0, best_acyclic_us_ = 0;
  std::uint64_t eval_runs_ = 0;
  std::uint64_t iterations_ = 0, rule_firings_ = 0, derived_facts_ = 0;
  std::uint64_t atom_attempts_ = 0, index_probes_ = 0;
  std::uint64_t db_probes_ = 0, db_probe_collisions_ = 0;
};

}  // namespace servebench

#endif  // SERVEBENCH_REPLAY_H_
