// Self-tests of the benchmark itself (servebench --self-test): the
// percentile rule, generator determinism, the oracles on hand-checked
// cases, the star family's engine crossover, and traced-replay answers
// against server answers on short streams.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "core/router.h"
#include "cq/core.h"
#include "harness.h"
#include "oracle.h"
#include "parser/parser.h"
#include "replay.h"
#include "stats.h"
#include "workloads.h"

namespace servebench {

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("  FAIL %s\n", what.c_str());
  }
}

std::vector<double> Range(int n) {
  std::vector<double> out;
  for (int i = n; i >= 1; --i) out.push_back(i);  // unsorted on purpose
  return out;
}

void TestPercentileRule() {
  std::printf("percentile rule\n");
  TailPercentile t = Tail(Range(1000));
  Expect(t.percentile == 99 && t.value == 990 && t.samples == 1000,
         "1000 samples: p99 = 990 (ten samples beyond)");
  t = Tail(Range(100000));
  Expect(t.percentile == 99 && t.value == 99000, "100000 samples: capped at p99");
  t = Tail(Range(100));
  Expect(t.percentile == 90 && t.value == 90 && t.samples == 100,
         "100 samples: p90 = 90 (p95 would leave only five beyond)");
  t = Tail(Range(15));
  Expect(t.percentile == 0 && t.value == 15, "15 samples: no percentile qualifies");
  Expect(Median({3, 1, 2}) == 2 && Median({4, 1, 3, 2}) == 2, "median is the lower middle");
}

std::vector<std::string> Lines(Generator* gen, std::size_t n) {
  std::vector<std::string> out;
  for (const Request& r : gen->WarmUp()) out.push_back(r.line);
  for (const Request& r : gen->Next(n)) out.push_back(r.line);
  return out;
}

void TestDeterminism() {
  std::printf("generator determinism\n");
  for (const WorkloadConfig& config : AllWorkloads()) {
    const std::vector<std::string> a = Lines(MakeGenerator(config, 7).get(), 80);
    const std::vector<std::string> b = Lines(MakeGenerator(config, 7).get(), 80);
    const std::vector<std::string> c = Lines(MakeGenerator(config, 8).get(), 80);
    Expect(a == b, config.name + ": same seed, same lines");
    Expect(a != c, config.name + ": another seed, other lines");
    Expect(StreamHash(config, 7, 40) == StreamHash(config, 7, 40),
           config.name + ": stream hash is stable");
  }
}

bool EnginesAgree(const ContainmentPair& pair, const std::string& label) {
  auto program = qcont::ParseProgram(pair.program);
  auto query = qcont::ParseUcq(pair.query);
  if (!program.ok() || !query.ok()) {
    Expect(false, label + ": parses");
    return false;
  }
  qcont::RouterOptions general;
  general.force = qcont::ForcedRoute::kGeneralEngine;
  general.use_analysis_cache = false;
  auto by_general = qcont::DecideContainment(*program, *query, general);
  bool ok = by_general.ok() && by_general->answer.contained == pair.contained;
  if (pair.acyclic) {
    qcont::RouterOptions ack;
    ack.force = qcont::ForcedRoute::kAckEngine;
    ack.use_analysis_cache = false;
    auto by_ack = qcont::DecideContainment(*program, *query, ack);
    ok = ok && by_ack.ok() && by_ack->answer.contained == pair.contained;
  }
  const qcont::analysis::AnalysisReport report =
      qcont::analysis::AnalyzeForRouting(*program, *query);
  ok = ok && report.acyclic == pair.acyclic;
  Expect(ok, label + ": both engines confirm the constructed answer");
  return ok;
}

/// Fastest of five forced, uncached runs of one engine on `pair`, in µs.
double ForcedMicros(const ContainmentPair& pair, qcont::ForcedRoute route) {
  auto program = qcont::ParseProgram(pair.program);
  auto query = qcont::ParseUcq(pair.query);
  if (!program.ok() || !query.ok()) return -1;
  qcont::RouterOptions options;
  options.force = route;
  options.use_analysis_cache = false;
  double best = -1;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point start = Clock::now();
    if (!qcont::DecideContainment(*program, *query, options).ok()) return -1;
    const double us = MicrosBetween(start, Clock::now());
    if (best < 0 || us < best) best = us;
  }
  return best;
}

/// The star family spans the paper's crossover: the type engine is faster
/// at the smallest fan-out, ACk at the largest.
void TestStarCrossover() {
  std::printf("star crossover inside f = 2..12\n");
  const ContainmentPair low = StarPair(2, "_x");
  const ContainmentPair high = StarPair(12, "_x");
  const double low_ack = ForcedMicros(low, qcont::ForcedRoute::kAckEngine);
  const double low_general = ForcedMicros(low, qcont::ForcedRoute::kGeneralEngine);
  const double high_ack = ForcedMicros(high, qcont::ForcedRoute::kAckEngine);
  const double high_general = ForcedMicros(high, qcont::ForcedRoute::kGeneralEngine);
  std::printf("  f=2: ACk %.0f us, type engine %.0f us; f=12: ACk %.0f us, type engine %.0f us\n",
              low_ack, low_general, high_ack, high_general);
  Expect(low_ack > 0 && low_general > 0 && low_general < low_ack,
         "f=2: the type engine is faster");
  Expect(high_ack > 0 && high_general > 0 && high_ack < high_general,
         "f=12: ACk is faster");
  // Already a core: the server's minimization leaves every star as it is.
  for (int f = 2; f <= 12; ++f) {
    auto query = qcont::ParseUcq(StarPair(f, "_x").query);
    bool core = query.ok() && query->disjuncts().size() == 1;
    if (core) {
      auto minimized = qcont::CoreOf(query->disjuncts().front());
      core = minimized.ok() &&
             minimized->atoms().size() == query->disjuncts().front().atoms().size();
    }
    Expect(core, "star " + std::to_string(f) + " is its own core");
  }
}

void TestOracles() {
  std::printf("oracles\n");
  using Pairs = std::vector<std::pair<int, int>>;
  Expect(ClosurePairs(3, {{0, 1}, {1, 2}}) == Pairs{{0, 1}, {0, 2}, {1, 2}},
         "closure of a 3-chain");
  Expect(ClosurePairs(3, {{0, 1}, {1, 0}}) == Pairs{{0, 0}, {0, 1}, {1, 0}, {1, 1}},
         "closure of a 2-cycle has the self pairs, node 2 nothing");
  Expect(ReachableNodes(4, {{0, 1}, {1, 2}, {3, 3}}, {1}) == std::vector<int>{1, 2},
         "reach from node 1");
  Expect(TupleDigest({"a,b", "c,d"}) == TupleDigest({"c,d", "a,b"}),
         "tuple digest ignores order");

  const std::string tc = "g(x,y) :- e(x,y). g(x,y) :- e(x,z), g(z,y). goal g.";
  Expect(DecideByAgreement(tc, "Q(x,y) :- e(x,y).", 4) == std::optional<bool>(false),
         "TC is not contained in one edge (refuted by the 2-chain)");
  Expect(DecideByAgreement("g(x,y) :- e(x,y). goal g.", "Q(x,y) :- e(x,y).", 4) ==
             std::optional<bool>(true),
         "one edge is contained in one edge");
  Expect(DecideByAgreement(tc, "Q(x,y) :- e(x,y), e(y,x).", 4) ==
             std::optional<bool>(false),
         "TC is not contained in a 2-cycle");

  // Alpha-renaming keeps the canonical hashes the cache keys are made of.
  const ContainmentPair star = StarPair(3, "_t");
  auto p1 = qcont::ParseProgram(star.program);
  auto p2 = qcont::ParseProgram(AlphaRename(star.program, "_r9"));
  auto q1 = qcont::ParseUcq(star.query);
  auto q2 = qcont::ParseUcq(AlphaRename(star.query, "_r9"));
  Expect(p1.ok() && p2.ok() && q1.ok() && q2.ok() &&
             AlphaRename(star.query, "_r9") != star.query &&
             qcont::analysis::CanonicalProgramHash(*p1) ==
                 qcont::analysis::CanonicalProgramHash(*p2) &&
             qcont::analysis::CanonicalQueryHash(*q1) ==
                 qcont::analysis::CanonicalQueryHash(*q2),
         "alpha-renaming preserves canonical hashes");

  // Every constructed family answer, re-derived by both engines.
  for (int f = 2; f <= 12; ++f) EnginesAgree(StarPair(f, "_t"), "star " + std::to_string(f));
  for (int m = 1; m <= 5; ++m) {
    EnginesAgree(ChainUnionPair(m, "_t"), "chain union " + std::to_string(m));
  }
  for (int w = 1; w <= 6; ++w) EnginesAgree(StridePair(w, "_t"), "stride " + std::to_string(w));
  for (int k = 3; k <= 5; ++k) {
    EnginesAgree(CyclePair(k, "_t"), "cycle " + std::to_string(k));
    EnginesAgree(CycleContainedPair(k, "_t"), "cycle contained " + std::to_string(k));
  }
  for (int i = 0; i < 24; ++i) {
    for (const ContainmentPair& pair : HotPairs(i)) {
      EnginesAgree(pair, "hot program " + std::to_string(i));
    }
  }
}

/// Serves `calls` timed calls of a workload's stream and replays them;
/// every answer must agree (status, cache marker, payload).
void TestReplayMatchesServer() {
  std::printf("traced replay equals server\n");
  for (const WorkloadConfig& config : AllWorkloads()) {
    std::unique_ptr<Generator> gen = MakeGenerator(config, 3);
    qcont::server::Server server(BenchOptions());
    Replayer replay(BenchOptions(), 0);
    std::vector<Request> requests = gen->WarmUp();
    const std::size_t warm = requests.size();
    for (Request& r : gen->Next(config.batch == 1 ? 24 : 6 * config.batch)) {
      requests.push_back(std::move(r));
    }
    std::size_t first = 0;
    std::size_t compared = 0;
    bool same = true;
    bool correct = true;
    for (const std::vector<std::string>& call : SplitCalls(requests, config.batch)) {
      const std::vector<std::string> served = ServeCall(server, call);
      const std::vector<ReplayAnswer> replayed = replay.Call(call, first >= warm);
      for (std::size_t i = 0; i < call.size(); ++i) {
        const std::optional<ResponseAnswer> s = ParseResponse(served[i]);
        same = same && s.has_value() && s->status == replayed[i].answer.status &&
               s->cache == replayed[i].answer.cache &&
               s->payload == replayed[i].answer.payload;
        correct = correct && s.has_value() &&
                  MatchesExpected(*s, requests[first + i].expect) &&
                  MatchesExpected(replayed[i].answer, requests[first + i].expect);
        ++compared;
      }
      first += call.size();
    }
    Expect(same, config.name + ": replay answers equal server answers (" +
                     std::to_string(compared) + " requests)");
    Expect(correct, config.name + ": both agree with the oracle");
  }
}

}  // namespace

int RunSelfTest() {
  TestPercentileRule();
  TestDeterminism();
  TestOracles();
  TestStarCrossover();
  TestReplayMatchesServer();
  std::printf("self-test: %s (%d failures)\n", g_failures == 0 ? "ok" : "FAILED",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace servebench
