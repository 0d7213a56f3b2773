// Differential tests for the indexed join substrate: the hom search
// (dynamic atom order, per-relation hash indexes) must agree with the
// scan engine of tests/reference_database.h (static greedy order, full
// relation scans) on randomized instances, and must never enumerate more
// candidate tuples. Storage and engines are also checked against the
// brute-force string reference of the same header.

#include <algorithm>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/thread_pool.h"
#include "cq/database.h"
#include "cq/homomorphism.h"
#include "datalog/eval.h"
#include "parser/parser.h"
#include "structure/acyclic_eval.h"
#include "tests/generators.h"
#include "tests/reference_database.h"

namespace qcont {
namespace {

std::vector<Tuple> Sorted(std::vector<Tuple> tuples) {
  std::sort(tuples.begin(), tuples.end());
  return tuples;
}

// Total candidate tuples the engine inspected, whichever way it got them.
std::uint64_t Candidates(const HomSearchStats& stats) {
  return stats.index_candidates + stats.scan_candidates;
}

// The same random facts loaded into a Database and into the string-tuple
// oracle (a copied mt19937, so both see one insertion sequence).
std::pair<Database, testref::ReferenceDatabase> ReferencePair(
    std::mt19937* rng, const testgen::SchemaSpec& schema, int domain,
    int facts) {
  std::mt19937 rng2 = *rng;
  Database db = testgen::RandomDatabase(rng, schema, domain, facts);
  testref::ReferenceDatabase ref =
      testgen::RandomDatabase<testref::ReferenceDatabase>(&rng2, schema,
                                                          domain, facts);
  return {std::move(db), std::move(ref)};
}

TEST(IndexDifferentialTest, FindHomomorphismAgreesOnRandomInstances) {
  std::mt19937 rng(20260807);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int trial = 0; trial < 60; ++trial) {
    auto [db, ref] = ReferencePair(&rng, schema, 4, 12);
    ConjunctiveQuery cq = testgen::RandomCq(&rng, schema, 4, 4, 1);
    auto indexed = FindHomomorphism(cq, db);
    EXPECT_EQ(indexed.has_value(), !testref::EvaluateCq(cq, ref).empty())
        << "trial " << trial;
    if (indexed.has_value()) {
      // The witnesses may differ (different search orders), but both must
      // be homomorphisms: every body atom's image must be a fact.
      for (const Atom& a : cq.atoms()) {
        Tuple image;
        for (const Term& t : a.terms()) {
          image.push_back(t.is_variable() ? indexed->at(t.name()) : t.name());
        }
        EXPECT_TRUE(db.HasFact(a.predicate(), image)) << "trial " << trial;
      }
    }
  }
}

TEST(IndexDifferentialTest, EvaluateCqAgreesOnRandomInstances) {
  std::mt19937 rng(7071);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int trial = 0; trial < 40; ++trial) {
    Database db = testgen::RandomDatabase(&rng, schema, 5, 16);
    ConjunctiveQuery cq = testgen::RandomCq(&rng, schema, 3, 4, 2);
    HomSearchStats indexed_stats, scan_stats;
    std::vector<Tuple> indexed = Sorted(EvaluateCq(cq, db, &indexed_stats));
    std::vector<Tuple> scan = testref::ScanEvaluateCq(cq, db, &scan_stats);
    EXPECT_EQ(indexed, scan) << "trial " << trial;
    // The indexed engine only ever shrinks the candidate stream: a probe
    // returns a subset of the rows a full scan would have walked.
    EXPECT_LE(Candidates(indexed_stats), Candidates(scan_stats))
        << "trial " << trial;
  }
}

TEST(IndexDifferentialTest, EvaluateUcqAgreesOnRandomInstances) {
  std::mt19937 rng(4242);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int trial = 0; trial < 25; ++trial) {
    Database db = testgen::RandomDatabase(&rng, schema, 4, 14);
    UnionQuery ucq = testgen::RandomAcyclicUcq(&rng, schema, 3, 3, 1);
    HomSearchStats indexed_stats, scan_stats;
    EXPECT_EQ(EvaluateUcq(ucq, db, &indexed_stats),
              testref::ScanEvaluateUcq(ucq, db, &scan_stats))
        << "trial " << trial;
    EXPECT_LE(Candidates(indexed_stats), Candidates(scan_stats))
        << "trial " << trial;
  }
}

TEST(IndexDifferentialTest, FixedAssignmentsAgree) {
  std::mt19937 rng(99);
  const testgen::SchemaSpec schema = testgen::BinarySchema();
  for (int trial = 0; trial < 30; ++trial) {
    Database db = testgen::RandomDatabase(&rng, schema, 4, 10);
    ConjunctiveQuery cq = testgen::RandomCq(&rng, schema, 3, 3, 0);
    // Pin the first body variable to a random domain value (mirrors the
    // frozen-head construction in the containment tests).
    Assignment fixed;
    if (!cq.atoms().empty() && !db.ActiveDomain().empty()) {
      const Term& t = cq.atoms()[0].terms()[0];
      if (t.is_variable()) {
        fixed[t.name()] = db.ActiveDomain()[rng() % db.ActiveDomain().size()];
      }
    }
    auto indexed = FindHomomorphism(cq, db, fixed);
    auto scan = testref::ScanFindHomomorphism(cq, db, fixed);
    EXPECT_EQ(indexed.has_value(), scan.has_value()) << "trial " << trial;
  }
}

TEST(IndexDifferentialTest, DatalogFixpointAgreesAcrossEnginesAndStrategies) {
  std::mt19937 rng(31337);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int trial = 0; trial < 20; ++trial) {
    auto [edb, ref] = ReferencePair(&rng, schema, 4, 10);
    DatalogProgram program = testgen::RandomLinearProgram(&rng, schema, 2);
    const std::vector<Tuple> want = testref::EvaluateGoal(program, ref);
    for (EvalStrategy strategy :
         {EvalStrategy::kNaive, EvalStrategy::kSemiNaive}) {
      EvalOptions options;
      options.strategy = strategy;
      auto goal = EvaluateGoal(program, edb, options);
      ASSERT_TRUE(goal.ok()) << "trial " << trial;
      EXPECT_EQ(*goal, want) << "trial " << trial << " strategy "
                             << static_cast<int>(strategy);
    }
  }
}

// ---------------------------------------------------------------------------
// Storage and engines against the test-only reference (tests/
// reference_database.h): the same random facts are loaded into a Database
// and into the string-tuple oracle, and every engine reading the Database
// must produce the answers the oracle's brute-force evaluation produces.
// ---------------------------------------------------------------------------

TEST(ReferenceDifferentialTest, HomSearchMatchesReference) {
  std::mt19937 rng(20260807);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int trial = 0; trial < 40; ++trial) {
    auto [db, ref] = ReferencePair(&rng, schema, 5, 24);
    ConjunctiveQuery cq = testgen::RandomCq(&rng, schema, 4, 4, 2);
    const std::vector<Tuple> want = testref::EvaluateCq(cq, ref);
    EXPECT_EQ(Sorted(EvaluateCq(cq, db)), want) << "trial " << trial;
    EXPECT_EQ(testref::ScanEvaluateCq(cq, db), want) << "trial " << trial;
  }
}

TEST(ReferenceDifferentialTest, SemiNaiveEvalMatchesReferenceAcrossThreads) {
  std::mt19937 rng(424243);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int trial = 0; trial < 12; ++trial) {
    auto [edb, ref] = ReferencePair(&rng, schema, 4, 12);
    DatalogProgram program = testgen::RandomLinearProgram(&rng, schema, 2);
    const std::vector<Tuple> want = testref::EvaluateGoal(program, ref);
    for (int threads : {1, 8}) {
      EvalOptions options;
      options.exec = ExecContext{.threads = threads, .stats = nullptr};
      auto goal = EvaluateGoal(program, edb, options);
      ASSERT_TRUE(goal.ok()) << "trial " << trial;
      EXPECT_EQ(*goal, want) << "trial " << trial << " threads " << threads;
    }
  }
}

// Semi-naive evaluation at threads {1, 8} against the oracle: the goal
// tuples must match, and the derived database must render identically at
// both thread counts (same facts, same insertion order).
void ExpectSemiNaiveMatchesReference(const DatalogProgram& program,
                                     const Database& edb,
                                     const testref::ReferenceDatabase& ref,
                                     const std::string& where) {
  const std::vector<Tuple> want = testref::EvaluateGoal(program, ref);
  std::vector<std::string> dumps;
  for (int threads : {1, 8}) {
    EvalOptions options;
    options.exec = ExecContext{.threads = threads, .stats = nullptr};
    auto goal = EvaluateGoal(program, edb, options);
    ASSERT_TRUE(goal.ok()) << where << ": " << goal.status().message();
    EXPECT_EQ(*goal, want) << where << " threads " << threads;
    auto derived = EvaluateProgram(program, edb, options);
    ASSERT_TRUE(derived.ok()) << where;
    dumps.push_back(derived->ToString());
  }
  EXPECT_EQ(dumps[0], dumps[1]) << where;
}

// x0, ..., x<n-1> with the variables rotated left by `shift`.
std::string Vars(int n, int shift = 0) {
  std::string out;
  for (int i = 0; i < n; ++i) {
    if (i > 0) out += ",";
    out += 'x';
    out += std::to_string((i + shift) % n);
  }
  return out;
}

// The rule shapes that once left the block-join path: Boolean and
// mutually recursive 0-ary predicates (0-ary deltas, heads and body
// atoms), atoms wider than the 32-bit probe mask (bound positions past 32
// checked after the probe), a variable repeated in the delta atom and in
// a join atom, and a join atom sharing no variable with the rest.
TEST(ReferenceDifferentialTest, BlockJoinShapesMatchReferenceAcrossThreads) {
  const int kWide = 34;
  const std::vector<std::string> programs = {
      "p() :- e(x,x). goal p.",
      "q() :- p(). p() :- q(), e(x,y). goal p.",
      // Rules listed callers-first, so round 0 derives only s and the
      // 0-ary deltas drive rounds 1 and 2.
      "p() :- q(), e(x,y). q() :- s(). s() :- e(x,x). "
      "r(x) :- t(x), z(). t(x) :- e(x,y). g() :- p(), r(x). goal g.",
      "w(" + Vars(kWide) + ") :- big(" + Vars(kWide) + "). "
      "w(" + Vars(kWide, 1) + ") :- w(" + Vars(kWide) + "), e(x0,x33). "
      "u(y,x33) :- u(y,x32), big(" + Vars(kWide) + "). "
      "u(y,z) :- e(y,z). "
      "h(" + Vars(kWide) + ") :- w(" + Vars(kWide) + "), u(x0,x33). goal h.",
      "t(x) :- t(x), e(x,x). t(x) :- m(x). d(x,z) :- d(x,x), e(x,z). "
      "d(x,y) :- e(x,y). g(x) :- t(x), d(x,x). goal g.",
      "t(x,y) :- t(x,z), m(y). t(x,y) :- e(x,y). goal t.",
  };
  // A small graph with loops, a unary relation, a 0-ary fact and a few
  // 34-ary rows built from the graph's values.
  std::vector<std::pair<std::string, Tuple>> facts = {
      {"e", {"a", "b"}}, {"e", {"b", "c"}}, {"e", {"c", "a"}},
      {"e", {"b", "b"}}, {"e", {"c", "d"}}, {"e", {"d", "d"}},
      {"m", {"a"}},      {"m", {"d"}},      {"z", {}},
  };
  const std::vector<std::string> values = {"a", "b", "c", "d"};
  for (int r = 0; r < 4; ++r) {
    Tuple row;
    for (int i = 0; i < kWide; ++i) row.push_back(values[(r + i * (r + 1)) % 4]);
    facts.emplace_back("big", std::move(row));
  }
  Database edb;
  testref::ReferenceDatabase ref;
  for (const auto& [rel, tuple] : facts) {
    edb.AddFact(rel, tuple);
    ref.AddFact(rel, tuple);
  }
  for (const std::string& text : programs) {
    auto program = ParseProgram(text);
    ASSERT_TRUE(program.ok()) << text << ": " << program.status().message();
    ExpectSemiNaiveMatchesReference(*program, edb, ref, text);
  }

  std::mt19937 rng(20261017);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int trial = 0; trial < 12; ++trial) {
    auto [random_edb, random_ref] = ReferencePair(&rng, schema, 4, 12);
    DatalogProgram program = testgen::RandomLinearProgram(&rng, schema, 2);
    ExpectSemiNaiveMatchesReference(program, random_edb, random_ref,
                                    "trial " + std::to_string(trial));
  }
}

TEST(ReferenceDifferentialTest, YannakakisMatchesReference) {
  std::mt19937 rng(777001);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int trial = 0; trial < 30; ++trial) {
    auto [db, ref] = ReferencePair(&rng, schema, 5, 20);
    ConjunctiveQuery cq = testgen::RandomAcyclicCq(&rng, schema, 4, 1);
    const std::vector<Tuple> want = testref::EvaluateCq(cq, ref);
    auto sat = AcyclicSatisfiable(cq, db);
    ASSERT_TRUE(sat.ok()) << "trial " << trial;
    EXPECT_EQ(*sat, !want.empty()) << "trial " << trial;
    auto eval = EvaluateAcyclicCq(cq, db);
    ASSERT_TRUE(eval.ok()) << "trial " << trial;
    EXPECT_EQ(Sorted(*eval), want) << "trial " << trial;
  }
}

TEST(ReferenceDifferentialTest, FactsDomainAndProbesMatchReference) {
  std::mt19937 rng(90909);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int trial = 0; trial < 20; ++trial) {
    auto [db, ref] = ReferencePair(&rng, schema, 4, 30);
    ASSERT_EQ(db.NumFacts(), ref.NumFacts()) << "trial " << trial;
    ASSERT_EQ(db.Relations(), ref.Relations()) << "trial " << trial;
    EXPECT_EQ(db.ActiveDomain(), ref.ActiveDomain()) << "trial " << trial;
    for (const std::string& rel : db.Relations()) {
      const std::vector<Tuple>& facts = ref.Facts(rel);
      EXPECT_EQ(db.Facts(rel), facts) << "trial " << trial;
      const RelationId id = db.RelationIdOf(rel);
      ASSERT_EQ(db.NumRows(id), facts.size()) << "trial " << trial;
      const std::size_t arity = db.Arity(id);
      for (std::size_t r = 0; r < facts.size(); ++r) {
        const std::span<const ValueId> row = db.Row(id, r);
        ASSERT_EQ(row.size(), facts[r].size()) << "trial " << trial;
        for (std::size_t p = 0; p < row.size(); ++p) {
          EXPECT_EQ(db.ValueName(row[p]), facts[r][p]) << "trial " << trial;
        }
        EXPECT_TRUE(db.HasRow(id, row)) << "trial " << trial;
        // Every nonempty position subset of the row as a probe key.
        for (std::uint32_t mask = 1; mask < (1u << arity); ++mask) {
          std::vector<ValueId> key;
          Tuple key_names;
          for (std::size_t p = 0; p < arity; ++p) {
            if ((mask >> p & 1u) == 0) continue;
            key.push_back(row[p]);
            key_names.push_back(facts[r][p]);
          }
          const auto got = db.Probe(id, mask, key);
          EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()),
                    ref.Probe(rel, mask, key_names))
              << "trial " << trial << " mask " << mask;
        }
      }
    }
  }
}

TEST(ReferenceDifferentialTest, GrowthPastLoadKeepsEveryRowProbeable) {
  // Append far past the ¾ load point so the primary and mask-1 probe
  // tables rebuild several times mid-stream; membership and postings must
  // stay exact.
  Database db;
  const int kRows = 2000;
  for (int i = 0; i < kRows; ++i) {
    const Tuple t = {testgen::Numbered("n", i), testgen::Numbered("n", i + 1)};
    ASSERT_TRUE(db.AddFact("E", t));
    ASSERT_FALSE(db.AddFact("E", t));
  }
  const RelationId id = db.RelationIdOf("E");
  ASSERT_EQ(db.NumRows(id), static_cast<std::size_t>(kRows));
  for (std::size_t r = 0; r < db.NumRows(id); ++r) {
    const std::span<const ValueId> row = db.Row(id, r);
    for (const std::uint32_t mask : {1u, 3u}) {
      const auto hits = db.Probe(id, mask, row.first(mask == 1u ? 1 : 2));
      ASSERT_EQ(hits.size(), 1u) << "row " << r << " mask " << mask;
      EXPECT_EQ(hits[0], static_cast<std::uint32_t>(r));
    }
  }
  EXPECT_GT(db.index_stats().probe_resizes, 0u);
}

TEST(ReferenceDifferentialTest, ProbeOnlyWorkloadTakesNoExclusiveLocks) {
  // Regression test for the lock-free read contract (ARCHITECTURE.md):
  // once a database is frozen, concurrent full-mask probes touch no
  // exclusive lock — they are served entirely by the primary table. Runs
  // under the TSAN CI leg, which would also flag any data race the
  // counter misses.
  std::mt19937 rng(515151);
  const testgen::SchemaSpec schema = testgen::BinarySchema();
  Database db = testgen::RandomDatabase(&rng, schema, 6, 200);
  const RelationId id = db.RelationIdOf(db.Relations().front());
  const std::size_t n = db.NumRows(id);
  ASSERT_GT(n, 0u);
  const std::span<const ValueId> keys = db.Arena(id);
  const std::uint64_t locks_before = db.memo_exclusive_locks();
  const std::uint64_t epoch_before = db.mutation_epoch();
  ExecContext ctx{.threads = 4, .stats = nullptr};
  ParallelFor(ctx, 8, [&](std::size_t) {
    std::vector<std::span<const std::uint32_t>> hits(n);
    db.ProbeMany(id, 0x3u, keys,
                 std::span<std::span<const std::uint32_t>>(hits));
    for (std::size_t r = 0; r < n; ++r) {
      ASSERT_EQ(hits[r].size(), 1u);
    }
  });
  EXPECT_EQ(db.memo_exclusive_locks(), locks_before)
      << "a probe-only workload acquired an exclusive lock";
  EXPECT_EQ(db.mutation_epoch(), epoch_before);
}

}  // namespace
}  // namespace qcont
