// Differential and contract tests for the SIMD tag-filtered probe kernels
// (DESIGN.md §16): the vector group compare must agree bit-for-bit with
// the scalar SWAR reference, probes must agree with a naive row scan
// through table growth, the probes counter must bump once per key,
// AddRowBatch must leave exactly what a serial AddRow loop leaves, and the
// block-at-a-time delta rounds must derive exactly what the brute-force
// reference derives — with thread-count-invariant counters.

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "base/flat_set.h"
#include "base/simd.h"
#include "cq/database.h"
#include "datalog/eval.h"
#include "tests/generators.h"
#include "tests/reference_database.h"

namespace qcont {
namespace {

TEST(SimdKernelTest, MatchBytesAgreesWithScalarReference) {
  std::mt19937 rng(20260808);
  std::uint8_t buf[64];
  for (int trial = 0; trial < 2000; ++trial) {
    for (std::uint8_t& b : buf) {
      // Bias toward tag-shaped bytes (high bit set) and empties (zero).
      const std::uint32_t roll = rng() % 4;
      b = roll == 0 ? 0 : static_cast<std::uint8_t>(rng() | 0x80u);
    }
    const std::uint8_t needle =
        trial % 3 == 0 ? 0 : static_cast<std::uint8_t>(rng() | 0x80u);
    for (std::size_t off = 0; off + 16 <= sizeof(buf); ++off) {
      EXPECT_EQ(MatchBytes16(buf + off, needle),
                MatchBytes16Scalar(buf + off, needle));
    }
  }
}

TEST(SimdKernelTest, MatchBytesMatchesPositionByPosition) {
  std::mt19937 rng(77);
  std::uint8_t buf[16];
  for (int trial = 0; trial < 500; ++trial) {
    for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng());
    const std::uint8_t needle = static_cast<std::uint8_t>(rng());
    const std::uint32_t mask = MatchBytes16(buf, needle);
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ((mask >> i) & 1u, buf[i] == needle ? 1u : 0u);
    }
    EXPECT_EQ(mask >> 16, 0u);
  }
}

TEST(ProbeKernelTest, ProbeMatchesScanReference) {
  std::mt19937 rng(75001);
  Database db;
  const int domain = 12;
  for (int i = 0; i < 300; ++i) {
    db.AddFact(i % 5 == 0 ? "u" : "e",
               i % 5 == 0 ? Tuple{testgen::Numbered("v", rng() % domain)}
                          : Tuple{testgen::Numbered("v", rng() % domain),
                                  testgen::Numbered("v", rng() % domain)});
  }
  const RelationId e = db.RelationIdOf("e");
  const RelationId u = db.RelationIdOf("u");
  auto vid = [&](std::size_t i) { return db.pool()->Find(testgen::Numbered("v", i)); };
  for (int trial = 0; trial < 200; ++trial) {
    const ValueId a = vid(rng() % domain);
    const ValueId b = vid(rng() % domain);
    for (const std::uint32_t mask : {1u, 2u, 3u}) {
      const ValueId key[2] = {a, b};
      const std::size_t w = std::popcount(mask);
      const std::span<const ValueId> k(key, w);
      const auto got = db.Probe(e, mask, k);
      const auto want = testref::ScanReference(db, e, mask, k);
      ASSERT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), want)
          << "mask=" << mask;
    }
    const ValueId ku[1] = {a};
    const auto got = db.Probe(u, 1u, ku);
    ASSERT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()),
              testref::ScanReference(db, u, 1u, ku));
  }
}

TEST(ProbeKernelTest, ProbeManyMatchesSingleProbes) {
  std::mt19937 rng(909);
  Database db;
  for (int i = 0; i < 400; ++i) {
    db.AddFact("e", Tuple{testgen::Numbered("v", rng() % 20),
                          testgen::Numbered("v", rng() % 20)});
  }
  const RelationId e = db.RelationIdOf("e");
  std::vector<ValueId> keys;
  const std::size_t n = 256;
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(db.pool()->Find(testgen::Numbered("v", rng() % 20)));
  }
  std::vector<std::span<const std::uint32_t>> hits(n);
  db.ProbeMany(e, 1u, keys, hits);
  for (std::size_t i = 0; i < n; ++i) {
    const auto single = db.Probe(e, 1u, std::span<const ValueId>(&keys[i], 1));
    EXPECT_EQ(std::vector<std::uint32_t>(hits[i].begin(), hits[i].end()),
              std::vector<std::uint32_t>(single.begin(), single.end()));
  }
}

// The index_stats() contract: `probes` counts keys, not slots visited —
// one per Probe call, one per ProbeMany key — with tag-filter and
// Bloom-filter traffic accounted separately.
TEST(ProbeKernelTest, ProbesCounterBumpsOncePerKey) {
  std::mt19937 rng(4243);
  Database db;
  for (int i = 0; i < 500; ++i) {
    db.AddFact("e", Tuple{testgen::Numbered("v", rng() % 30),
                          testgen::Numbered("v", rng() % 30)});
  }
  const RelationId e = db.RelationIdOf("e");
  const std::uint64_t before = db.index_stats().probes;
  std::vector<ValueId> keys;
  const std::size_t n = 300;
  for (std::size_t i = 0; i < n; ++i) {
    // Every third key is interned but absent: a guaranteed miss that the
    // Bloom filter may answer without touching the slots.
    keys.push_back(i % 3 == 0
                       ? db.pool()->Intern(testgen::Numbered("w", i))
                       : db.pool()->Find(testgen::Numbered("v", rng() % 30)));
  }
  std::vector<std::span<const std::uint32_t>> hits(n);
  db.ProbeMany(e, 1u, keys, hits);
  EXPECT_EQ(db.index_stats().probes, before + n);
  for (std::size_t i = 0; i < 10; ++i) {
    db.Probe(e, 1u, std::span<const ValueId>(&keys[i], 1));
  }
  EXPECT_EQ(db.index_stats().probes, before + n + 10);
  // Tag and filter traffic exist and are accounted outside `probes`.
  const DatabaseIndexStats s = db.index_stats();
  EXPECT_GT(s.tag_hits, 0u);
  EXPECT_GT(s.filter_skips, 0u);
}

// Identical databases probed with identical sequences must produce
// identical counters — the determinism contract that makes the
// scalar-vs-SIMD CI legs comparable.
TEST(ProbeKernelTest, CountersDeterministicAcrossRuns) {
  DatabaseIndexStats runs[2];
  for (int run = 0; run < 2; ++run) {
    std::mt19937 rng(606);
    Database db;
    for (int i = 0; i < 300; ++i) {
      db.AddFact("e", Tuple{testgen::Numbered("v", rng() % 15),
                            testgen::Numbered("v", rng() % 15)});
    }
    const RelationId e = db.RelationIdOf("e");
    for (int i = 0; i < 500; ++i) {
      const ValueId k = db.pool()->Find(testgen::Numbered("v", rng() % 15));
      db.Probe(e, 1u, std::span<const ValueId>(&k, 1));
    }
    runs[run] = db.index_stats();
  }
  EXPECT_EQ(runs[0].probes, runs[1].probes);
  EXPECT_EQ(runs[0].tag_hits, runs[1].tag_hits);
  EXPECT_EQ(runs[0].tag_skips, runs[1].tag_skips);
  EXPECT_EQ(runs[0].probe_collisions, runs[1].probe_collisions);
  EXPECT_EQ(runs[0].filter_skips, runs[1].filter_skips);
}

// AddRowBatch is the round barrier's commit: for every batch size —
// including the sizes around the 1024-row block boundary and well past it —
// and for packed (arity ≤ 2) and wide (arity 3) primary keys, it must leave
// exactly the database a serial AddRow loop leaves, with duplicates inside
// the batch and against rows already present, and count one probe per
// candidate.
TEST(ProbeKernelTest, AddRowBatchEqualsSerialAddRowLoop) {
  for (const std::size_t arity : {1, 2, 3}) {
    for (const std::size_t n : {1, 1023, 1024, 1025, 5000}) {
      std::mt19937 rng(static_cast<std::uint32_t>(97 * arity + n));
      Database serial;
      testref::ReferenceDatabase ref;
      const int domain = static_cast<int>(arity == 1 ? 3 * n : 2 * n);
      auto random_row = [&] {
        Tuple t(arity, "v");
        for (Value& v : t) v += std::to_string(rng() % domain);
        return t;
      };
      std::vector<Tuple> present;
      for (int i = 0; i < 300; ++i) {
        Tuple t = random_row();
        serial.AddFact("r", t);
        ref.AddFact("r", t);
        present.push_back(std::move(t));
      }
      Database batch = serial;  // shares the pool: ids are comparable
      const RelationId rel = serial.RelationIdOf("r");

      // Candidates: a quarter repeat rows already present, a quarter
      // repeat earlier candidates, the rest are random.
      std::vector<Tuple> candidates;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t roll = rng() % 4;
        if (roll == 0) {
          candidates.push_back(present[rng() % present.size()]);
        } else if (roll == 1 && !candidates.empty()) {
          candidates.push_back(candidates[rng() % candidates.size()]);
        } else {
          candidates.push_back(random_row());
        }
      }
      std::vector<ValueId> rows;
      for (const Tuple& t : candidates) {
        for (const Value& v : t) rows.push_back(batch.pool()->Intern(v));
      }

      std::size_t added_serial = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::span<const ValueId> row(rows.data() + i * arity, arity);
        if (serial.AddRow(rel, row)) ++added_serial;
        ref.AddFact("r", candidates[i]);
      }
      const std::uint64_t probes_before = batch.index_stats().probes;
      const std::size_t added = batch.AddRowBatch(rel, arity, n, rows);
      const std::string where =
          "arity=" + std::to_string(arity) + " n=" + std::to_string(n);

      EXPECT_EQ(added, added_serial) << where;
      EXPECT_EQ(batch.index_stats().probes - probes_before, n) << where;
      EXPECT_EQ(batch.Facts("r"), serial.Facts("r")) << where;
      EXPECT_EQ(batch.Facts("r"), ref.Facts("r")) << where;
      EXPECT_EQ(batch.ActiveDomain(), serial.ActiveDomain()) << where;
      EXPECT_EQ(batch.ActiveDomainIds(), serial.ActiveDomainIds()) << where;
      ASSERT_EQ(batch.NumRows(rel), serial.NumRows(rel)) << where;
      const std::span<const ValueId> got = batch.Arena(rel);
      const std::span<const ValueId> want = serial.Arena(rel);
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << where;

      // Probe answers (full-row primary table and a lazily built
      // first-position index) against the string oracle.
      const std::uint32_t full = (1u << arity) - 1u;
      for (int trial = 0; trial < 200; ++trial) {
        const Tuple& t = candidates[rng() % candidates.size()];
        std::vector<ValueId> key;
        for (const Value& v : t) key.push_back(batch.ValueIdOf(v));
        for (const std::uint32_t mask : {full, 1u}) {
          const std::size_t w = std::popcount(mask);
          const auto hits =
              batch.Probe(rel, mask, std::span<const ValueId>(key).first(w));
          EXPECT_EQ(std::vector<std::uint32_t>(hits.begin(), hits.end()),
                    ref.Probe("r", mask, Tuple(t.begin(), t.begin() + w)))
              << where << " mask=" << mask;
        }
      }
    }
  }
}

void ExpectHomStatsEqual(const HomSearchStats& a, const HomSearchStats& b,
                         int trial, const char* what) {
  EXPECT_EQ(a.atom_attempts, b.atom_attempts) << what << " trial " << trial;
  EXPECT_EQ(a.backtracks, b.backtracks) << what << " trial " << trial;
  EXPECT_EQ(a.index_probes, b.index_probes) << what << " trial " << trial;
  EXPECT_EQ(a.index_candidates, b.index_candidates)
      << what << " trial " << trial;
  EXPECT_EQ(a.scan_candidates, b.scan_candidates)
      << what << " trial " << trial;
}

TEST(BlockJoinTest, MatchesReferenceOnRandomPrograms) {
  std::mt19937 rng(314159);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int trial = 0; trial < 25; ++trial) {
    std::mt19937 ref_rng = rng;
    Database edb = testgen::RandomDatabase(&rng, schema, 4, 14);
    const testref::ReferenceDatabase ref =
        testgen::RandomDatabase<testref::ReferenceDatabase>(&ref_rng, schema,
                                                            4, 14);
    DatalogProgram program = testgen::RandomLinearProgram(&rng, schema, 2);
    EvalOptions naive;
    naive.strategy = EvalStrategy::kNaive;
    DatalogEvalStats bs, ns;
    auto block_goal = EvaluateGoal(program, edb, EvalOptions(), &bs);
    auto naive_goal = EvaluateGoal(program, edb, naive, &ns);
    ASSERT_TRUE(block_goal.ok() && naive_goal.ok()) << "trial " << trial;
    EXPECT_EQ(*block_goal, testref::EvaluateGoal(program, ref))
        << "trial " << trial;
    // Both strategies add the whole closure, each fact once.
    EXPECT_EQ(bs.derived_facts, ns.derived_facts) << "trial " << trial;
  }
}

TEST(BlockJoinTest, ThreadCountInvariantAnswersAndCounters) {
  std::mt19937 rng(271828);
  const testgen::SchemaSpec schema = testgen::SmallSchema();
  for (int trial = 0; trial < 12; ++trial) {
    Database edb = testgen::RandomDatabase(&rng, schema, 4, 12);
    DatalogProgram program = testgen::RandomLinearProgram(&rng, schema, 2);
    std::vector<std::vector<Tuple>> goals;
    std::vector<DatalogEvalStats> stats;
    for (const int threads : {1, 8}) {
      EvalOptions options;
      options.exec = ExecContext{.threads = threads, .stats = nullptr};
      DatalogEvalStats s;
      auto goal = EvaluateGoal(program, edb, options, &s);
      ASSERT_TRUE(goal.ok()) << "trial " << trial;
      goals.push_back(*goal);
      stats.push_back(s);
    }
    EXPECT_EQ(goals[0], goals[1]) << "trial " << trial;
    EXPECT_EQ(stats[0].iterations, stats[1].iterations) << "trial " << trial;
    EXPECT_EQ(stats[0].rule_firings, stats[1].rule_firings)
        << "trial " << trial;
    EXPECT_EQ(stats[0].derived_facts, stats[1].derived_facts)
        << "trial " << trial;
    ExpectHomStatsEqual(stats[0].hom, stats[1].hom, trial, "threads");
  }
}

TEST(BlockJoinTest, KnobGridProducesIdenticalGoals) {
  std::mt19937 rng(161803);
  const testgen::SchemaSpec schema = testgen::BinarySchema();
  for (int trial = 0; trial < 8; ++trial) {
    Database edb = testgen::RandomDatabase(&rng, schema, 5, 16);
    DatalogProgram program = testgen::RandomLinearProgram(&rng, schema, 2);
    EvalOptions base;
    auto want = EvaluateGoal(program, edb, base);
    ASSERT_TRUE(want.ok()) << "trial " << trial;
    for (const std::size_t block :
         {std::size_t{1}, std::size_t{7}, std::size_t{1024}}) {
      EvalOptions options;
      options.delta_block_rows = block;
      auto got = EvaluateGoal(program, edb, options);
      ASSERT_TRUE(got.ok()) << "trial " << trial;
      EXPECT_EQ(*got, *want) << "trial " << trial << " block=" << block;
    }
  }
}

TEST(FlatSetTest, MatchesUnorderedSetOnRandomWorkload) {
  std::mt19937 rng(5150);
  for (int trial = 0; trial < 20; ++trial) {
    FlatU64Set flat;
    std::unordered_set<std::uint64_t> ref;
    const int ops = 2000;
    for (int i = 0; i < ops; ++i) {
      // Small key space forces duplicate inserts and positive lookups.
      const std::uint64_t key = 1 + rng() % 500;
      if (rng() % 2 == 0) {
        EXPECT_EQ(flat.Insert(key), ref.insert(key).second);
      } else {
        EXPECT_EQ(flat.Contains(key), ref.count(key) > 0);
      }
      EXPECT_EQ(flat.size(), ref.size());
    }
    for (std::uint64_t key = 1; key <= 600; ++key) {
      EXPECT_EQ(flat.Contains(key), ref.count(key) > 0);
    }
  }
}

}  // namespace
}  // namespace qcont
