#include <gtest/gtest.h>

#include <random>

#include "core/acrk_containment.h"
#include "core/datalog_ucq.h"
#include "core/datalog_uc2rpq.h"
#include "datalog/expansion.h"
#include "graphdb/c2rpq.h"
#include "parser/parser.h"
#include "tests/generators.h"

namespace qcont {
namespace {

struct Case {
  const char* name;
  const char* program;
  const char* gamma;
  bool contained;
};

class AcrkEngineCases : public ::testing::TestWithParam<Case> {};

TEST_P(AcrkEngineCases, DecidesAndCertifiesWitnesses) {
  const Case& c = GetParam();
  auto program = ParseProgram(c.program);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  auto gamma = ParseUC2rpq(c.gamma);
  ASSERT_TRUE(gamma.ok()) << gamma.status().ToString();
  AcrkEngineStats stats;
  auto answer = DatalogContainedInAcyclicUC2rpq(*program, *gamma, &stats);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->contained, c.contained);
  if (!answer->contained) {
    // The witness expansion must escape Γ yet be derivable (it is an
    // expansion by construction; check the escape half).
    ASSERT_TRUE(answer->witness.has_value());
    UnionQuery single({*answer->witness});
    auto escapes = UcqContainedInUC2rpq(single, *gamma);
    ASSERT_TRUE(escapes.ok());
    EXPECT_FALSE(*escapes) << answer->witness->ToString();
  }
  EXPECT_GT(stats.summaries, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    GraphCases, AcrkEngineCases,
    ::testing::Values(
        Case{"tc_in_aplus",
             "t(x,y) :- a(x,y). t(x,y) :- a(x,z), t(z,y). goal t.",
             "Q(x,y) :- [a+](x,y).", true},
        Case{"tc_not_in_a",
             "t(x,y) :- a(x,y). t(x,y) :- a(x,z), t(z,y). goal t.",
             "Q(x,y) :- [a](x,y).", false},
        Case{"union_labels",
             "t(x,y) :- a(x,y). t(x,y) :- b(x,y). "
             "t(x,y) :- a(x,z), t(z,y). t(x,y) :- b(x,z), t(z,y). goal t.",
             "Q(x,y) :- [(a|b)+](x,y).", true},
        Case{"inverse_direction",
             "r(x,y) :- a(y,x). goal r.", "Q(x,y) :- [a-](x,y).", true},
        Case{"multiedge_both",
             "p(x,y) :- a(x,y), b(x,y). goal p.",
             "Q(x,y) :- [a](x,y), [b](x,y).", true},
        Case{"multiedge_missing",
             "p(x,y) :- a(x,y). goal p.",
             "Q(x,y) :- [a](x,y), [b](x,y).", false},
        Case{"loop_atom",
             "p(x,y) :- a(x,y), s(y,y). goal p.",
             "Q(x,y) :- [a](x,y), [s](y,y).", true},
        Case{"boolean_path",
             "g() :- a(x,y), b(y,z). goal g.", "Q() :- [a b](u,v).", true},
        Case{"boolean_path_wrong_direction",
             "g() :- a(x,y), b(z,y). goal g.", "Q() :- [a b](u,v).", false},
        Case{"even_paths",
             "e(x,y) :- a(x,z), a(z,y). "
             "e(x,y) :- a(x,z), a(z,w), e(w,y). goal e.",
             "Q(x,y) :- [a a (a a)*](x,y).", true},
        Case{"odd_escapes_even",
             "t(x,y) :- a(x,y). t(x,y) :- a(x,z), t(z,y). goal t.",
             "Q(x,y) :- [a a (a a)*](x,y).", false},
        // Opposing multiedges (the x<->y bundle of Examples 5/6).
        Case{"opposing_pair",
             "p(x,y) :- a(x,y), c(y,x). goal p.",
             "Q(x,y) :- [a](x,y), [c-](x,y).", true},
        // A star shape: center with two leaf constraints.
        Case{"star",
             "p(x) :- a(x,y), b(x,z), m(z,z). p(x) :- a(x,y), b(x,z), "
             "m(w,w), p(w). goal p.",
             "Q(x) :- [a](x,u), [b](x,v).", true}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return info.param.name;
    });

TEST(AcrkEngineTest, RejectsCyclicGamma) {
  auto program = ParseProgram("t(x,y) :- a(x,y). goal t.");
  auto cyclic = ParseUC2rpq("Q(x,y) :- [a](x,y), [a](y,z), [a](z,x).");
  ASSERT_TRUE(program.ok() && cyclic.ok());
  EXPECT_EQ(
      DatalogContainedInAcyclicUC2rpq(*program, *cyclic).status().code(),
      StatusCode::kFailedPrecondition);
}

TEST(AcrkEngineTest, RejectsNonBinarySchema) {
  auto program = ParseProgram("t(x,y) :- r(x,y,z). goal t.");
  auto gamma = ParseUC2rpq("Q(x,y) :- [a](x,y).");
  ASSERT_TRUE(program.ok() && gamma.ok());
  EXPECT_EQ(
      DatalogContainedInAcyclicUC2rpq(*program, *gamma).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(AcrkEngineTest, ReportsAcrkLevel) {
  auto program = ParseProgram("p(x,y) :- a(x,y). goal p.");
  auto gamma = ParseUC2rpq("Q(x,y) :- [a](x,y), [a*](x,y).");
  ASSERT_TRUE(program.ok() && gamma.ok());
  AcrkEngineStats stats;
  auto answer = DatalogContainedInAcyclicUC2rpq(*program, *gamma, &stats);
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->contained);
  EXPECT_EQ(stats.acrk_level, 2);
}

// Property: on UC2RPQs whose regexes are single symbols, the ACRk engine
// must agree with the relational UCQ engines (the two semantics coincide).
TEST(AcrkEngineProperty, AgreesWithUcqEngineOnSingleSymbolQueries) {
  std::mt19937 rng(271828);
  testgen::SchemaSpec schema = testgen::BinarySchema();
  int yes = 0, no = 0;
  for (int trial = 0; trial < 25; ++trial) {
    DatalogProgram program = testgen::RandomLinearProgram(&rng, schema, 1);
    if (!program.Validate().ok()) continue;
    // Random acyclic UCQ over binary atoms -> mirrored UC2RPQ.
    UnionQuery ucq = testgen::RandomAcyclicUcq(&rng, schema, 1, 3, 1);
    if (!ucq.Validate().ok()) continue;
    std::vector<C2rpq> disjuncts;
    bool convertible = true;
    for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
      std::vector<RpqAtom> atoms;
      for (const Atom& a : cq.atoms()) {
        auto atom = MakeRpqAtom(a.predicate(), a.terms()[0], a.terms()[1]);
        if (!atom.ok()) {
          convertible = false;
          break;
        }
        atoms.push_back(std::move(*atom));
      }
      disjuncts.emplace_back(cq.head(), std::move(atoms));
    }
    if (!convertible) continue;
    UC2rpq gamma(std::move(disjuncts));
    auto acyclic = IsAcyclicUC2rpq(gamma);
    if (!acyclic.ok() || !*acyclic) continue;
    auto rpq_answer = DatalogContainedInAcyclicUC2rpq(program, gamma);
    ASSERT_TRUE(rpq_answer.ok()) << rpq_answer.status().ToString();
    auto ucq_answer = DatalogContainedInUcq(program, ucq);
    ASSERT_TRUE(ucq_answer.ok());
    EXPECT_EQ(rpq_answer->contained, ucq_answer->contained)
        << program.ToString() << "\n"
        << gamma.ToString();
    (rpq_answer->contained ? yes : no)++;
  }
  EXPECT_GT(yes + no, 5);
  EXPECT_GT(no, 0);
}

// Property: on random binary-schema programs and random acyclic UC2RPQs
// with genuinely regular atoms, engine answers validate against bounded
// expansion enumeration (complete C2RPQ evaluation on each expansion).
TEST(AcrkEngineProperty, RandomRegexCrossValidation) {
  std::mt19937 rng(99991);
  testgen::SchemaSpec schema = testgen::BinarySchema();
  const std::vector<std::string> patterns = {"a",      "b",        "a b",
                                             "a+",     "(a|b)*",   "a- ",
                                             "b a*",   "a|b",      "b-"};
  int yes = 0, no = 0;
  for (int trial = 0; trial < 25; ++trial) {
    DatalogProgram program = testgen::RandomLinearProgram(&rng, schema, 1);
    if (!program.Validate().ok()) continue;
    // Random chain-shaped gamma of 1-2 atoms (strongly acyclic).
    int m = 1 + rng() % 2;
    std::vector<RpqAtom> atoms;
    for (int i = 0; i < m; ++i) {
      auto atom = MakeRpqAtom(patterns[rng() % patterns.size()],
                              Term::Variable(testgen::Numbered("x", i)),
                              Term::Variable(testgen::Numbered("x", i + 1)));
      ASSERT_TRUE(atom.ok());
      atoms.push_back(std::move(*atom));
    }
    UC2rpq gamma({C2rpq({Term::Variable("x0")}, std::move(atoms))});
    auto answer = DatalogContainedInAcyclicUC2rpq(program, gamma);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    if (answer->contained) {
      auto exps = EnumerateExpansions(program, 4, 150);
      ASSERT_TRUE(exps.ok());
      for (const ConjunctiveQuery& e : *exps) {
        UnionQuery single({e});
        auto contained = UcqContainedInUC2rpq(single, gamma);
        ASSERT_TRUE(contained.ok());
        EXPECT_TRUE(*contained)
            << program.ToString() << gamma.ToString() << "\n"
            << e.ToString();
      }
      ++yes;
    } else {
      ASSERT_TRUE(answer->witness.has_value());
      UnionQuery single({*answer->witness});
      auto contained = UcqContainedInUC2rpq(single, gamma);
      ASSERT_TRUE(contained.ok());
      EXPECT_FALSE(*contained)
          << program.ToString() << gamma.ToString() << "\n"
          << answer->witness->ToString();
      ++no;
    }
  }
  EXPECT_GT(yes + no, 10);
  EXPECT_GT(no, 0);
}

TEST(GeneralUc2rpqTest, RoutesAcyclicToExactEngine) {
  auto program = ParseProgram(
      "t(x,y) :- a(x,y). t(x,y) :- a(x,z), t(z,y). goal t.");
  auto gamma = ParseUC2rpq("Q(x,y) :- [a+](x,y).");
  ASSERT_TRUE(program.ok() && gamma.ok());
  auto answer = DatalogContainedInUC2rpq(*program, *gamma);
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->used_exact_engine);
  EXPECT_EQ(answer->verdict, Uc2rpqVerdict::kContained);
}

TEST(GeneralUc2rpqTest, CyclicGammaRefutationSearch) {
  auto program = ParseProgram("p(x,y) :- a(x,y). goal p.");
  // A cyclic Γ (triangle); a single a-edge cannot satisfy it.
  auto gamma = ParseUC2rpq("Q(x,y) :- [a](x,y), [a](y,z), [a](z,x).");
  ASSERT_TRUE(program.ok() && gamma.ok());
  auto answer = DatalogContainedInUC2rpq(*program, *gamma);
  ASSERT_TRUE(answer.ok());
  EXPECT_FALSE(answer->used_exact_engine);
  EXPECT_EQ(answer->verdict, Uc2rpqVerdict::kNotContained);
  EXPECT_TRUE(answer->witness.has_value());
}

TEST(GeneralUc2rpqTest, CyclicGammaUnknownWhenExhausted) {
  // Self-loop program satisfies the triangle query (fold), so no refutation
  // exists and the bounded search must report kUnknown.
  auto program = ParseProgram("p(x,y) :- a(x,y), a(y,x), a(x,x). goal p.");
  auto gamma = ParseUC2rpq("Q(x,y) :- [a](x,y), [a](y,z), [a](z,x).");
  ASSERT_TRUE(program.ok() && gamma.ok());
  auto answer = DatalogContainedInUC2rpq(*program, *gamma);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->verdict, Uc2rpqVerdict::kUnknown);
}

}  // namespace
}  // namespace qcont
