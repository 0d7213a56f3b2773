#include <gtest/gtest.h>

#include "parser/parser.h"

namespace qcont {
namespace {

TEST(ParserTest, ProgramWithGoalDirective) {
  auto p = ParseProgram(R"(
    # transitive closure
    t(x, y) :- e(x, y).
    t(x, y) :- e(x, z), t(z, y).
    goal t.
  )");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->rules().size(), 2u);
  EXPECT_EQ(p->goal_predicate(), "t");
}

TEST(ParserTest, GoalDefaultsToFirstHead) {
  auto p = ParseProgram("p(x) :- e(x,y).");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->goal_predicate(), "p");
}

TEST(ParserTest, CommentsAndWhitespace) {
  auto p = ParseProgram(
      "% leading comment\np(x) :- e(x,y). # trailing\n% another\ngoal p.");
  ASSERT_TRUE(p.ok());
}

TEST(ParserTest, ErrorsCarryOffsets) {
  auto p = ParseProgram("p(x) :- e(x,y)");  // missing period
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(p.status().message().find("'.'"), std::string::npos);
}

TEST(ParserTest, RejectsUnsafeProgram) {
  EXPECT_FALSE(ParseProgram("p(x,y) :- e(x,x). goal p.").ok());
}

TEST(ParserTest, UcqWithConstantsAndBoolean) {
  auto u = ParseUcq("Q() :- r(x, 'alice').");
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->arity(), 0u);
  const Atom& atom = u->disjuncts().front().atoms().front();
  EXPECT_TRUE(atom.terms()[1].is_constant());
  EXPECT_EQ(atom.terms()[1].name(), "alice");
}

TEST(ParserTest, UcqRequiresConsistentHeads) {
  EXPECT_FALSE(ParseUcq("Q(x) :- e(x,y). R(x) :- e(x,y).").ok());
  EXPECT_FALSE(ParseUcq("Q(x) :- e(x,y). Q(x,y) :- e(x,y).").ok());
}

TEST(ParserTest, UC2rpqRegexAtoms) {
  auto g = ParseUC2rpq("Q(x,y) :- [a (b|c)* d-](x, y), [e+](y, z).");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  const C2rpq& q = g->disjuncts().front();
  EXPECT_EQ(q.atoms().size(), 2u);
  EXPECT_EQ(q.atoms()[0].pattern, "a (b|c)* d-");
  EXPECT_TRUE(q.atoms()[0].nfa.AcceptsWord({"a", "b", "c", "d-"}));
}

TEST(ParserTest, UC2rpqRejectsRelationalAtoms) {
  EXPECT_FALSE(ParseUC2rpq("Q(x,y) :- e(x,y).").ok());
  EXPECT_FALSE(ParseUC2rpq("Q(x,y) :- [a](x,y,z).").ok());
  EXPECT_FALSE(ParseUC2rpq("Q(x,y) :- [a](x,y").ok());
}

TEST(ParserTest, DatabaseFacts) {
  auto db = ParseDatabase("likes('ann','beer'). trendy('ann'). e(x, y).");
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE(db->HasFact("likes", {"ann", "beer"}));
  EXPECT_TRUE(db->HasFact("trendy", {"ann"}));
  EXPECT_TRUE(db->HasFact("e", {"x", "y"}));  // bare idents become values
  EXPECT_EQ(db->NumFacts(), 3u);
}

TEST(ParserTest, DatabaseRejectsRules) {
  EXPECT_FALSE(ParseDatabase("p(x) :- e(x,y).").ok());
}

TEST(ParserTest, DatabaseRejectsMixedArities) {
  // A relation has one arity; the clash is reported like the analyzer's
  // QC004 for programs, with the offending line.
  auto db = ParseDatabase("e(a,b).\ne(a,b,c).");
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db.status().message(),
            "predicate 'e' used with inconsistent arities (3 here, 2 before) "
            "(line 2) [QC004]");
}

TEST(ParserTest, RegexUnterminated) {
  EXPECT_FALSE(ParseUC2rpq("Q(x,y) :- [a (x,y).").ok());
}

TEST(ParserTest, ConstantsRejectedInPrograms) {
  EXPECT_FALSE(ParseProgram("p(x) :- e(x,'c'). goal p.").ok());
}

// Every parser diagnostic, byte for byte: each input holds exactly one
// error, so the message (and its "line N") must not depend on how the
// lexer and the rule parser are interleaved.
TEST(ParserTest, DiagnosticsArePinned) {
  enum class Entry { kProgram, kUcq, kUC2rpq, kDatabase };
  struct Case {
    Entry entry;
    const char* text;
    const char* message;
  };
  const Case cases[] = {
      // Lexical errors.
      {Entry::kProgram, "p(x) :- e(x, $y).",
       "unexpected character '$' at line 1"},
      {Entry::kDatabase, "e('a', 'b).\n", "unterminated constant at line 1"},
      {Entry::kUC2rpq, "Q(x,y) :- [a (b|c)*(x, y).",
       "unterminated regex at line 1"},
      // Syntax errors.
      {Entry::kProgram, "p(x) :- e x.", "expected '(' at line 1"},
      {Entry::kUcq, "Q(x) :- e(x y).", "expected ')' at line 1"},
      {Entry::kProgram, "p(x) :- e(x,y)\n", "expected '.' at line 2"},
      {Entry::kDatabase, "e(a, ).", "expected term at line 1"},
      {Entry::kProgram, "p(x) :- .", "expected atom at line 1"},
      {Entry::kDatabase, "goal e f.", "expected '.' at line 1"},
      {Entry::kDatabase, "[a](x, y).",
       "a rule head cannot be a regex atom (line 1)"},
      // Structural errors.
      {Entry::kDatabase, "e(a,b).\np(x) :- e(x,y).",
       "database facts cannot have bodies (line 2)"},
      {Entry::kProgram, "p(x) :- e(x,y).\np(x) :- [a](x, y).",
       "regex atoms are only allowed in UC2RPQs (line 2)"},
      {Entry::kUcq, "Q(x) :- [a](x, y).",
       "regex atoms are only allowed in UC2RPQs (line 1)"},
      {Entry::kUcq, "Q(x) :- e(x,y).\nR(x) :- e(x,y).",
       "all UCQ disjuncts must share one head predicate; got 'R' and 'Q' "
       "(line 2)"},
      {Entry::kUC2rpq, "Q(x,y) :- e(x,y).",
       "UC2RPQ atoms must be regex atoms [expr](x, y) (line 1)"},
      {Entry::kUC2rpq, "Q(x,y) :- [a](x,y,z).",
       "regex atoms take exactly two variables (line 1)"},
      {Entry::kDatabase, "e(a,b).\ne(a,b,c).",
       "predicate 'e' used with inconsistent arities (3 here, 2 before) "
       "(line 2) [QC004]"},
      {Entry::kProgram, "", "program has no rules"},
      {Entry::kUcq, "# only a comment\n", "UCQ has no disjuncts"},
      {Entry::kUC2rpq, "goal q.", "UC2RPQ has no disjuncts"},
      // Line numbers across '#' and '%' comments...
      {Entry::kProgram, "# one\n% two\np(x) :- e(x,y) # three\n% four\n",
       "expected '.' at line 5"},
      {Entry::kProgram, "# one\n\np(x) :- e(x, @).",
       "unexpected character '@' at line 3"},
      // ...and across a constant that spans a newline.
      {Entry::kDatabase, "e('a\nb', c).\nf(x) :- g(x).",
       "database facts cannot have bodies (line 3)"},
      {Entry::kDatabase, "e(a).\nf('x\ny\nz', ).",
       "expected term at line 4"},
  };
  for (const Case& c : cases) {
    Status status;
    switch (c.entry) {
      case Entry::kProgram: status = ParseProgram(c.text).status(); break;
      case Entry::kUcq: status = ParseUcq(c.text).status(); break;
      case Entry::kUC2rpq: status = ParseUC2rpq(c.text).status(); break;
      case Entry::kDatabase: status = ParseDatabase(c.text).status(); break;
    }
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << c.text;
    EXPECT_EQ(status.message(), c.message) << c.text;
  }
}

TEST(ParserTest, AcceptsEdgeCaseInputs) {
  // An arity-0 fact, an empty text, bare identifiers as values and a goal
  // directive (ignored) inside a database.
  auto db = ParseDatabase("z().\ngoal x.\nlikes(ann, 'beer'). e('a\nb', c).");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(db->NumFacts(), 3u);
  EXPECT_TRUE(db->HasFact("z", {}));
  EXPECT_TRUE(db->HasFact("likes", {"ann", "beer"}));
  EXPECT_TRUE(db->HasFact("e", {"a\nb", "c"}));

  auto empty = ParseDatabase("");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->NumFacts(), 0u);
  auto comments = ParseDatabase("# nothing\n% here\n");
  ASSERT_TRUE(comments.ok());
  EXPECT_EQ(comments->NumFacts(), 0u);

  // SourceLines records the line on which each rule's head starts.
  SourceLines lines;
  auto p = ParseProgram(
      "p(x) :- e(x,y).\n\n# comment\np(x) :-\n  f(x,y).\ngoal p.", &lines);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(lines.rule_lines, (std::vector<int>{1, 4}));
  EXPECT_EQ(lines.LineOf(1), 4);
  EXPECT_EQ(lines.LineOf(2), 0);

  SourceLines ucq_lines;
  auto u = ParseUcq("Q(x) :- e(x,y).\nQ(x) :- f(x,'k').", &ucq_lines);
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  EXPECT_EQ(ucq_lines.rule_lines, (std::vector<int>{1, 2}));
  EXPECT_TRUE(u->disjuncts()[1].atoms()[0].terms()[1].is_constant());
}

}  // namespace
}  // namespace qcont
