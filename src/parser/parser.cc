#include "parser/parser.h"

#include <algorithm>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

namespace qcont {

namespace {

// Token kinds of the little language shared by all four entry points.
enum class TokenKind {
  kIdent,     // bare identifier
  kConstant,  // 'quoted'
  kRegex,     // [bracketed regular expression]
  kLParen,
  kRParen,
  kComma,
  kPeriod,
  kImplies,  // :-
  kEnd,
  kError,  // lexical error; the diagnostic is Lexer::error()
};

// A token views the input: identifiers view themselves, constants and
// regexes the bytes between their delimiters.
struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string_view text;
  int line = 1;  // 1-based source line on which the token starts
};

// The C locale's character classes, without the locale lookups.
bool IsSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}
bool IsIdentStart(char c) {
  return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
bool IsIdentChar(char c) { return IsIdentStart(c) || (c >= '0' && c <= '9'); }

int CountNewlines(std::string_view s) {
  return static_cast<int>(std::count(s.begin(), s.end(), '\n'));
}

// Pull lexer: one token per Next() call. After a lexical error every call
// returns kError and error() holds the diagnostic.
class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) {}

  Token Next() {
    if (!error_.ok()) return {TokenKind::kError, {}, line_};
    SkipSpaceAndComments();
    if (pos_ >= input_.size()) return {TokenKind::kEnd, {}, line_};
    const int start_line = line_;
    const std::size_t start = pos_;
    switch (input_[pos_]) {
      case '(': return Punct(TokenKind::kLParen, 1);
      case ')': return Punct(TokenKind::kRParen, 1);
      case ',': return Punct(TokenKind::kComma, 1);
      case '.': return Punct(TokenKind::kPeriod, 1);
      case ':':
        if (pos_ + 1 < input_.size() && input_[pos_ + 1] == '-') {
          return Punct(TokenKind::kImplies, 2);
        }
        break;
      case '\'': {
        const std::size_t close = input_.find('\'', start + 1);
        if (close == std::string_view::npos) {
          return Fail("unterminated constant at line " +
                      std::to_string(start_line));
        }
        return Delimited(TokenKind::kConstant, close);
      }
      case '[': {
        int depth = 1;
        std::size_t i = start + 1;
        for (; i < input_.size(); ++i) {
          if (input_[i] == '[') {
            ++depth;
          } else if (input_[i] == ']' && --depth == 0) {
            break;
          }
        }
        if (i >= input_.size()) {
          return Fail("unterminated regex at line " +
                      std::to_string(start_line));
        }
        return Delimited(TokenKind::kRegex, i);
      }
      default:
        if (IsIdentStart(input_[pos_])) {
          while (pos_ < input_.size() && IsIdentChar(input_[pos_])) ++pos_;
          return {TokenKind::kIdent, input_.substr(start, pos_ - start),
                  start_line};
        }
        break;
    }
    return Fail("unexpected character '" + std::string(1, input_[pos_]) +
                "' at line " + std::to_string(start_line));
  }

  const Status& error() const { return error_; }

 private:
  Token Punct(TokenKind kind, std::size_t width) {
    const Token token{kind, input_.substr(pos_, width), line_};
    pos_ += width;
    return token;
  }

  // The token between the opening delimiter at pos_ and the closing one at
  // `close`; the text may span lines.
  Token Delimited(TokenKind kind, std::size_t close) {
    const Token token{kind, input_.substr(pos_ + 1, close - pos_ - 1), line_};
    line_ += CountNewlines(token.text);
    pos_ = close + 1;
    return token;
  }

  Token Fail(std::string message) {
    error_ = InvalidArgumentError(std::move(message));
    return {TokenKind::kError, {}, line_};
  }

  void SkipSpaceAndComments() {
    while (pos_ < input_.size()) {
      const char c = input_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (IsSpace(c)) {
        ++pos_;
      } else if (c == '#' || c == '%') {
        pos_ = std::min(input_.find('\n', pos_), input_.size());
      } else {
        break;
      }
    }
  }

  std::string_view input_;
  std::size_t pos_ = 0;
  int line_ = 1;
  Status error_;
};

struct TermView {
  std::string_view name;
  bool constant = false;
};

struct AtomView {
  bool regex = false;     // [..](x, y) atom: `name` is the expression
  std::string_view name;  // predicate name or regex text
  std::size_t first_term = 0;
  std::size_t num_terms = 0;
};

// One rule as views into the input. atoms[0] is the head, the rest the
// body; each atom's terms are a slice of `terms`. Reused across rules, so
// after the first few rules reading one allocates nothing.
struct RuleView {
  int line = 0;  // source line of the head atom
  std::vector<AtomView> atoms;
  std::vector<TermView> terms;

  const AtomView& head() const { return atoms.front(); }
  std::span<const AtomView> body() const {
    return std::span<const AtomView>(atoms).subspan(1);
  }
  std::span<const TermView> TermsOf(const AtomView& atom) const {
    return std::span<const TermView>(terms).subspan(atom.first_term,
                                                    atom.num_terms);
  }
};

// Hands out one rule at a time from the token stream, passing over
// "goal <name>." directives (recognized with two tokens of lookahead).
class RuleParser {
 public:
  explicit RuleParser(std::string_view text) : lexer_(text) {
    cur_ = lexer_.Next();
    next_ = lexer_.Next();
  }

  // Reads the next rule into `rule`; false at the end of the input.
  Result<bool> Next(RuleView* rule) {
    while (cur_.kind == TokenKind::kIdent && cur_.text == "goal" &&
           next_.kind == TokenKind::kIdent) {
      Advance();
      goal_ = cur_.text;
      Advance();
      QCONT_RETURN_IF_ERROR(Expect(TokenKind::kPeriod, "'.'"));
    }
    if (cur_.kind == TokenKind::kEnd) return false;
    rule->atoms.clear();
    rule->terms.clear();
    rule->line = cur_.line;
    QCONT_RETURN_IF_ERROR(ParseAtom(rule));
    if (rule->head().regex) {
      return InvalidArgumentError("a rule head cannot be a regex atom (line " +
                                  std::to_string(rule->line) + ")");
    }
    if (cur_.kind == TokenKind::kImplies) {
      do {
        Advance();
        QCONT_RETURN_IF_ERROR(ParseAtom(rule));
      } while (cur_.kind == TokenKind::kComma);
    }
    QCONT_RETURN_IF_ERROR(Expect(TokenKind::kPeriod, "'.'"));
    return true;
  }

  // The name of the last "goal" directive read so far.
  const std::optional<std::string_view>& goal() const { return goal_; }

 private:
  void Advance() {
    cur_ = next_;
    next_ = lexer_.Next();
  }

  // The error for a `cur_` that is not `what`: the lexer's own diagnostic
  // when the lexer failed there.
  Status Unexpected(const char* what) const {
    if (cur_.kind == TokenKind::kError) return lexer_.error();
    return InvalidArgumentError(std::string("expected ") + what +
                                " at line " + std::to_string(cur_.line));
  }

  Status Expect(TokenKind kind, const char* what) {
    if (cur_.kind != kind) return Unexpected(what);
    Advance();
    return Status::Ok();
  }

  Status ParseAtom(RuleView* rule) {
    AtomView atom;
    if (cur_.kind == TokenKind::kRegex) {
      atom.regex = true;
    } else if (cur_.kind != TokenKind::kIdent) {
      return Unexpected("atom");
    }
    atom.name = cur_.text;
    Advance();
    QCONT_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
    atom.first_term = rule->terms.size();
    if (cur_.kind != TokenKind::kRParen) {
      while (true) {
        if (cur_.kind != TokenKind::kIdent &&
            cur_.kind != TokenKind::kConstant) {
          return Unexpected("term");
        }
        rule->terms.push_back({cur_.text, cur_.kind == TokenKind::kConstant});
        Advance();
        if (cur_.kind != TokenKind::kComma) break;
        Advance();
      }
    }
    atom.num_terms = rule->terms.size() - atom.first_term;
    QCONT_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    rule->atoms.push_back(atom);
    return Status::Ok();
  }

  Lexer lexer_;
  Token cur_;
  Token next_;
  std::optional<std::string_view> goal_;
};

// Streams the rules of `parser` through `fn` (Status(const RuleView&)) in
// text order, stopping at the first error. `lines`, if non-null, receives
// each rule's line.
template <typename Fn>
Status ForEachRule(RuleParser& parser, SourceLines* lines, Fn&& fn) {
  RuleView rule;
  // Sized up front: growing the buffer step by step while each rule's
  // long-lived Terms and Atoms are allocated between the steps leaves
  // odd-sized holes in the heap. Without these reserves servebench's
  // serve_hot mix peaked at 20.5-25.8 MiB RSS instead of about 19 MiB
  // (Release, 4-core x86 box).
  rule.atoms.reserve(16);
  rule.terms.reserve(64);
  while (true) {
    QCONT_ASSIGN_OR_RETURN(const bool more, parser.Next(&rule));
    if (!more) return Status::Ok();
    if (lines != nullptr) lines->rule_lines.push_back(rule.line);
    QCONT_RETURN_IF_ERROR(fn(rule));
  }
}

std::vector<Term> ToTerms(const RuleView& rule, const AtomView& atom) {
  std::vector<Term> out;
  out.reserve(atom.num_terms);
  for (const TermView& t : rule.TermsOf(atom)) {
    out.push_back(t.constant ? Term::Constant(std::string(t.name))
                             : Term::Variable(std::string(t.name)));
  }
  return out;
}

Result<Atom> ToRelationalAtom(const RuleView& rule, const AtomView& atom) {
  if (atom.regex) {
    return InvalidArgumentError(
        "regex atoms are only allowed in UC2RPQs (line " +
        std::to_string(rule.line) + ")");
  }
  return Atom(std::string(atom.name), ToTerms(rule, atom));
}

Result<std::vector<Atom>> ToRelationalBody(const RuleView& rule) {
  std::vector<Atom> body;
  body.reserve(rule.body().size());
  for (const AtomView& a : rule.body()) {
    QCONT_ASSIGN_OR_RETURN(Atom atom, ToRelationalAtom(rule, a));
    body.push_back(std::move(atom));
  }
  return body;
}

}  // namespace

Result<DatalogProgram> ParseProgramUnvalidated(const std::string& text,
                                               SourceLines* lines) {
  RuleParser parser(text);
  std::vector<Rule> rules;
  SourceLines found;
  QCONT_RETURN_IF_ERROR(
      ForEachRule(parser, &found, [&](const RuleView& rule) -> Status {
        QCONT_ASSIGN_OR_RETURN(Atom head, ToRelationalAtom(rule, rule.head()));
        QCONT_ASSIGN_OR_RETURN(std::vector<Atom> body, ToRelationalBody(rule));
        rules.push_back(Rule{std::move(head), std::move(body)});
        return Status::Ok();
      }));
  if (rules.empty()) {
    return InvalidArgumentError("program has no rules");
  }
  std::string goal = parser.goal().has_value()
                         ? std::string(*parser.goal())
                         : rules.front().head.predicate();
  if (lines != nullptr) *lines = std::move(found);
  return DatalogProgram(std::move(rules), std::move(goal));
}

Result<DatalogProgram> ParseProgram(const std::string& text,
                                    SourceLines* lines) {
  QCONT_ASSIGN_OR_RETURN(DatalogProgram program,
                         ParseProgramUnvalidated(text, lines));
  QCONT_RETURN_IF_ERROR(program.Validate());
  return program;
}

Result<UnionQuery> ParseUcqUnvalidated(const std::string& text,
                                       SourceLines* lines) {
  RuleParser parser(text);
  std::vector<ConjunctiveQuery> disjuncts;
  std::string head_pred;
  SourceLines found;
  QCONT_RETURN_IF_ERROR(
      ForEachRule(parser, &found, [&](const RuleView& rule) -> Status {
        const std::string_view pred = rule.head().name;
        if (disjuncts.empty()) {
          head_pred = pred;
        } else if (pred != head_pred) {
          return InvalidArgumentError(
              "all UCQ disjuncts must share one head predicate; got '" +
              std::string(pred) + "' and '" + head_pred + "' (line " +
              std::to_string(rule.line) + ")");
        }
        QCONT_ASSIGN_OR_RETURN(std::vector<Atom> atoms,
                               ToRelationalBody(rule));
        disjuncts.emplace_back(ToTerms(rule, rule.head()), std::move(atoms));
        return Status::Ok();
      }));
  if (disjuncts.empty()) {
    return InvalidArgumentError("UCQ has no disjuncts");
  }
  if (lines != nullptr) *lines = std::move(found);
  return UnionQuery(std::move(disjuncts));
}

Result<UnionQuery> ParseUcq(const std::string& text, SourceLines* lines) {
  QCONT_ASSIGN_OR_RETURN(UnionQuery ucq, ParseUcqUnvalidated(text, lines));
  QCONT_RETURN_IF_ERROR(ucq.Validate());
  return ucq;
}

Result<UC2rpq> ParseUC2rpqUnvalidated(const std::string& text,
                                      SourceLines* lines) {
  RuleParser parser(text);
  std::vector<C2rpq> disjuncts;
  SourceLines found;
  QCONT_RETURN_IF_ERROR(
      ForEachRule(parser, &found, [&](const RuleView& rule) -> Status {
        std::vector<RpqAtom> atoms;
        for (const AtomView& a : rule.body()) {
          if (!a.regex) {
            return InvalidArgumentError(
                "UC2RPQ atoms must be regex atoms [expr](x, y) (line " +
                std::to_string(rule.line) + ")");
          }
          if (a.num_terms != 2) {
            return InvalidArgumentError(
                "regex atoms take exactly two variables (line " +
                std::to_string(rule.line) + ")");
          }
          const std::vector<Term> ends = ToTerms(rule, a);
          QCONT_ASSIGN_OR_RETURN(
              RpqAtom atom, MakeRpqAtom(std::string(a.name), ends[0], ends[1]));
          atoms.push_back(std::move(atom));
        }
        disjuncts.emplace_back(ToTerms(rule, rule.head()), std::move(atoms));
        return Status::Ok();
      }));
  if (disjuncts.empty()) {
    return InvalidArgumentError("UC2RPQ has no disjuncts");
  }
  if (lines != nullptr) *lines = std::move(found);
  return UC2rpq(std::move(disjuncts));
}

Result<UC2rpq> ParseUC2rpq(const std::string& text, SourceLines* lines) {
  QCONT_ASSIGN_OR_RETURN(UC2rpq out, ParseUC2rpqUnvalidated(text, lines));
  QCONT_RETURN_IF_ERROR(out.Validate());
  return out;
}

// Each fact goes from its views straight to pool ids and into the arena:
// no Atom, Tuple or value string is built on the way.
Result<Database> ParseDatabase(const std::string& text,
                               std::shared_ptr<Interner> pool) {
  Database db(std::move(pool));
  Interner& names = *db.pool();
  RuleParser parser(text);
  std::vector<ValueId> row;
  // Facts of one relation usually come in runs: intern its name once.
  std::string_view rel_name;
  RelationId rel = kNoRelation;
  QCONT_RETURN_IF_ERROR(
      ForEachRule(parser, nullptr, [&](const RuleView& rule) -> Status {
        if (!rule.body().empty()) {
          return InvalidArgumentError(
              "database facts cannot have bodies (line " +
              std::to_string(rule.line) + ")");
        }
        const AtomView& fact = rule.head();
        if (fact.name != rel_name) {  // names are never empty
          rel_name = fact.name;
          rel = names.Intern(rel_name);
        }
        row.clear();
        for (const TermView& t : rule.TermsOf(fact)) {
          row.push_back(names.Intern(t.name));
        }
        // A relation has one arity (Database checks it); report a clash as
        // the analyzer's QC004 instead of handing it to the storage layer.
        if (db.NumRows(rel) > 0 && db.Arity(rel) != row.size()) {
          return InvalidArgumentError(
              "predicate '" + std::string(fact.name) +
              "' used with inconsistent arities (" +
              std::to_string(row.size()) + " here, " +
              std::to_string(db.Arity(rel)) + " before) (line " +
              std::to_string(rule.line) + ") [QC004]");
        }
        db.AddRow(rel, row);
        return Status::Ok();
      }));
  return db;
}

}  // namespace qcont
