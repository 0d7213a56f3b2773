// Seeded robustness tests for the text front end.
//
// Differential: random fact lists, rendered with random whitespace,
// comments and quoted or bare values, must parse to exactly the database
// that AddFact builds from the same facts.
//
// Mutational: a fixed number of byte flips, truncations and splices of a
// small corpus go through all four parser entry points and through an
// `eval` request to Server::HandleLine. Every result must be ok or
// InvalidArgument, and nothing may crash; the sanitizer builds run this
// suite too, which is what guards the lexer's views into the input.

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "parser/parser.h"
#include "server/json.h"
#include "server/server.h"

namespace qcont {
namespace {

struct Fact {
  std::string relation;
  Tuple values;
};

class Renderer {
 public:
  explicit Renderer(std::uint32_t seed) : rng_(seed) {}

  int Uniform(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }
  bool Percent(int p) { return Uniform(0, 99) < p; }

  // Random facts over a few relations of fixed arity. Bare-identifier
  // values, "goal" included, mix with values only a quote can carry.
  std::vector<Fact> Facts() {
    static const char* const kRelations[] = {"e", "goal", "R_2", "z", "s"};
    static const int kArities[] = {2, 1, 3, 0, 1};
    std::vector<Fact> out;
    const int n = Uniform(0, 40);
    for (int i = 0; i < n; ++i) {
      const int r = Uniform(0, 4);
      Fact f{kRelations[r], {}};
      for (int a = 0; a < kArities[r]; ++a) f.values.push_back(Value());
      out.push_back(std::move(f));
    }
    return out;
  }

  // Renders `facts` as text a database parser accepts.
  std::string Render(const std::vector<Fact>& facts) {
    std::string out;
    Gap(&out);
    for (const Fact& f : facts) {
      out += f.relation;
      Gap(&out);
      out += '(';
      for (std::size_t i = 0; i < f.values.size(); ++i) {
        Gap(&out);
        if (i > 0) {
          out += ',';
          Gap(&out);
        }
        const std::string& v = f.values[i];
        if (IsIdentifier(v) && Percent(50)) {
          out += v;
        } else {
          out += '\'' + v + '\'';
        }
      }
      Gap(&out);
      out += ')';
      Gap(&out);
      out += '.';
      if (Percent(10)) out += "\ngoal " + f.relation + ".";
      Gap(&out);
    }
    return out;
  }

 private:
  std::string Value() {
    static const char* const kBare[] = {"a", "b1", "_x", "goal", "V9z", "ann"};
    if (Percent(60)) return kBare[Uniform(0, 5)];
    // Bytes a constant may hold: anything but the quote itself.
    static const std::string kBytes =
        "abc XYZ019_#%()[],.:-\n\t\"\\\xc3\xa9";
    std::string v;
    const int len = Uniform(0, 6);
    for (int i = 0; i < len; ++i) v += kBytes[Uniform(0, kBytes.size() - 1)];
    return v;
  }

  static bool IsIdentifier(const std::string& v) {
    auto start = [](char c) {
      return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    };
    return !v.empty() && start(v[0]) &&
           std::all_of(v.begin(), v.end(), [&](char c) {
             return start(c) || (c >= '0' && c <= '9');
           });
  }

  // Optional whitespace and comments between two tokens.
  void Gap(std::string* out) {
    static const char* const kGaps[] = {" ", "\t", "\n", "\r\n", "\v\f",
                                        "  ", "# note\n", "% (x).\n"};
    const int n = Uniform(0, 2);
    for (int i = 0; i < n; ++i) *out += kGaps[Uniform(0, 7)];
  }

  std::mt19937 rng_;
};

TEST(ParserRobustnessTest, RenderedFactsParseToTheAddFactDatabase) {
  Renderer gen(20141);
  for (int round = 0; round < 400; ++round) {
    const std::vector<Fact> facts = gen.Facts();
    const std::string text = gen.Render(facts);
    Database want;
    for (const Fact& f : facts) want.AddFact(f.relation, f.values);

    auto got = ParseDatabase(text);
    ASSERT_TRUE(got.ok()) << got.status().ToString() << "\n" << text;
    EXPECT_EQ(got->ToString(), want.ToString()) << text;
    EXPECT_EQ(got->NumFacts(), want.NumFacts()) << text;
    ASSERT_EQ(got->Relations(), want.Relations()) << text;
    for (const std::string& rel : want.Relations()) {
      EXPECT_EQ(got->Facts(rel), want.Facts(rel)) << rel << "\n" << text;
    }
  }
}

// Texts the mutations start from: every entry point's syntax, including
// goal directives, comments, constants, regexes and a multi-line constant.
const std::vector<std::string>& Corpus() {
  static const std::vector<std::string> corpus = {
      "t(x,y) :- e(x,y).\nt(x,y) :- e(x,z), t(z,y).\ngoal t.\n",
      "# buys\nbuys(x, y) :- likes(x, y).\n"
      "buys(x, y) :- trendy(x), buys(z, y). % tail\ngoal buys.",
      "r(y) :- s(y). r(y) :- r(x), e(x,y). goal r.",
      "Q(x, y) :- likes(x, y).\nQ(x, y) :- trendy(x), likes(z, 'ann').",
      "Q() :- e(x,y), e(y,z), e(z,x).",
      "Q(x, y) :- [a (b|c)* d-](x, y), [e+](y, z).\nQ(x, y) :- [a](x, y).",
      "likes('ann','beer'). trendy('ann'). e(x, y). z().",
      "e('v1','v2'). e('v2','v3').\n# c\ne('v3','v1'). s('v1').\n"
      "e('multi\nline', v2).",
      "goal t. e(a,b). e(b,c). e(c,d).",
  };
  return corpus;
}

std::string Mutate(std::mt19937& rng, const std::string& text) {
  auto uniform = [&](std::size_t lo, std::size_t hi) {
    return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
  };
  // Bytes that steer the lexer and parser into their edge cases, plus the
  // occasional arbitrary byte.
  static const char kBytes[] = "'[]():-.,#%\n\0 _aZ9goal";
  static const std::string kInteresting(kBytes, sizeof(kBytes) - 1);
  std::string out = text;
  const std::size_t edits = uniform(1, 2);
  for (std::size_t e = 0; e < edits; ++e) {
    switch (uniform(0, 3)) {
      case 0:  // byte flip
        if (!out.empty()) {
          const std::size_t at = uniform(0, out.size() - 1);
          out[at] = uniform(0, 3) == 0
                        ? static_cast<char>(uniform(0, 255))
                        : kInteresting[uniform(0, kInteresting.size() - 1)];
        }
        break;
      case 1:  // truncation
        out.resize(uniform(0, out.size()));
        break;
      case 2: {  // splice: a prefix of this text, a suffix of another
        const std::string& other = Corpus()[uniform(0, Corpus().size() - 1)];
        out = out.substr(0, uniform(0, out.size())) +
              other.substr(uniform(0, other.size()));
        break;
      }
      default: {  // duplicate a slice in place
        const std::size_t from = uniform(0, out.size());
        const std::size_t len = uniform(0, out.size() - from);
        out.insert(uniform(0, out.size()), out.substr(from, len));
        break;
      }
    }
  }
  return out;
}

void ExpectOkOrInvalidArgument(const Status& status, const std::string& text,
                               const char* entry) {
  EXPECT_TRUE(status.ok() || status.code() == StatusCode::kInvalidArgument)
      << entry << ": " << status.ToString() << "\ninput: " << text;
}

TEST(ParserRobustnessTest, MutatedTextsParseOrFailCleanly) {
  std::mt19937 rng(90210);
  auto pool = std::make_shared<Interner>();
  int accepted = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::string& seed = Corpus()[i % Corpus().size()];
    const std::string text = Mutate(rng, seed);
    SourceLines lines;
    const auto program = ParseProgram(text, &lines);
    ExpectOkOrInvalidArgument(program.status(), text, "ParseProgram");
    ExpectOkOrInvalidArgument(ParseUcq(text).status(), text, "ParseUcq");
    ExpectOkOrInvalidArgument(ParseUC2rpq(text).status(), text,
                              "ParseUC2rpq");
    const auto db = ParseDatabase(text, pool);
    ExpectOkOrInvalidArgument(db.status(), text, "ParseDatabase");
    accepted += program.ok() + db.ok();
  }
  // The mutations must leave some inputs well formed, or the ok paths
  // (and their views) would go untested.
  EXPECT_GT(accepted, 200);
}

TEST(ParserRobustnessTest, MutatedEvalRequestsAnswerOrFailCleanly) {
  std::mt19937 rng(4242);
  server::Server srv(server::ServerOptions{});
  const std::string program = Corpus()[0];
  const std::string database = Corpus()[7];
  int answered = 0;
  for (int i = 0; i < 600; ++i) {
    // Mutate the program, the database or both; the request itself stays
    // well-formed JSON so the parsers see the damage.
    const int which = i % 3;
    const std::string p = which == 1 ? program : Mutate(rng, program);
    const std::string d = which == 0 ? database : Mutate(rng, database);
    const std::string line = R"({"id":)" + std::to_string(i) +
                             R"(,"op":"eval","program":")" +
                             server::JsonEscape(p) + R"(","database":")" +
                             server::JsonEscape(d) + "\"}";
    const std::string response = srv.HandleLine(line);
    const bool ok = response.find("\"status\":\"ok\"") != std::string::npos;
    EXPECT_TRUE(ok || response.find("\"code\":\"InvalidArgument\"") !=
                          std::string::npos)
        << "request: " << line << "\nresponse: " << response;
    answered += ok;
  }
  EXPECT_GT(answered, 20);
}

}  // namespace
}  // namespace qcont
