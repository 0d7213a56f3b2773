#include "workloads.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>

#include "oracle.h"

namespace servebench {

namespace {

/// Zipf(s) sampler over ranks [0, n): rank r has weight 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(int n, double s) {
    double total = 0;
    for (int r = 0; r < n; ++r) {
      total += 1.0 / std::pow(r + 1, s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  int Sample(Rng* rng) const {
    const double u = static_cast<double>(rng->Next() >> 11) * 0x1.0p-53;
    return static_cast<int>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                            cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Str(int v) { return std::to_string(v); }

// ---------------------------------------------------------------------------
// Program and query texts. `s` suffixes every predicate name.

std::string TcProgram(const std::string& s) {
  return "g" + s + "(x,y) :- e" + s + "(x,y). g" + s + "(x,y) :- e" + s +
         "(x,z), g" + s + "(z,y). goal g" + s + ".";
}

std::string StrideProgram(int w, const std::string& s) {
  std::string body = "e" + s + "(x,z0)";
  for (int i = 1; i < w; ++i) {
    body += ", e" + s + "(z" + Str(i - 1) + ",z" + Str(i) + ")";
  }
  return "p" + s + "(x,y) :- e" + s + "(x,y). p" + s + "(x,y) :- " + body +
         ", p" + s + "(z" + Str(w - 1) + ",y). goal p" + s + ".";
}

/// e-cycle y1 -> y2 -> ... -> yk -> y1.
std::string CycleAtoms(int k, const std::string& s) {
  std::string out;
  for (int i = 1; i <= k; ++i) {
    if (i > 1) out += ", ";
    out += "e" + s + "(y" + Str(i) + ",y" + Str(i % k + 1) + ")";
  }
  return out;
}

std::string CycleProgram(int k, const std::string& s) {
  return "g" + s + "(x) :- m" + s + "(x), " + CycleAtoms(k, s) + ". g" + s +
         "(x) :- e" + s + "(x,w), g" + s + "(w). goal g" + s + ".";
}

/// Each fan-out variable u_i carries its own marker atom m_i(u_i), so no
/// u_i folds onto y or onto another u_j: the star is its own core.
std::string StarQuery(int f, const std::string& s) {
  std::string q = "Q(x,y) :- e" + s + "(x,y)";
  for (int i = 0; i < f; ++i) {
    q += ", e" + s + "(x,u" + Str(i) + "), m" + Str(i) + s + "(u" + Str(i) + ")";
  }
  return q + ".";
}

std::string ChainUnionQuery(int m, const std::string& s) {
  std::string q;
  for (int len = 1; len <= m; ++len) {
    if (len > 1) q += " ";
    q += "Q(x0,x" + Str(len) + ") :- ";
    for (int j = 0; j < len; ++j) {
      if (j > 0) q += ", ";
      q += "e" + s + "(x" + Str(j) + ",x" + Str(j + 1) + ")";
    }
    q += ".";
  }
  return q;
}

std::string StrideQuery(const std::string& s) {
  return "Q(x,y) :- e" + s + "(x,y). Q(a0,a3) :- e" + s + "(a0,a1), e" + s +
         "(a2,a3).";
}

std::string CycleQuery(int k, const std::string& s) {
  std::string q = "Q(x,y) :- e" + s + "(x,y), e" + s + "(y,z1)";
  for (int i = 2; i <= k - 2; ++i) {
    q += ", e" + s + "(z" + Str(i - 1) + ",z" + Str(i) + ")";
  }
  return q + ", e" + s + "(z" + Str(k - 2) + ",x).";
}

std::string CycleContainedQuery(int k, const std::string& s) {
  return "Q(x) :- e" + s + "(x,w), " + CycleAtoms(k, s) + ". Q(x) :- m" + s +
         "(x), " + CycleAtoms(k, s) + ".";
}

/// Renders one request line: the numeric id, the op, then each (name, text)
/// member as a JSON string.
std::string RequestLine(
    std::uint64_t id, const std::string& op,
    const std::vector<std::pair<std::string, std::string>>& string_fields) {
  std::string out = "{\"id\":" + std::to_string(id) + ",\"op\":" +
                    JsonString(op);
  for (const auto& [name, text] : string_fields) {
    out += ',';
    out += JsonString(name);
    out += ':';
    out += JsonString(text);
  }
  return out + "}";
}

}  // namespace

ContainmentPair StarPair(int f, const std::string& suffix) {
  return {TcProgram(suffix), StarQuery(f, suffix), false, true};
}
ContainmentPair ChainUnionPair(int m, const std::string& suffix) {
  return {TcProgram(suffix), ChainUnionQuery(m, suffix), false, true};
}
ContainmentPair StridePair(int w, const std::string& suffix) {
  return {StrideProgram(w, suffix), StrideQuery(suffix), true, true};
}
ContainmentPair CyclePair(int k, const std::string& suffix) {
  return {TcProgram(suffix), CycleQuery(k, suffix), false, false};
}
ContainmentPair CycleContainedPair(int k, const std::string& suffix) {
  return {CycleProgram(k, suffix), CycleContainedQuery(k, suffix), true,
          false};
}

std::string AlphaRename(const std::string& text, const std::string& tag) {
  std::string out;
  std::size_t i = 0;
  bool after_goal = false;
  while (i < text.size()) {
    const char c = text[i];
    if (c == '\'') {  // quoted constant: copy verbatim
      const std::size_t end = text.find('\'', i + 1);
      const std::size_t stop = end == std::string::npos ? text.size() : end + 1;
      out.append(text, i, stop - i);
      i = stop;
      continue;
    }
    if (!std::isalpha(static_cast<unsigned char>(c)) && c != '_') {
      out += c;
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[j])) || text[j] == '_')) {
      ++j;
    }
    const std::string word = text.substr(i, j - i);
    std::size_t k = j;
    while (k < text.size() && text[k] == ' ') ++k;
    const bool predicate = (k < text.size() && text[k] == '(') || after_goal;
    out += word;
    if (word == "goal" && !predicate) {
      after_goal = true;
    } else {
      if (!predicate) out += tag;
      after_goal = false;
    }
    i = j;
  }
  return out;
}

std::vector<ContainmentPair> HotPairs(int i) {
  const std::string s = "_p" + Str(i);
  switch (i % 4) {
    case 0:
      return {ChainUnionPair(1, s), ChainUnionPair(2, s), StarPair(2, s),
              CyclePair(3, s)};
    case 1: {
      const int w = 1 + (i / 4) % 4;
      return {StridePair(w, s),
              {StrideProgram(w, s), ChainUnionQuery(2, s), false, true},
              {StrideProgram(w, s), CycleQuery(3, s), false, false}};
    }
    case 2: {
      const int k = 3 + (i / 4) % 3;
      return {CycleContainedPair(k, s),
              {CycleProgram(k, s), "Q(x) :- m" + s + "(x).", false, true},
              {CycleProgram(k, s),
               "Q(x) :- e" + s + "(x,w). Q(x) :- m" + s + "(x).", true, true}};
    }
    default:
      return {ChainUnionPair(3, s), StarPair(4, s), CyclePair(4, s)};
  }
}

std::string ClosureProgram(int which) {
  switch (which) {
    case 0: return "t(x,y) :- e(x,y). t(x,y) :- e(x,z), t(z,y). goal t.";
    case 1: return "t(x,y) :- e(x,y). t(x,y) :- t(x,z), e(z,y). goal t.";
    case 2: return "t(x,y) :- e(x,y). t(x,y) :- t(x,z), t(z,y). goal t.";
    default: return "r(y) :- s(y). r(y) :- r(x), e(x,y). goal r.";
  }
}

/// Every workload runs the server single-threaded (harness.h BenchOptions):
/// serve_hot's batches run serially, while batching and coalescing still
/// run, and eval_closure's semi-naive rounds commit through the same
/// round-barrier AddRowBatch path on one engine thread. On a shared 4-vCPU
/// host, more batch workers made serve_hot's per-batch p99 swing 2.6-17 ms
/// between identical runs, and 2 engine threads made eval_closure's median
/// call about 10% slower than 1.
std::vector<WorkloadConfig> AllWorkloads() {
  return {
      {"contain_cold", WorkloadKind::kContainCold, 1},
      {"serve_hot", WorkloadKind::kServeHot, 32},
      {"eval_closure", WorkloadKind::kEvalClosure, 1},
  };
}

const WorkloadConfig* FindWorkload(const std::string& name) {
  static const std::vector<WorkloadConfig> all = AllWorkloads();
  for (const WorkloadConfig& w : all) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

namespace {

Request ContainmentRequest(std::uint64_t id, const std::string& program,
                           const std::string& query, bool contained) {
  Request r;
  r.line = RequestLine(id, "containment", {{"program", program}, {"query", query}});
  r.expect.kind = Expected::Kind::kContainment;
  r.expect.contained = contained;
  return r;
}

/// An eval instance: a graph with source nodes, rendered as a fact list,
/// with the oracle's answer for `program`.
Request EvalRequest(std::uint64_t id, int program, int nodes,
                    const std::vector<std::pair<int, int>>& edges,
                    const std::vector<int>& sources) {
  std::string db;
  db.reserve(edges.size() * 18 + sources.size() * 10);
  for (const auto& [u, v] : edges) {
    db += "e('v" + Str(u) + "','v" + Str(v) + "'). ";
  }
  for (int u : sources) db += "s('v" + Str(u) + "'). ";
  std::vector<std::string> tuples;
  if (program == kClosurePrograms - 1) {
    for (int u : ReachableNodes(nodes, edges, sources)) {
      tuples.push_back("v" + Str(u));
    }
  } else {
    for (const auto& [u, v] : ClosurePairs(nodes, edges)) {
      tuples.push_back("v" + Str(u) + ",v" + Str(v));
    }
  }
  Request r;
  r.line = RequestLine(id, "eval",
                       {{"program", ClosureProgram(program)}, {"database", db}});
  r.expect.kind = Expected::Kind::kEval;
  r.expect.tuple_count = tuples.size();
  r.expect.tuple_digest = TupleDigest(tuples);
  return r;
}

// --- contain_cold ----------------------------------------------------------

/// Random acyclic pair over EDB predicates {e, f}: a one-IDB recursive
/// program and a UCQ of 1-2 path disjuncts, each optionally with a dangling
/// atom. Decided by DecideByAgreement.
ContainmentPair RandomAcyclicPair(Rng* rng, const std::string& s) {
  auto label = [&] { return std::string(rng->Percent(50) ? "e" : "f") + s; };
  const std::string g = "g" + s;
  std::string program;
  if (rng->Percent(50)) {
    program = g + "(x,y) :- " + label() + "(x,y). ";
  } else {
    program = g + "(x,y) :- " + label() + "(x,z), " + label() + "(z,y). ";
  }
  if (rng->Percent(50)) {
    program += g + "(x,y) :- " + label() + "(x,z), " + g + "(z,y). ";
  } else {
    program += g + "(x,y) :- " + g + "(x,z), " + label() + "(z,y). ";
  }
  if (rng->Percent(30)) program += g + "(x,y) :- " + label() + "(y,x). ";
  program += "goal " + g + ".";

  std::string query;
  const int disjuncts = rng->Uniform(1, 2);
  for (int d = 0; d < disjuncts; ++d) {
    const int len = rng->Uniform(1, 3);
    std::string body;
    for (int j = 0; j < len; ++j) {
      if (j > 0) body += ", ";
      body += label() + "(x" + Str(j) + ",x" + Str(j + 1) + ")";
    }
    if (rng->Percent(40)) {
      body += rng->Percent(50) ? ", " + label() + "(x" + Str(len) + ",w)"
                               : ", " + label() + "(w,x0)";
    }
    if (d > 0) query += " ";
    query += "Q(x0,x" + Str(len) + ") :- " + body + ".";
  }
  return {program, query, false, true};
}

class ContainColdGenerator : public Generator {
 public:
  explicit ContainColdGenerator(std::uint64_t seed)
      : rng_(seed), warm_rng_(rng_.Fork()) {}

  /// Two schedule cycles without the random slots, so the set-up cost
  /// does not depend on the seed.
  std::vector<Request> WarmUp() override {
    std::vector<Request> out;
    for (int cycle = 0; cycle < 2; ++cycle) {
      for (const Slot& slot : Schedule()) {
        if (slot.family == Family::kRandom) continue;
        out.push_back(Build(slot, &warm_rng_, "_w" + Str(warm_count_++)));
      }
    }
    return out;
  }

  std::vector<Request> Next(std::size_t lines) override {
    std::vector<Request> out;
    while (out.size() < lines) {
      if (pending_.empty()) {
        pending_ = Schedule();
        rng_.Shuffle(&pending_);
        std::reverse(pending_.begin(), pending_.end());
      }
      const Slot slot = pending_.back();
      pending_.pop_back();
      out.push_back(Build(slot, &rng_, "_c" + Str(count_++)));
    }
    return out;
  }

 private:
  enum class Family { kStar, kChainUnion, kStride, kCycle, kCycleContained, kRandom };
  struct Slot {
    Family family;
    int param;
  };

  /// One cycle of the mix: 30 acyclic slots (ACk route) on both sides of
  /// the star crossover, 6 cyclic slots (type-engine route).
  static std::vector<Slot> Schedule() {
    std::vector<Slot> slots;
    for (int f = 2; f <= 12; ++f) slots.push_back({Family::kStar, f});
    for (int m = 1; m <= 5; ++m) slots.push_back({Family::kChainUnion, m});
    for (int w = 1; w <= 6; ++w) slots.push_back({Family::kStride, w});
    for (int k = 3; k <= 5; ++k) slots.push_back({Family::kCycle, k});
    for (int k = 3; k <= 5; ++k) slots.push_back({Family::kCycleContained, k});
    for (int r = 0; r < 8; ++r) slots.push_back({Family::kRandom, 0});
    return slots;
  }

  Request Build(const Slot& slot, Rng* rng, const std::string& suffix) {
    ContainmentPair pair;
    switch (slot.family) {
      case Family::kStar: pair = StarPair(slot.param, suffix); break;
      case Family::kChainUnion: pair = ChainUnionPair(slot.param, suffix); break;
      case Family::kStride: pair = StridePair(slot.param, suffix); break;
      case Family::kCycle: pair = CyclePair(slot.param, suffix); break;
      case Family::kCycleContained:
        pair = CycleContainedPair(slot.param, suffix);
        break;
      case Family::kRandom:
        for (int attempt = 0;; ++attempt) {
          if (attempt == 64) {
            throw std::runtime_error("no independently checkable random pair");
          }
          pair = RandomAcyclicPair(rng, suffix);
          const std::optional<bool> verdict =
              DecideByAgreement(pair.program, pair.query, /*refuter_depth=*/5);
          if (verdict.has_value()) {
            pair.contained = *verdict;
            break;
          }
        }
        break;
    }
    return ContainmentRequest(next_id_++, pair.program, pair.query,
                              pair.contained);
  }

  Rng rng_;
  Rng warm_rng_;
  std::vector<Slot> pending_;
  int count_ = 0;
  int warm_count_ = 0;
  std::uint64_t next_id_ = 1;
};

// --- serve_hot -------------------------------------------------------------

/// Small random graphs shared by serve_hot's eval requests.
struct SmallGraph {
  std::vector<std::pair<int, int>> edges;
  std::vector<int> sources;
};

class ServeHotGenerator : public Generator {
 public:
  static constexpr std::size_t kBatch = 32;
  static constexpr int kEvalGraphs = 4;
  static constexpr int kGraphNodes = 12;

  /// Popularity rank r is program r, so every seed sees the same mix of
  /// program shapes at each rank; the seed varies everything else.
  explicit ServeHotGenerator(std::uint64_t seed)
      : rng_(seed), zipf_(kHotPrograms, 1.0) {
    for (int i = 0; i < kHotPrograms; ++i) hot_.push_back(HotPairs(i));
    for (int g = 0; g < kEvalGraphs; ++g) {
      SmallGraph graph;
      for (int e = 0; e < 18; ++e) {
        graph.edges.push_back({rng_.Uniform(0, kGraphNodes - 1),
                               rng_.Uniform(0, kGraphNodes - 1)});
      }
      graph.sources = {rng_.Uniform(0, kGraphNodes - 1),
                       rng_.Uniform(0, kGraphNodes - 1)};
      graphs_.push_back(std::move(graph));
    }
  }

  /// Every hot pair once, then every eval pair once.
  std::vector<Request> WarmUp() override {
    std::vector<Request> out;
    for (int i = 0; i < kHotPrograms; ++i) {
      for (const ContainmentPair& pair : hot_[i]) {
        out.push_back(ContainmentRequest(next_id_++, pair.program, pair.query,
                                         pair.contained));
      }
    }
    for (int p = 0; p < kClosurePrograms; ++p) {
      for (int g = 0; g < kEvalGraphs; ++g) out.push_back(Eval(p, g));
    }
    return out;
  }

  std::vector<Request> Next(std::size_t lines) override {
    std::vector<Request> out;
    for (std::size_t n = 0; n < lines; ++n) {
      if (emitted_ % kBatch == 0) batch_containments_.clear();
      ++emitted_;
      out.push_back(NextLine());
    }
    return out;
  }

 private:
  Request Eval(int program, int graph) {
    return EvalRequest(next_id_++, program, kGraphNodes, graphs_[graph].edges,
                       graphs_[graph].sources);
  }

  Request NextLine() {
    const int roll = rng_.Uniform(0, 99);
    const int program = zipf_.Sample(&rng_);
    const std::vector<ContainmentPair>& pairs = hot_[program];
    if (roll < 10) {  // analyze a hot pair
      const ContainmentPair& pair = pairs[rng_.Uniform(0, pairs.size() - 1)];
      Request r;
      r.line = RequestLine(next_id_++, "analyze",
                           {{"program", pair.program}, {"query", pair.query}});
      r.expect.kind = Expected::Kind::kAnalyze;
      r.expect.acyclic = pair.acyclic;
      return r;
    }
    if (roll < 20) {  // eval over a repeated small database
      return Eval(rng_.Uniform(0, kClosurePrograms - 1),
                  rng_.Uniform(0, kEvalGraphs - 1));
    }
    Request r;
    if (roll < 32 && !batch_containments_.empty()) {
      // Exact resubmission of an earlier request of this batch.
      const Request& prior =
          batch_containments_[rng_.Uniform(0, batch_containments_.size() - 1)];
      r = prior;
      const std::size_t comma = r.line.find(',');
      r.line = "{\"id\":" + std::to_string(next_id_++) + r.line.substr(comma);
      return r;
    }
    if (roll < 44) {
      r = FreshMiss(program);
    } else {
      const ContainmentPair& pair = pairs[rng_.Uniform(0, pairs.size() - 1)];
      if (rng_.Percent(30)) {  // alpha-renamed resubmission
        const std::string tag = "_r" + Str(rng_.Uniform(0, 999));
        r = ContainmentRequest(next_id_++, AlphaRename(pair.program, tag),
                               AlphaRename(pair.query, tag), pair.contained);
      } else {
        r = ContainmentRequest(next_id_++, pair.program, pair.query,
                               pair.contained);
      }
    }
    batch_containments_.push_back(r);
    return r;
  }

  /// A query no earlier request asked about (a padding disjunct over a
  /// never-seen predicate, which changes no answer), against a hot program:
  /// a verdict miss whose cyclic Θ takes the type engine, which consults the
  /// program-keyed artifact layer.
  Request FreshMiss(int program) {
    const std::string s = "_p" + Str(program);
    const std::string pad = "hz" + Str(fresh_++) + s;
    const ContainmentPair& cyclic = hot_[program].back().acyclic
                                        ? hot_[program].front()
                                        : hot_[program].back();
    const bool unary = program % 4 == 2;
    const std::string query =
        cyclic.query + (unary ? " Q(x) :- " + pad + "(x)."
                              : " Q(x,y) :- " + pad + "(x,y).");
    return ContainmentRequest(next_id_++, cyclic.program, query,
                              cyclic.contained);
  }

  Rng rng_;
  Zipf zipf_;
  std::vector<std::vector<ContainmentPair>> hot_;
  std::vector<SmallGraph> graphs_;
  std::vector<Request> batch_containments_;
  std::size_t emitted_ = 0;
  int fresh_ = 0;
  std::uint64_t next_id_ = 1;
};

// --- eval_closure ----------------------------------------------------------

class EvalClosureGenerator : public Generator {
 public:
  explicit EvalClosureGenerator(std::uint64_t seed)
      : rng_(seed), warm_rng_(rng_.Fork()) {}

  std::vector<Request> WarmUp() override {
    std::vector<Request> out;
    for (int p = 0; p < 3 * kClosurePrograms; ++p) {
      out.push_back(Build(p % kClosurePrograms, &warm_rng_));
    }
    return out;
  }

  std::vector<Request> Next(std::size_t lines) override {
    std::vector<Request> out;
    while (out.size() < lines) {
      if (pending_.empty()) {
        for (int p = 0; p < kClosurePrograms; ++p) pending_.push_back(p);
        rng_.Shuffle(&pending_);
      }
      const int program = pending_.back();
      pending_.pop_back();
      out.push_back(Build(program, &rng_));
    }
    return out;
  }

 private:
  /// A random graph of a few hundred nodes: strongly knit clusters of
  /// 6-14 nodes, chained by sparse forward edges, so closures stay in the
  /// hundreds to thousands of pairs while every database is distinct. Small
  /// clusters keep the memory the 512-entry eval cache holds, and the tail
  /// latency its churn adds, modest.
  Request Build(int program, Rng* rng) {
    const int nodes = rng->Uniform(200, 400);
    std::vector<std::pair<int, int>> edges;
    std::vector<std::pair<int, int>> clusters;  // [begin, end)
    for (int begin = 0; begin < nodes;) {
      const int end = std::min(nodes, begin + rng->Uniform(6, 14));
      clusters.push_back({begin, end});
      begin = end;
    }
    for (std::size_t c = 0; c < clusters.size(); ++c) {
      const auto [begin, end] = clusters[c];
      const int size = end - begin;
      for (int e = 0; e < size + size / 3; ++e) {
        edges.push_back({rng->Uniform(begin, end - 1), rng->Uniform(begin, end - 1)});
      }
      if (c + 1 < clusters.size() && rng->Percent(25)) {
        const auto [nb, ne] = clusters[c + 1];
        edges.push_back({rng->Uniform(begin, end - 1), rng->Uniform(nb, ne - 1)});
      }
    }
    std::vector<int> sources;
    for (int i = 0; i < 3; ++i) sources.push_back(rng->Uniform(0, nodes - 1));
    return EvalRequest(next_id_++, program, nodes, edges, sources);
  }

  Rng rng_;
  Rng warm_rng_;
  std::vector<int> pending_;
  std::uint64_t next_id_ = 1;
};

}  // namespace

std::unique_ptr<Generator> MakeGenerator(const WorkloadConfig& config,
                                         std::uint64_t seed) {
  switch (config.kind) {
    case WorkloadKind::kContainCold:
      return std::make_unique<ContainColdGenerator>(seed);
    case WorkloadKind::kServeHot:
      return std::make_unique<ServeHotGenerator>(seed);
    case WorkloadKind::kEvalClosure:
      return std::make_unique<EvalClosureGenerator>(seed);
  }
  return nullptr;
}

std::uint64_t StreamHash(const WorkloadConfig& config, std::uint64_t seed,
                         std::size_t lines) {
  std::unique_ptr<Generator> gen = MakeGenerator(config, seed);
  std::uint64_t h = Fnv1a("");
  for (const Request& r : gen->WarmUp()) h = Fnv1a(r.line + "\n", h);
  for (const Request& r : gen->Next(lines)) h = Fnv1a(r.line + "\n", h);
  return h;
}

}  // namespace servebench
