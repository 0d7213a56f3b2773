#include "oracle.h"

#include <cstdio>
#include <stdexcept>

#include "core/router.h"
#include "cq/containment.h"
#include "datalog/expansion.h"
#include "parser/parser.h"
#include "server/json.h"

namespace servebench {

namespace {

std::vector<std::vector<int>> Adjacency(
    int nodes, const std::vector<std::pair<int, int>>& edges) {
  std::vector<std::vector<int>> adj(nodes);
  for (const auto& [u, v] : edges) adj[u].push_back(v);
  return adj;
}

/// Marks every node reachable from the nodes already in `frontier`.
void Bfs(const std::vector<std::vector<int>>& adj, std::vector<int> frontier,
         std::vector<char>* seen) {
  while (!frontier.empty()) {
    std::vector<int> next;
    for (int u : frontier) {
      for (int v : adj[u]) {
        if (!(*seen)[v]) {
          (*seen)[v] = 1;
          next.push_back(v);
        }
      }
    }
    frontier.swap(next);
  }
}

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

[[noreturn]] void Fail(const std::string& what, const std::string& program,
                       const std::string& query) {
  throw std::runtime_error(what + "\n  program: " + program +
                           "\n  query: " + query);
}

}  // namespace

std::vector<std::pair<int, int>> ClosurePairs(
    int nodes, const std::vector<std::pair<int, int>>& edges) {
  const std::vector<std::vector<int>> adj = Adjacency(nodes, edges);
  std::vector<std::pair<int, int>> out;
  for (int u = 0; u < nodes; ++u) {
    std::vector<char> seen(nodes, 0);
    for (int v : adj[u]) seen[v] = 1;
    Bfs(adj, adj[u], &seen);
    for (int v = 0; v < nodes; ++v) {
      if (seen[v]) out.push_back({u, v});
    }
  }
  return out;
}

std::vector<int> ReachableNodes(int nodes,
                                const std::vector<std::pair<int, int>>& edges,
                                const std::vector<int>& sources) {
  std::vector<char> seen(nodes, 0);
  for (int s : sources) seen[s] = 1;
  Bfs(Adjacency(nodes, edges), sources, &seen);
  std::vector<int> out;
  for (int v = 0; v < nodes; ++v) {
    if (seen[v]) out.push_back(v);
  }
  return out;
}

std::uint64_t TupleDigest(const std::vector<std::string>& joined_tuples) {
  std::uint64_t sum = 0;
  for (const std::string& t : joined_tuples) sum += Fnv1a(t);
  return sum;
}

std::optional<bool> DecideByAgreement(const std::string& program_text,
                                      const std::string& query_text,
                                      int refuter_depth) {
  auto program = qcont::ParseProgram(program_text);
  auto query = qcont::ParseUcq(query_text);
  if (!program.ok() || !query.ok()) {
    Fail("generated pair does not parse", program_text, query_text);
  }
  qcont::RouterOptions ack;
  ack.force = qcont::ForcedRoute::kAckEngine;
  ack.use_analysis_cache = false;
  qcont::RouterOptions general;
  general.force = qcont::ForcedRoute::kGeneralEngine;
  general.use_analysis_cache = false;
  auto by_ack = qcont::DecideContainment(*program, *query, ack);
  auto by_general = qcont::DecideContainment(*program, *query, general);
  if (!by_ack.ok() || !by_general.ok()) {
    Fail("an engine failed on a generated pair", program_text, query_text);
  }
  const bool contained = by_ack->answer.contained;
  if (contained != by_general->answer.contained) {
    Fail("forced ACk and forced general engines disagree", program_text,
         query_text);
  }
  auto expansions =
      qcont::EnumerateExpansions(*program, refuter_depth, /*max_count=*/2000);
  if (!expansions.ok()) Fail("expansion enumeration failed", program_text, query_text);
  bool refuted = false;
  for (const qcont::ConjunctiveQuery& theta : *expansions) {
    auto in = qcont::CqContainedInUcq(theta, *query);
    if (!in.ok()) Fail("Chandra-Merlin test failed", program_text, query_text);
    if (!*in) {
      refuted = true;
      break;
    }
  }
  if (contained && refuted) {
    Fail("refuter found a counterexample to a 'contained' verdict",
         program_text, query_text);
  }
  if (!contained && !refuted) return std::nullopt;
  return contained;
}

std::string ContainmentPayload(bool contained, const std::string& route,
                               int ack_level, const std::string& witness) {
  return std::string("contained=") + (contained ? "1" : "0") +
         ";route=" + route + ";ack_level=" + std::to_string(ack_level) +
         ";witness=" + witness;
}

std::string EvalPayload(std::uint64_t count, std::uint64_t digest) {
  return "n=" + std::to_string(count) + ";digest=" + Hex(digest);
}

std::optional<ResponseAnswer> ParseResponse(const std::string& response) {
  using qcont::server::JsonValue;
  auto doc = qcont::server::ParseJson(response);
  if (!doc.ok() || !doc->is_object()) return std::nullopt;
  const JsonValue* status = doc->Get("status");
  const JsonValue* cache = doc->Get("cache");
  const JsonValue* op = doc->Get("op");
  if (status == nullptr || !status->is_string() || cache == nullptr ||
      !cache->is_string() || op == nullptr || !op->is_string()) {
    return std::nullopt;
  }
  ResponseAnswer out;
  out.status = status->string_value();
  out.cache = cache->string_value();
  if (out.status != "ok") {
    const JsonValue* error = doc->Get("error");
    const JsonValue* code = error != nullptr ? error->Get("code") : nullptr;
    out.payload = code != nullptr && code->is_string() ? code->string_value()
                                                       : out.status;
    return out;
  }
  const JsonValue* result = doc->Get("result");
  if (result == nullptr || !result->is_object()) return std::nullopt;
  const std::string& kind = op->string_value();
  if (kind == "containment") {
    const JsonValue* contained = result->Get("contained");
    const JsonValue* route = result->Get("route");
    const JsonValue* level = result->Get("ack_level");
    const JsonValue* witness = result->Get("witness");
    if (contained == nullptr || !contained->is_bool() || route == nullptr ||
        !route->is_string() || level == nullptr || !level->is_number()) {
      return std::nullopt;
    }
    out.contained = contained->bool_value();
    out.payload = ContainmentPayload(
        out.contained, route->string_value(),
        static_cast<int>(level->number_value()),
        witness != nullptr && witness->is_string() ? witness->string_value()
                                                   : "-");
  } else if (kind == "eval") {
    const JsonValue* tuples = result->Get("tuples");
    if (tuples == nullptr || !tuples->is_array()) return std::nullopt;
    std::vector<std::string> joined;
    joined.reserve(tuples->array_items().size());
    for (const JsonValue& t : tuples->array_items()) {
      if (!t.is_array()) return std::nullopt;
      std::string row;
      for (const JsonValue& v : t.array_items()) {
        if (!v.is_string()) return std::nullopt;
        if (!row.empty()) row += ",";
        row += v.string_value();
      }
      joined.push_back(std::move(row));
    }
    out.tuple_count = joined.size();
    out.tuple_digest = TupleDigest(joined);
    out.payload = EvalPayload(out.tuple_count, out.tuple_digest);
  } else if (kind == "analyze") {
    const JsonValue* report = result->Get("report");
    const JsonValue* ucq = report != nullptr ? report->Get("ucq") : nullptr;
    const JsonValue* acyclic = ucq != nullptr ? ucq->Get("acyclic") : nullptr;
    if (acyclic == nullptr || !acyclic->is_bool()) return std::nullopt;
    out.acyclic = acyclic->bool_value();
    out.payload = report->Dump();
  } else {
    return std::nullopt;
  }
  return out;
}

bool MatchesExpected(const ResponseAnswer& answer, const Expected& expect) {
  if (answer.status != "ok") return false;
  switch (expect.kind) {
    case Expected::Kind::kContainment:
      return answer.payload.rfind("contained=", 0) == 0 &&
             answer.contained == expect.contained;
    case Expected::Kind::kEval:
      return answer.payload.rfind("n=", 0) == 0 &&
             answer.tuple_count == expect.tuple_count &&
             answer.tuple_digest == expect.tuple_digest;
    case Expected::Kind::kAnalyze:
      return answer.payload.rfind("{", 0) == 0 &&
             answer.acyclic == expect.acyclic;
  }
  return false;
}

}  // namespace servebench
