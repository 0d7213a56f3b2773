#include "replay.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <tuple>
#include <utility>

#include "analysis/report.h"
#include "core/ack_containment.h"
#include "core/datalog_ucq.h"
#include "cq/containment.h"
#include "cq/core.h"
#include "datalog/eval.h"
#include "parser/parser.h"
#include "server/json.h"

namespace servebench {

using qcont::ConjunctiveQuery;
using qcont::Database;
using qcont::DatalogProgram;
using qcont::UnionQuery;
using qcont::server::PlanKey;

struct Replayer::Item {
  std::string op;
  bool done = false;  // outcome decided while preparing
  std::uint64_t key1 = 0;
  std::uint64_t key2 = 0;
  std::optional<DatalogProgram> program;
  std::optional<UnionQuery> query;
  std::optional<Database> database;

  std::string status = "ok";
  std::string cache = "none";
  std::string error_code;
  bool contained = false;
  std::string route;
  int ack_level = 0;
  std::string witness = "-";
  std::vector<qcont::Tuple> tuples;
  std::string report_json;
  bool evaluated = false;
  std::uint64_t derived_facts = 0;

  void Fail(const qcont::Status& s) {
    done = true;
    status = "error";
    error_code = qcont::StatusCodeName(s.code());
  }
};

namespace {

/// Same size guard as the server's minimization pre-pass.
bool SmallEnoughToMinimize(const UnionQuery& ucq) {
  if (ucq.disjuncts().size() > 16) return false;
  for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
    if (cq.atoms().size() > 24) return false;
  }
  return true;
}

const char* WireRouteName(qcont::ContainmentRoute route) {
  return route == qcont::ContainmentRoute::kAckEngine ? "ack" : "type-engine";
}

}  // namespace

Replayer::Replayer(const qcont::server::ServerOptions& options,
                   std::size_t trace_calls)
    : engine_threads_(options.engine_threads),
      trace_calls_(trace_calls),
      pool_(std::make_shared<qcont::Interner>()),
      base_ns_(std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now().time_since_epoch())
                   .count()) {}

Replayer::~Replayer() = default;

/// Strictly increasing, so a span that opens before another also starts
/// strictly before it — trace nesting never hinges on equal timestamps.
std::int64_t Replayer::NowNs() const {
  const std::int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               Clock::now().time_since_epoch())
                               .count() -
                           base_ns_;
  last_ns_ = std::max(now, last_ns_ + 1);
  return last_ns_;
}

void Replayer::AddSpan(const char* name, Layer layer, std::int64_t start_ns,
                       std::int64_t end_ns) {
  if (!recording_) return;
  const double us = static_cast<double>(end_ns - start_ns) / 1000.0;
  span_us_[name] += us;
  if (layer != Layer::kAux) {
    call_layer_us_ += us;
  } else {
    call_aux_us_ += us;
  }
  if (recorded_calls_ < trace_calls_) {
    spans_.push_back({name, layer == Layer::kAux ? 1 : 0, start_ns, end_ns});
  }
}

template <typename Fn>
auto Replayer::Timed(const char* name, Layer layer, Fn&& fn) {
  const std::int64_t start = NowNs();
  auto result = fn();
  AddSpan(name, layer, start, NowNs());
  return result;
}

#define SPAN(name, layer, expr) Timed(name, layer, [&] { return (expr); })

void Replayer::Prepare(const std::string& line, Item* item) {
  auto parsed = SPAN("server/ParseJson", Layer::kJson, qcont::server::ParseJson(line));
  if (!parsed.ok()) return item->Fail(parsed.status());
  if (!parsed->is_object()) {
    return item->Fail(qcont::InvalidArgumentError("request must be a JSON object"));
  }
  const qcont::server::JsonValue* op = parsed->Get("op");
  if (op == nullptr || !op->is_string()) {
    return item->Fail(qcont::InvalidArgumentError("request needs an op"));
  }
  item->op = op->string_value();
  auto text = [&](const char* name) -> const std::string* {
    const qcont::server::JsonValue* v = parsed->Get(name);
    return (v != nullptr && v->is_string()) ? &v->string_value() : nullptr;
  };
  if (recording_) ++recorded_requests_;

  if (item->op == "containment" || item->op == "analyze") {
    const std::string* query_text = text("query");
    if (query_text == nullptr) {
      return item->Fail(qcont::InvalidArgumentError("missing query"));
    }
    auto query = SPAN("parser/ParseUcq", Layer::kParser, qcont::ParseUcq(*query_text));
    if (!query.ok()) return item->Fail(query.status());
    if (recording_) parsed_bytes_ += query_text->size();
    item->query = std::move(*query);
    const std::string* program_text = text("program");
    if (program_text == nullptr && item->op == "containment") {
      return item->Fail(qcont::InvalidArgumentError("missing program"));
    }
    if (program_text != nullptr) {
      auto program =
          SPAN("parser/ParseProgram", Layer::kParser, qcont::ParseProgram(*program_text));
      if (!program.ok()) return item->Fail(program.status());
      if (recording_) parsed_bytes_ += program_text->size();
      item->program = std::move(*program);
      item->key1 = SPAN("analysis/CanonicalProgramHash", Layer::kAnalysis,
                        qcont::analysis::CanonicalProgramHash(*item->program));
    }
    item->key2 = SPAN("analysis/CanonicalQueryHash", Layer::kAnalysis,
                      qcont::analysis::CanonicalQueryHash(*item->query));
  } else if (item->op == "eval") {
    const std::string* program_text = text("program");
    const std::string* db_text = text("database");
    if (program_text == nullptr || db_text == nullptr) {
      return item->Fail(qcont::InvalidArgumentError("missing program/database"));
    }
    auto program =
        SPAN("parser/ParseProgram", Layer::kParser, qcont::ParseProgram(*program_text));
    if (!program.ok()) return item->Fail(program.status());
    auto database =
        SPAN("parser/ParseDatabase", Layer::kParser, qcont::ParseDatabase(*db_text));
    if (!database.ok()) return item->Fail(database.status());
    if (recording_) parsed_bytes_ += program_text->size() + db_text->size();
    item->program = std::move(*program);
    item->database = std::move(*database);
    item->key1 = SPAN("analysis/CanonicalProgramHash", Layer::kAnalysis,
                      qcont::analysis::CanonicalProgramHash(*item->program));
    item->key2 = SPAN("analysis/CanonicalDatabaseHash", Layer::kAnalysis,
                      qcont::analysis::CanonicalDatabaseHash(*item->database));
  } else {
    item->Fail(qcont::InvalidArgumentError("unknown op"));
  }
}

void Replayer::RunContainment(Item* item) {
  const DatalogProgram& program = *item->program;
  const UnionQuery* theta = &*item->query;
  std::uint64_t query_hash = item->key2;

  // Minimization pre-pass: per-disjunct cores, then subsumption pruning,
  // exactly as the server's MinimizeUcq, one span per CoreOf/CqContained.
  std::optional<UnionQuery> minimized;
  if (SmallEnoughToMinimize(*item->query)) {
    auto hit = SPAN("server/LookupCoreUcq", Layer::kPlanCache,
                    cache_.LookupCoreUcq(item->key2));
    if (recording_) {
      ++core_.lookups;
      core_.hits += hit.has_value() ? 1 : 0;
    }
    if (hit.has_value()) {
      minimized = std::move(*hit);
    } else {
      std::vector<ConjunctiveQuery> cores;
      bool ok = true;
      for (const ConjunctiveQuery& cq : item->query->disjuncts()) {
        auto core = SPAN("cq/CoreOf", Layer::kCq, qcont::CoreOf(cq));
        if (!core.ok()) {
          ok = false;
          break;
        }
        cores.push_back(std::move(*core));
      }
      const std::size_t n = cores.size();
      std::vector<bool> dead(n, false);
      for (std::size_t i = 0; ok && i < n; ++i) {
        for (std::size_t j = 0; ok && j < n && !dead[i]; ++j) {
          if (j == i || dead[j]) continue;
          auto fwd = SPAN("cq/CqContained", Layer::kCq,
                          qcont::CqContained(cores[i], cores[j]));
          if (!fwd.ok()) {
            ok = false;
            break;
          }
          if (!*fwd) continue;
          if (j < i) {
            dead[i] = true;
          } else {
            auto back = SPAN("cq/CqContained", Layer::kCq,
                             qcont::CqContained(cores[j], cores[i]));
            if (!back.ok()) {
              ok = false;
              break;
            }
            if (!*back) dead[i] = true;
          }
        }
      }
      if (ok) {
        std::vector<ConjunctiveQuery> kept;
        for (std::size_t i = 0; i < n; ++i) {
          if (!dead[i]) kept.push_back(std::move(cores[i]));
        }
        minimized = UnionQuery(std::move(kept));
        SPAN("server/InsertCoreUcq", Layer::kPlanCache,
             (cache_.InsertCoreUcq(item->key2, *minimized), 0));
      }
    }
    if (minimized.has_value()) {
      theta = &*minimized;
      query_hash = SPAN("analysis/CanonicalQueryHash", Layer::kAnalysis,
                        qcont::analysis::CanonicalQueryHash(*minimized));
    }
  }

  const PlanKey verdict_key{item->key1, query_hash};
  bool stable = false;
  auto verdict = SPAN("server/LookupVerdict", Layer::kPlanCache,
                      cache_.LookupVerdict(verdict_key, &stable));
  if (recording_) {
    ++verdict_.lookups;
    verdict_.hits += verdict.has_value() ? 1 : 0;
  }
  item->cache = stable ? "hit" : "miss";
  if (verdict.has_value()) {
    item->contained = verdict->contained;
    item->route = WireRouteName(verdict->route);
    item->ack_level = verdict->ack_level;
    item->witness = verdict->witness.value_or("-");
    return;
  }

  qcont::analysis::RoutingOptions routing;
  routing.use_cache = false;
  auto cached_report = SPAN("server/LookupAnalysis", Layer::kPlanCache,
                            cache_.LookupAnalysis(verdict_key));
  if (recording_) {
    ++analysis_.lookups;
    analysis_.hits += cached_report.has_value() ? 1 : 0;
  }
  qcont::analysis::AnalysisReport report;
  if (cached_report.has_value()) {
    report = std::move(*cached_report);
  } else {
    report = SPAN("analysis/AnalyzeForRouting", Layer::kAnalysis,
                  qcont::analysis::AnalyzeForRouting(program, *theta, routing));
    SPAN("server/InsertAnalysis", Layer::kPlanCache,
         (cache_.InsertAnalysis(verdict_key, report), 0));
  }
  const qcont::analysis::EngineKind engine =
      SPAN("analysis/ChooseEngine", Layer::kAnalysis,
           qcont::analysis::ChooseEngine(
               report, qcont::analysis::RoutingGoal::kContainment, routing));

  qcont::server::CachedVerdict built;
  const std::int64_t engine_start = NowNs();
  std::optional<qcont::ContainmentAnswer> answer;
  if (engine == qcont::analysis::EngineKind::kAckEngine) {
    qcont::AckEngineStats stats;
    auto r = SPAN("core/DatalogContainedInAcyclicUcq", Layer::kCore,
                  qcont::DatalogContainedInAcyclicUcq(program, *theta, &stats));
    if (!r.ok()) return item->Fail(r.status());
    answer = std::move(*r);
    built.route = qcont::ContainmentRoute::kAckEngine;
    built.ack_level = stats.ack_level > 0 ? stats.ack_level : report.ack_level;
    if (recording_) {
      ++ack_runs_;
      antichain_sets_ += stats.antichain_sets;
      game_states_ += stats.game_states;
    }
  } else {
    qcont::TypeEngineStats stats;
    qcont::TypeEngineOptions options;
    options.exec.threads = engine_threads_;
    options.artifact_cache = &cache_.artifacts();
    auto r = SPAN("core/DatalogContainedInUcq", Layer::kCore,
                  qcont::DatalogContainedInUcq(program, *theta, &stats, options));
    if (!r.ok()) return item->Fail(r.status());
    answer = std::move(*r);
    built.route = qcont::ContainmentRoute::kGeneralEngine;
    if (recording_) {
      ++type_runs_;
      kinds_ += stats.kinds;
      elements_ += stats.elements;
      combos_ += stats.combos;
    }
  }
  const double chosen_us = static_cast<double>(NowNs() - engine_start) / 1000.0;

  built.contained = answer->contained;
  if (answer->witness.has_value()) {
    built.witness = SPAN("cq/QueryToString", Layer::kCq, answer->witness->ToString());
    built.counterexample_db =
        SPAN("cq/CanonicalDatabase", Layer::kCq,
             qcont::CanonicalDatabase(*answer->witness).ToString());
  }
  SPAN("server/InsertVerdict", Layer::kPlanCache,
       (cache_.InsertVerdict(verdict_key, built), 0));
  item->contained = built.contained;
  item->route = WireRouteName(built.route);
  item->ack_level = built.ack_level;
  item->witness = built.witness.value_or("-");

  // Routing regret on acyclic Θ: the route not taken, forced and cold (a
  // private artifact, so the replay's own cache state stays the server's).
  if (recording_ && report.acyclic) {
    const std::int64_t start = NowNs();
    if (engine == qcont::analysis::EngineKind::kAckEngine) {
      qcont::TypeEngineOptions options;
      options.exec.threads = engine_threads_;
      SPAN("core/ForcedTypeEngine", Layer::kAux,
           qcont::DatalogContainedInUcq(program, *theta, nullptr, options).ok());
    } else {
      SPAN("core/ForcedAckEngine", Layer::kAux,
           qcont::DatalogContainedInAcyclicUcq(program, *theta).ok());
    }
    const double other_us = static_cast<double>(NowNs() - start) / 1000.0;
    chosen_acyclic_us_ += chosen_us;
    best_acyclic_us_ += std::min(chosen_us, other_us);
  }
}

void Replayer::RunEval(Item* item) {
  const PlanKey key{item->key1, item->key2};
  bool stable = false;
  auto cached = SPAN("server/LookupEval", Layer::kPlanCache, cache_.LookupEval(key, &stable));
  if (recording_) {
    ++eval_.lookups;
    eval_.hits += cached.has_value() ? 1 : 0;
  }
  item->cache = stable ? "hit" : "miss";
  if (cached.has_value()) {
    item->tuples = std::move(cached->tuples);
    return;
  }
  Database db = SPAN("cq/LoadDatabase", Layer::kCq, [&] {
    Database out(pool_);
    for (const std::string& relation : item->database->Relations()) {
      for (const qcont::Tuple& tuple : item->database->Facts(relation)) {
        out.AddFact(relation, tuple);
      }
    }
    return out;
  }());
  qcont::EvalOptions eval;
  eval.exec.threads = engine_threads_;
  qcont::DatalogEvalStats stats;
  auto tuples = SPAN("datalog/EvaluateGoal", Layer::kDatalog,
                     qcont::EvaluateGoal(*item->program, db, eval, &stats));
  if (!tuples.ok()) return item->Fail(tuples.status());
  qcont::server::CachedEval built;
  built.tuples = std::move(*tuples);
  SPAN("server/InsertEval", Layer::kPlanCache, (cache_.InsertEval(key, built), 0));
  item->tuples = std::move(built.tuples);
  item->evaluated = true;
  item->derived_facts = stats.derived_facts;
  if (!recording_) return;
  ++eval_runs_;
  iterations_ += stats.iterations;
  rule_firings_ += stats.rule_firings;
  derived_facts_ += stats.derived_facts;
  atom_attempts_ += stats.hom.atom_attempts;
  index_probes_ += stats.hom.index_probes;
  // The bare fixpoint, for its time (EvaluateGoal minus this is the goal
  // materialisation) and the working database's probe counters.
  auto full = SPAN("datalog/EvaluateProgram", Layer::kAux,
                   qcont::EvaluateProgram(*item->program, db, eval));
  if (full.ok()) {
    const qcont::DatabaseIndexStats idx = full->index_stats();
    db_probes_ += idx.probes;
    db_probe_collisions_ += idx.probe_collisions;
  }
}

void Replayer::RunAnalyze(Item* item) {
  const PlanKey key{item->key1, item->key2};
  bool stable = false;
  auto report = SPAN("server/LookupAnalysis", Layer::kPlanCache,
                     cache_.LookupAnalysis(key, &stable));
  if (recording_) {
    ++analysis_.lookups;
    analysis_.hits += report.has_value() ? 1 : 0;
  }
  item->cache = stable ? "hit" : "miss";
  if (!report.has_value()) {
    qcont::analysis::RoutingOptions routing;
    routing.use_cache = false;
    report = SPAN("analysis/AnalyzeForRouting", Layer::kAnalysis,
                  item->program.has_value()
                      ? qcont::analysis::AnalyzeForRouting(*item->program,
                                                           *item->query, routing)
                      : qcont::analysis::AnalyzeForRouting(*item->query, routing));
    SPAN("server/InsertAnalysis", Layer::kPlanCache,
         (cache_.InsertAnalysis(key, *report), 0));
  }
  item->report_json = SPAN("analysis/ReportToJson", Layer::kAnalysis, report->ToJson());
}

void Replayer::Execute(Item* item) {
  if (item->op == "containment") {
    RunContainment(item);
  } else if (item->op == "eval") {
    RunEval(item);
  } else {
    RunAnalyze(item);
  }
  item->done = true;
}

std::vector<ReplayAnswer> Replayer::Call(const std::vector<std::string>& lines,
                                         bool record) {
  recording_ = record;
  if (record && recorded_calls_ == 0) {
    artifact_before_ = cache_.artifacts().stats();
    plan_before_ = cache_.stats();
  }
  call_layer_us_ = 0;
  call_aux_us_ = 0;
  const std::int64_t call_start = NowNs();

  SPAN("server/BeginEpoch", Layer::kPlanCache, (cache_.BeginEpoch(), 0));
  const std::size_t n = lines.size();
  std::vector<Item> items(n);
  for (std::size_t i = 0; i < n; ++i) Prepare(lines[i], &items[i]);

  // Coalescing by canonical work key; the first occurrence leads.
  std::map<std::tuple<std::string, std::uint64_t, std::uint64_t>, std::size_t>
      leader_of;
  std::vector<std::size_t> leader(n);
  for (std::size_t i = 0; i < n; ++i) {
    leader[i] = i;
    if (items[i].done) continue;
    auto [it, inserted] = leader_of.try_emplace(
        std::make_tuple(items[i].op, items[i].key1, items[i].key2), i);
    leader[i] = it->second;
    if (inserted) Execute(&items[i]);
  }
  const std::int64_t call_end = NowNs();

  std::vector<ReplayAnswer> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Item& item = items[leader[i]];
    ReplayAnswer& a = out[i];
    a.answer.status = item.status;
    a.answer.cache = item.cache;
    if (leader[i] != i && item.status == "ok") {
      a.answer.cache = "coalesced";
      if (record) ++coalesced_;
    }
    if (item.status != "ok") {
      a.answer.payload = item.error_code;
    } else if (item.op == "containment") {
      a.answer.contained = item.contained;
      a.answer.payload =
          ContainmentPayload(item.contained, item.route, item.ack_level, item.witness);
    } else if (item.op == "eval") {
      std::vector<std::string> joined;
      joined.reserve(item.tuples.size());
      for (const qcont::Tuple& t : item.tuples) {
        std::string row;
        for (const std::string& v : t) {
          if (!row.empty()) row += ",";
          row += v;
        }
        joined.push_back(std::move(row));
      }
      a.answer.tuple_count = joined.size();
      a.answer.tuple_digest = TupleDigest(joined);
      a.answer.payload = EvalPayload(a.answer.tuple_count, a.answer.tuple_digest);
      if (leader[i] == i) {
        a.evaluated = item.evaluated;
        a.derived_facts = item.derived_facts;
      }
    } else {
      auto doc = qcont::server::ParseJson(item.report_json);
      a.answer.payload = doc.ok() ? doc->Dump() : item.report_json;
      const qcont::server::JsonValue* ucq = doc.ok() ? doc->Get("ucq") : nullptr;
      const qcont::server::JsonValue* acyclic = ucq ? ucq->Get("acyclic") : nullptr;
      a.answer.acyclic = acyclic != nullptr && acyclic->is_bool() && acyclic->bool_value();
    }
  }

  if (record) {
    if (recorded_calls_ < trace_calls_) {
      spans_.push_back({"bench/call", 0, call_start, call_end});
    }
    ++recorded_calls_;
    last_layer_us_ = call_layer_us_;
    last_call_us_ = static_cast<double>(call_end - call_start) / 1000.0 - call_aux_us_;
  }
  recording_ = false;
  return out;
}

std::vector<Metric> Replayer::Metrics(double response_bytes,
                                           double unattributed_pct,
                                           double overhead_pct) {
  auto span = [&](const char* name) {
    double total = 0;
    for (const auto& [key, us] : span_us_) {
      if (std::string(key) == name) total += us;
    }
    return total;
  };
  auto per = [](double total, double count) { return count > 0 ? total / count : 0.0; };
  auto ratio = [](const HitCount& h) {
    return h.lookups > 0 ? static_cast<double>(h.hits) / h.lookups : 0.0;
  };
  const double requests = static_cast<double>(recorded_requests_);
  const qcont::ProgramArtifactCacheStats art = cache_.artifacts().stats();
  const double art_hits = static_cast<double>(art.hits - artifact_before_.hits);
  const double art_lookups =
      art_hits + static_cast<double>(art.misses - artifact_before_.misses);
  const double art_evictions = static_cast<double>(art.evictions - artifact_before_.evictions);
  const double plan_evictions =
      static_cast<double>(cache_.stats().evictions - plan_before_.evictions);
  const double lookup_us = span("server/LookupCoreUcq") + span("server/LookupVerdict") +
                           span("server/LookupAnalysis") + span("server/LookupEval");
  const double parser_us =
      span("parser/ParseUcq") + span("parser/ParseProgram") + span("parser/ParseDatabase");
  const double hash_us = span("analysis/CanonicalProgramHash") +
                         span("analysis/CanonicalQueryHash") +
                         span("analysis/CanonicalDatabaseHash");
  const double ack_us = span("core/DatalogContainedInAcyclicUcq");
  const double type_us = span("core/DatalogContainedInUcq");
  const double goal_us = span("datalog/EvaluateGoal");
  const double fixpoint_us = span("datalog/EvaluateProgram");
  const double engine_runs = static_cast<double>(ack_runs_ + type_runs_);
  const double evals = static_cast<double>(eval_runs_);
  return {
      {"server.json_parse_us", per(span("server/ParseJson"), requests), "us"},
      {"server.plan_cache.lookup_us", per(lookup_us, requests), "us"},
      {"server.response_bytes", response_bytes, "B"},
      {"server.coalesced_share", per(static_cast<double>(coalesced_), requests), "ratio"},
      {"server.plan_cache.verdict_hit_ratio", ratio(verdict_), "ratio"},
      {"server.plan_cache.analysis_hit_ratio", ratio(analysis_), "ratio"},
      {"server.plan_cache.core_hit_ratio", ratio(core_), "ratio"},
      {"server.plan_cache.eval_hit_ratio", ratio(eval_), "ratio"},
      {"server.plan_cache.artifact_hit_ratio", per(art_hits, art_lookups), "ratio"},
      {"server.plan_cache.evictions", per(plan_evictions + art_evictions, requests), "1/req"},
      {"server.plan_cache.artifact_evictions", per(art_evictions, requests), "1/req"},
      {"parser.us", per(parser_us, requests), "us"},
      {"parser.bytes_per_s", per(static_cast<double>(parsed_bytes_), parser_us / 1e6), "B/s"},
      {"analysis.hash_us", per(hash_us, requests), "us"},
      {"analysis.report_us",
       per(span("analysis/AnalyzeForRouting") + span("analysis/ChooseEngine"), requests),
       "us"},
      {"analysis.route_ack_share", per(static_cast<double>(ack_runs_), engine_runs), "ratio"},
      {"analysis.route_regret", per(chosen_acyclic_us_, best_acyclic_us_), "ratio"},
      {"cq.minimize_us", per(span("cq/CoreOf") + span("cq/CqContained"), requests), "us"},
      {"cq.db.load_us", per(span("cq/LoadDatabase"), requests), "us"},
      {"cq.db.probes", per(static_cast<double>(db_probes_), evals), "count"},
      {"cq.db.probe_collisions", per(static_cast<double>(db_probe_collisions_), evals),
       "count"},
      {"cq.hom.atom_attempts", per(static_cast<double>(atom_attempts_), evals), "count"},
      {"cq.hom.index_probes", per(static_cast<double>(index_probes_), evals), "count"},
      {"core.ack_us", per(ack_us, requests), "us"},
      {"core.ack.antichain_sets", per(static_cast<double>(antichain_sets_), ack_runs_),
       "count"},
      {"core.ack.game_states", per(static_cast<double>(game_states_), ack_runs_), "count"},
      {"core.type_engine_us", per(type_us, requests), "us"},
      {"core.type_engine.kinds", per(static_cast<double>(kinds_), type_runs_), "count"},
      {"core.type_engine.elements", per(static_cast<double>(elements_), type_runs_),
       "count"},
      {"core.type_engine.combos", per(static_cast<double>(combos_), type_runs_), "count"},
      {"datalog.fixpoint_us", per(fixpoint_us, requests), "us"},
      {"datalog.goal_us", per(goal_us - fixpoint_us, requests), "us"},
      {"datalog.iterations", per(static_cast<double>(iterations_), evals), "count"},
      {"datalog.rule_firings", per(static_cast<double>(rule_firings_), evals), "count"},
      {"datalog.derived_facts", per(static_cast<double>(derived_facts_), evals), "count"},
      {"datalog.useful_firing_ratio",
       per(static_cast<double>(derived_facts_), static_cast<double>(rule_firings_)), "ratio"},
      {"trace.unattributed_pct", unattributed_pct, "%"},
      {"trace.overhead_pct", overhead_pct, "%"},
  };
}

bool Replayer::WriteTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& s : spans_) {
    // Microseconds to the nanosecond, so nested spans keep their order.
    char times[96];
    std::snprintf(times, sizeof times, "\"ts\":%lld.%03lld,\"dur\":%lld.%03lld",
                  static_cast<long long>(s.start_ns / 1000),
                  static_cast<long long>(s.start_ns % 1000),
                  static_cast<long long>((s.end_ns - s.start_ns) / 1000),
                  static_cast<long long>((s.end_ns - s.start_ns) % 1000));
    const std::string name = s.name;
    out << (first ? "" : ",") << "\n{\"name\":\"" << name << "\",\"cat\":\""
        << name.substr(0, name.find('/')) << "\",\"ph\":\"X\"," << times
        << ",\"pid\":1,\"tid\":" << s.tid << "}";
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace servebench
