#include "datalog/eval.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/check.h"
#include "base/thread_pool.h"
#include "cq/homomorphism.h"
#include "cq/query.h"
#include "datalog/block_join.h"

namespace qcont {

namespace {

// A rule with its relation ids resolved once, before the fixpoint starts:
// the head and every body predicate are interned into the working
// database's pool up front (interning is idempotent and the compile pass is
// serial, so the pool contents are deterministic), and every later firing
// reuses the ids instead of re-resolving names per round. A body predicate
// with no facts yet simply has no rows behind its id until a round derives
// some.
struct CompiledRule {
  const Rule* rule = nullptr;
  RelationId head_rel = kNoRelation;
  std::size_t head_arity = 0;
  std::vector<RelationId> body_rels;
};

std::vector<CompiledRule> CompileRules(const DatalogProgram& program,
                                       Database& db) {
  std::vector<CompiledRule> compiled;
  compiled.reserve(program.rules().size());
  for (const Rule& rule : program.rules()) {
    CompiledRule cr;
    cr.rule = &rule;
    cr.head_rel = db.pool()->Intern(rule.head.predicate());
    cr.head_arity = rule.head.arity();
    cr.body_rels.reserve(rule.body.size());
    for (const Atom& atom : rule.body) {
      cr.body_rels.push_back(db.pool()->Intern(atom.predicate()));
    }
    compiled.push_back(std::move(cr));
  }
  return compiled;
}

// One rule firing: the derived head rows (flattened with stride
// head_arity; `num_rows` counts them so arity-0 heads stay countable) plus
// this firing's counters. Stats are task-local by construction — no
// pointer is shared between concurrent firings; callers fold `stats` in
// with Merge at the join.
struct FiredRule {
  std::vector<ValueId> rows;
  std::size_t num_rows = 0;
  DatalogEvalStats stats;
};

// Derives the head rows `cr` produces over the whole of `db` through the
// hom search (naive rounds and semi-naive round 0).
FiredRule FireRule(const CompiledRule& cr, const Database& db) {
  const Rule& rule = *cr.rule;
  FiredRule out;
  RowEnumerator rows(rule.body, db, cr.body_rels, /*fixed=*/{},
                     &out.stats.hom);
  std::vector<int> head_slots;
  head_slots.reserve(cr.head_arity);
  for (const Term& v : rule.head.terms()) {
    int slot = rows.VarSlot(v.name());
    QCONT_CHECK_MSG(slot >= 0, "head variable not bound in rule body");
    head_slots.push_back(slot);
  }
  rows.Enumerate([&](std::span<const ValueId> h) {
    for (int slot : head_slots) out.rows.push_back(h[slot]);
    ++out.num_rows;
    ++out.stats.rule_firings;
    return true;
  });
  return out;
}

// One serial sweep (a naive round, or semi-naive round 0): fires every
// rule in order and inserts its rows into `all` immediately, so later
// rules of the same sweep see them. Returns the number of facts added.
std::size_t FireRulesSerially(const std::vector<CompiledRule>& compiled,
                              Database& all, DatalogEvalStats* stats) {
  std::size_t added = 0;
  for (const CompiledRule& cr : compiled) {
    const FiredRule fired = FireRule(cr, all);
    if (stats != nullptr) stats->Merge(fired.stats);
    for (std::size_t i = 0; i < fired.num_rows; ++i) {
      const std::span<const ValueId> row(fired.rows.data() + i * cr.head_arity,
                                         cr.head_arity);
      if (all.AddRow(cr.head_rel, row)) ++added;
    }
  }
  if (stats != nullptr) stats->derived_facts += added;
  return added;
}

// An intensional relation and its delta: the rows [begin, end) of its
// arena in the working database that the last round appended.
struct Delta {
  RelationId rel = kNoRelation;
  std::size_t begin = 0;
  std::size_t end = 0;
};

// A (rule, intensional position) join: its block plan, the delta it reads
// and the delta its head relation feeds.
struct DeltaJoin {
  const CompiledRule* rule = nullptr;
  std::size_t delta = 0;
  std::size_t head = 0;
  BlockJoinPlan plan;
};

// Semi-naive rounds 1..n. Each round splits every (join, non-empty delta)
// pair into block-sized pool tasks (so one wide delta still fans out
// across workers), block-joins them in parallel against the frozen `all`,
// then commits each head relation's concatenated candidates with one
// AddRowBatch at the barrier. The rows a batch appends are the relation's
// next delta, read in place from the arena. The derived database (row
// order, interning order) and all engine counters are bit-identical for
// every thread count: tasks are merged in (join, block) order, and
// AddRowBatch commits survivors in candidate order.
void EvaluateDeltaRounds(const std::vector<DeltaJoin>& joins,
                         std::vector<Delta>& deltas,
                         const EvalOptions& options, Database& all,
                         std::uint64_t* round, DatalogEvalStats* stats) {
  struct DeltaTask {
    const DeltaJoin* join;
    std::size_t begin = 0;  // first delta row of the block
    std::size_t end = 0;    // one past the last
  };
  // One head relation's candidate rows of a round, in task order.
  struct Batch {
    RelationId rel = kNoRelation;
    std::size_t arity = 0;
    std::size_t num_rows = 0;
    std::vector<ValueId> rows;
  };
  const std::size_t block = std::max<std::size_t>(options.delta_block_rows, 1);
  std::vector<DeltaTask> tasks;
  auto delta_total = [&] {
    std::size_t total = 0;
    for (const Delta& d : deltas) total += d.end - d.begin;
    return total;
  };
  while (delta_total() > 0) {
    ObsSpan round_span(options.obs, "datalog/round", "datalog");
    round_span.AddArg("round", (*round)++);
    if (stats != nullptr) ++stats->iterations;
    tasks.clear();
    for (const DeltaJoin& join : joins) {
      const Delta& d = deltas[join.delta];
      for (std::size_t b = d.begin; b < d.end; b += block) {
        tasks.push_back(DeltaTask{&join, b, std::min(d.end, b + block)});
      }
    }
    round_span.AddArg("tasks", tasks.size());
    std::vector<FiredRule> fired = ParallelMap<FiredRule>(
        options.exec, tasks.size(), [&](std::size_t t) {
          ObsSpan join_span(options.obs, "datalog/delta_join", "datalog");
          join_span.AddArg("task", t);
          const DeltaTask& task = tasks[t];
          FiredRule out;
          task.join->plan.Execute(all, task.begin, task.end, &out.rows,
                                  &out.num_rows, &out.stats.hom);
          out.stats.rule_firings = out.num_rows;
          return out;
        });
    // Round barrier. Gather each head relation's candidate rows in task
    // order (relations in the order of their first producing task), then
    // commit each relation with one AddRowBatch: it deduplicates against
    // the database and within the batch and appends the survivors, in
    // candidate order, to the relation's arena — whose tail is therefore
    // precisely the relation's slice of the next round's delta.
    ObsSpan merge_span(options.obs, "datalog/merge", "datalog");
    std::vector<Batch> batches;
    std::vector<std::size_t> batch_of(deltas.size(), deltas.size());
    std::size_t candidates = 0;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      if (stats != nullptr) stats->Merge(fired[t].stats);
      if (fired[t].num_rows == 0) continue;
      const DeltaJoin& join = *tasks[t].join;
      std::size_t& slot = batch_of[join.head];
      if (slot == deltas.size()) {
        slot = batches.size();
        batches.emplace_back();
        batches.back().rel = join.rule->head_rel;
        batches.back().arity = join.rule->head_arity;
      }
      Batch& batch = batches[slot];
      batch.rows.insert(batch.rows.end(), fired[t].rows.begin(),
                        fired[t].rows.end());
      batch.num_rows += fired[t].num_rows;
      candidates += fired[t].num_rows;
    }
    merge_span.AddArg("candidates", candidates);
    merge_span.AddArg("relations", batches.size());
    for (Delta& d : deltas) d.begin = all.NumRows(d.rel);
    for (const Batch& batch : batches) {
      const std::size_t got =
          all.AddRowBatch(batch.rel, batch.arity, batch.num_rows, batch.rows);
      if (stats != nullptr) stats->derived_facts += got;
    }
    for (Delta& d : deltas) d.end = all.NumRows(d.rel);
    round_span.AddArg("delta_facts", delta_total());
  }
}

// The working database inherits the EDB's relations, and a relation has
// one arity: a program predicate used with another arity than the EDB
// relation of the same name could never match it, and deriving into it
// would break that invariant. Reject the clash as the analyzer's QC004.
Status CheckEdbArities(const DatalogProgram& program, const Database& edb) {
  auto check = [&](const Atom& atom) -> Status {
    const RelationId rel = edb.RelationIdOf(atom.predicate());
    if (edb.NumRows(rel) == 0 || edb.Arity(rel) == atom.arity()) {
      return Status::Ok();
    }
    return InvalidArgumentError(
        "predicate '" + atom.predicate() +
        "' used with inconsistent arities (" + std::to_string(atom.arity()) +
        " in the program, " + std::to_string(edb.Arity(rel)) +
        " in the database) [QC004]");
  };
  for (const Rule& rule : program.rules()) {
    QCONT_RETURN_IF_ERROR(check(rule.head));
    for (const Atom& atom : rule.body) QCONT_RETURN_IF_ERROR(check(atom));
  }
  return Status::Ok();
}

// Requires a validated program; checks the EDB's arities against it.
Result<Database> EvaluateProgramImpl(const DatalogProgram& program,
                                     const Database& edb,
                                     const EvalOptions& options,
                                     DatalogEvalStats* stats) {
  QCONT_RETURN_IF_ERROR(CheckEdbArities(program, edb));
  ObsSpan eval_span(options.obs, "datalog/eval", "datalog");
  eval_span.AddArg("rules", program.rules().size());
  Database all = edb;
  all.set_obs(options.obs);
  const std::vector<CompiledRule> compiled = CompileRules(program, all);
  std::uint64_t round = 0;

  if (options.strategy == EvalStrategy::kNaive) {
    // The naive reference strategy is deliberately serial: each rule in a
    // round sees the facts added by the rules before it, so firings are
    // order-dependent by definition.
    bool changed = true;
    while (changed) {
      ObsSpan round_span(options.obs, "datalog/round", "datalog");
      round_span.AddArg("round", round++);
      if (stats != nullptr) ++stats->iterations;
      round_span.AddArg("tasks", compiled.size());
      const std::size_t added = FireRulesSerially(compiled, all, stats);
      round_span.AddArg("delta_facts", added);
      changed = added > 0;
    }
    return all;
  }

  // Semi-naive. Every intensional relation gets a delta, and every
  // (rule, intensional position) pair a block plan over that delta.
  std::vector<Delta> deltas;
  std::unordered_map<RelationId, std::size_t> delta_of;
  for (const CompiledRule& cr : compiled) {
    if (delta_of.try_emplace(cr.head_rel, deltas.size()).second) {
      deltas.push_back(Delta{cr.head_rel, 0, 0});
    }
  }
  std::vector<DeltaJoin> joins;
  for (const CompiledRule& cr : compiled) {
    for (std::size_t i = 0; i < cr.body_rels.size(); ++i) {
      auto it = delta_of.find(cr.body_rels[i]);
      if (it == delta_of.end()) continue;  // extensional position
      joins.push_back(DeltaJoin{
          &cr, it->second, delta_of.at(cr.head_rel),
          BlockJoinPlan::Compile(*cr.rule, cr.body_rels, static_cast<int>(i))});
    }
  }

  // Round 0 fires every rule on the EDB. It stays serial: like the naive
  // rounds, each rule sees the facts added by the rules before it. Its
  // delta is everything it appended.
  {
    ObsSpan round_span(options.obs, "datalog/round", "datalog");
    round_span.AddArg("round", round++);
    if (stats != nullptr) ++stats->iterations;
    round_span.AddArg("tasks", compiled.size());
    for (Delta& d : deltas) d.begin = all.NumRows(d.rel);
    round_span.AddArg("delta_facts", FireRulesSerially(compiled, all, stats));
    for (Delta& d : deltas) d.end = all.NumRows(d.rel);
  }
  EvaluateDeltaRounds(joins, deltas, options, all, &round, stats);
  return all;
}

// Publish funnel: with a metric sink attached, gather the run's counters
// into a run-local struct, publish once at the end (the same deltas that
// merge into the caller's legacy sink), and mirror the working database's
// index counters as `db.*` gauges (including the open-addressing probe
// table's collision and resize counters). Requires a validated program.
Result<Database> EvaluateValidatedProgram(const DatalogProgram& program,
                                          const Database& edb,
                                          const EvalOptions& options,
                                          DatalogEvalStats* stats) {
  MetricRegistry* metrics = ObsMetrics(options.obs);
  if (metrics == nullptr) {
    return EvaluateProgramImpl(program, edb, options, stats);
  }
  DatalogEvalStats run;
  Result<Database> result = EvaluateProgramImpl(program, edb, options, &run);
  run.PublishTo(metrics, "datalog.eval");
  if (result.ok()) {
    const DatabaseIndexStats idx = (*result).index_stats();
    metrics->SetGauge("db.indexes_built", idx.indexes_built);
    metrics->SetGauge("db.probes", idx.probes);
    metrics->SetGauge("db.rows_indexed", idx.rows_indexed);
    metrics->SetGauge("db.probe_table.probes", idx.probes);
    metrics->SetGauge("db.probe_table.collisions", idx.probe_collisions);
    metrics->SetGauge("db.probe_table.resizes", idx.probe_resizes);
    metrics->SetGauge("db.probe.tag_hits", idx.tag_hits);
    metrics->SetGauge("db.probe.tag_skips", idx.tag_skips);
    metrics->SetGauge("db.probe.filter_skips", idx.filter_skips);
    metrics->SetGauge("db.probe.prefetch_batches", idx.prefetch_batches);
  }
  if (stats != nullptr) stats->Merge(run);
  return result;
}

}  // namespace

Result<Database> EvaluateProgram(const DatalogProgram& program,
                                 const Database& edb,
                                 const EvalOptions& options,
                                 DatalogEvalStats* stats) {
  QCONT_RETURN_IF_ERROR(program.Validate());
  return EvaluateValidatedProgram(program, edb, options, stats);
}

Result<Database> EvaluateProgram(const DatalogProgram& program,
                                 const Database& edb, EvalStrategy strategy,
                                 DatalogEvalStats* stats) {
  EvalOptions options;
  options.strategy = strategy;
  return EvaluateProgram(program, edb, options, stats);
}

Result<std::vector<Tuple>> EvaluateGoal(const DatalogProgram& program,
                                        const Database& edb,
                                        const EvalOptions& options,
                                        DatalogEvalStats* stats) {
  QCONT_ASSIGN_OR_RETURN(Database all,
                         EvaluateProgram(program, edb, options, stats));
  const RelationId goal = all.RelationIdOf(program.goal_predicate());
  const std::size_t n = all.NumRows(goal);
  const std::size_t arity = all.Arity(goal);
  if (arity == 0) return std::vector<Tuple>(n);  // n ≤ 1 empty tuples
  // Sorting string tuples costs a string compare per comparison; instead
  // rank the distinct values by name once and sort the interned rows under
  // that rank — element-wise it is the same order as std::sort over the
  // rendered tuples. Each distinct value is looked up in the pool once and
  // the output is rendered from the rank table.
  std::unordered_map<ValueId, std::uint32_t> rank;
  for (std::size_t r = 0; r < n; ++r) {
    for (const ValueId v : all.Row(goal, r)) rank.emplace(v, 0);
  }
  std::vector<std::pair<std::string_view, ValueId>> named;
  named.reserve(rank.size());
  for (const auto& kv : rank) {
    named.emplace_back(all.pool()->NameOf(kv.first), kv.first);
  }
  std::sort(named.begin(), named.end());
  for (std::size_t i = 0; i < named.size(); ++i) {
    rank[named[i].second] = static_cast<std::uint32_t>(i);
  }
  std::vector<std::uint32_t> keys(n * arity);
  for (std::size_t r = 0; r < n; ++r) {
    const std::span<const ValueId> row = all.Row(goal, r);
    for (std::size_t j = 0; j < arity; ++j) keys[r * arity + j] = rank[row[j]];
  }
  std::vector<std::uint32_t> order(n);
  for (std::size_t r = 0; r < n; ++r) order[r] = static_cast<std::uint32_t>(r);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const std::uint32_t* ka = keys.data() + a * arity;
              const std::uint32_t* kb = keys.data() + b * arity;
              return std::lexicographical_compare(ka, ka + arity, kb,
                                                  kb + arity);
            });
  std::vector<Tuple> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t* key = keys.data() + order[i] * arity;
    out[i].reserve(arity);
    for (std::size_t j = 0; j < arity; ++j) {
      out[i].emplace_back(named[key[j]].first);
    }
  }
  return out;
}

Result<std::vector<Tuple>> EvaluateGoal(const DatalogProgram& program,
                                        const Database& edb,
                                        EvalStrategy strategy,
                                        DatalogEvalStats* stats) {
  EvalOptions options;
  options.strategy = strategy;
  return EvaluateGoal(program, edb, options, stats);
}

Result<bool> UcqContainedInDatalog(const UnionQuery& theta,
                                   const DatalogProgram& program,
                                   const EvalOptions& options,
                                   DatalogEvalStats* stats) {
  QCONT_RETURN_IF_ERROR(theta.Validate());
  QCONT_RETURN_IF_ERROR(program.Validate());
  if (static_cast<int>(theta.arity()) != program.GoalArity()) {
    return InvalidArgumentError("UCQ arity differs from goal arity");
  }
  // Π is validated once above; each disjunct only adds its EDB arity check.
  for (const ConjunctiveQuery& disjunct : theta.disjuncts()) {
    Database canonical = CanonicalDatabase(disjunct);
    QCONT_ASSIGN_OR_RETURN(
        Database derived,
        EvaluateValidatedProgram(program, canonical, options, stats));
    if (!derived.HasFact(program.goal_predicate(), CanonicalHead(disjunct))) {
      return false;
    }
  }
  return true;
}

Result<bool> UcqContainedInDatalog(const UnionQuery& theta,
                                   const DatalogProgram& program,
                                   DatalogEvalStats* stats) {
  return UcqContainedInDatalog(theta, program, EvalOptions(), stats);
}

}  // namespace qcont
