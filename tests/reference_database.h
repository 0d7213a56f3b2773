#ifndef QCONT_TESTS_REFERENCE_DATABASE_H_
#define QCONT_TESTS_REFERENCE_DATABASE_H_

// Test-only differential reference for cq/Database and the engines that
// read it: relations are string-tuple sets kept in insertion order, probes
// are full scans, and conjunctive queries and Datalog programs are
// evaluated by brute-force matching over the strings. It shares no code
// with the storage layer (no interning, no probe tables, no arenas), so
// agreement with it is evidence rather than tautology. The scan hom search
// (ScanSearcher) reads a Database through its string facts only; it is the
// candidate-count reference for the indexed search.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cq/atom.h"
#include "cq/database.h"
#include "cq/homomorphism.h"
#include "cq/query.h"
#include "datalog/program.h"

namespace qcont {
namespace testref {

/// Naive reference of `Database::Probe`: the rows of `rel` whose values at
/// the positions set in `mask` equal `key`, in row order — exactly the
/// postings contract.
inline std::vector<std::uint32_t> ScanReference(const Database& db,
                                                RelationId rel,
                                                std::uint32_t mask,
                                                std::span<const ValueId> key) {
  std::vector<std::uint32_t> out;
  for (std::size_t r = 0; r < db.NumRows(rel); ++r) {
    const std::span<const ValueId> row = db.Row(rel, r);
    std::size_t k = 0;
    bool match = true;
    for (std::uint32_t p = 0; mask >> p != 0; ++p) {
      if ((mask >> p & 1u) == 0) continue;
      if (p >= row.size() || row[p] != key[k++]) {
        match = false;
        break;
      }
    }
    if (match) out.push_back(static_cast<std::uint32_t>(r));
  }
  return out;
}

/// A set of string facts with the observable contract of `Database`:
/// duplicates ignored, per-relation insertion order, active domain in
/// first-occurrence order.
class ReferenceDatabase {
 public:
  bool AddFact(const std::string& relation, Tuple tuple) {
    if (!set_.emplace(relation, tuple).second) return false;
    for (const Value& v : tuple) {
      if (domain_set_.insert(v).second) domain_.push_back(v);
    }
    rels_[relation].push_back(std::move(tuple));
    return true;
  }

  bool HasFact(const std::string& relation, const Tuple& tuple) const {
    return set_.count({relation, tuple}) > 0;
  }

  const std::vector<Tuple>& Facts(const std::string& relation) const {
    static const std::vector<Tuple> kEmpty;
    auto it = rels_.find(relation);
    return it == rels_.end() ? kEmpty : it->second;
  }

  /// Relation names with at least one fact, sorted.
  std::vector<std::string> Relations() const {
    std::vector<std::string> out;
    for (const auto& [name, facts] : rels_) out.push_back(name);
    return out;
  }

  const std::vector<Value>& ActiveDomain() const { return domain_; }
  std::size_t NumFacts() const { return set_.size(); }

  /// Row indices of `relation` whose values at the positions set in `mask`
  /// equal `key` (one value per set bit, ascending positions).
  std::vector<std::uint32_t> Probe(const std::string& relation,
                                   std::uint32_t mask, const Tuple& key) const {
    std::vector<std::uint32_t> out;
    const std::vector<Tuple>& facts = Facts(relation);
    for (std::size_t r = 0; r < facts.size(); ++r) {
      std::size_t k = 0;
      bool match = true;
      for (std::uint32_t p = 0; mask >> p != 0; ++p) {
        if ((mask >> p & 1u) == 0) continue;
        if (p >= facts[r].size() || facts[r][p] != key[k++]) {
          match = false;
          break;
        }
      }
      if (match) out.push_back(static_cast<std::uint32_t>(r));
    }
    return out;
  }

 private:
  std::map<std::string, std::vector<Tuple>> rels_;
  std::set<std::pair<std::string, Tuple>> set_;
  std::vector<Value> domain_;
  std::unordered_set<Value> domain_set_;
};

// ---------------------------------------------------------------------------
// Scan engine: the pre-index hom search. Static greedy atom order, full
// relation scan per atom, string-keyed bindings, reading a Database only
// through `Facts` (rendered once per atom at construction). It is the
// reference the candidate-bound tests hold the indexed search to: a probe
// returns a subset of the rows a scan walks, so the indexed search never
// inspects more candidates than this one.
// ---------------------------------------------------------------------------
struct ScanSearcher {
  std::vector<Atom> atoms;                // ordered at construction
  std::vector<std::vector<Tuple>> facts;  // parallel to `atoms`
  Assignment binding;
  HomSearchStats* stats;
  const std::function<bool(const Assignment&)>* visit = nullptr;
  bool stopped = false;

  ScanSearcher(const std::vector<Atom>& atoms_in,
               const std::vector<const Database*>& dbs_in,
               const Assignment& fixed, HomSearchStats* stats_in)
      : atoms(atoms_in), binding(fixed), stats(stats_in) {
    for (std::size_t i = 0; i < atoms.size(); ++i) {
      facts.push_back(dbs_in[i]->Facts(atoms[i].predicate()));
    }
    OrderAtoms();
  }

  // Greedy static order: repeatedly pick the atom with the most variables
  // already covered by earlier atoms (or `fixed`), tie-broken by smaller
  // relation. Keeps the search close to a join order a planner would pick.
  void OrderAtoms() {
    std::vector<Atom> ordered;
    std::vector<std::vector<Tuple>> ordered_facts;
    std::set<std::string> bound;
    for (const auto& [var, value] : binding) bound.insert(var);
    std::vector<bool> used(atoms.size(), false);
    for (std::size_t round = 0; round < atoms.size(); ++round) {
      int best = -1;
      long best_score = -1;
      for (std::size_t i = 0; i < atoms.size(); ++i) {
        if (used[i]) continue;
        long covered = 0;
        for (const Term& t : atoms[i].terms()) {
          if (t.is_constant() || bound.count(t.name())) ++covered;
        }
        // Prefer high coverage, then small relations.
        long score = covered * 1000000 - static_cast<long>(facts[i].size());
        if (best < 0 || score > best_score) {
          best = static_cast<int>(i);
          best_score = score;
        }
      }
      used[best] = true;
      for (const Term& t : atoms[best].terms()) {
        if (t.is_variable()) bound.insert(t.name());
      }
      ordered.push_back(atoms[best]);
      ordered_facts.push_back(std::move(facts[best]));
    }
    atoms = std::move(ordered);
    facts = std::move(ordered_facts);
  }

  void Recurse(std::size_t index) {
    if (stopped) return;
    if (index == atoms.size()) {
      if (!(*visit)(binding)) stopped = true;
      return;
    }
    const Atom& atom = atoms[index];
    for (const Tuple& fact : facts[index]) {
      if (fact.size() != atom.arity()) continue;
      if (stats != nullptr) {
        ++stats->atom_attempts;
        ++stats->scan_candidates;
      }
      // Try to unify atom terms with the fact.
      std::vector<std::string> newly_bound;
      bool ok = true;
      for (std::size_t i = 0; i < fact.size(); ++i) {
        const Term& t = atom.terms()[i];
        if (t.is_constant()) {
          if (t.name() != fact[i]) {
            ok = false;
            break;
          }
          continue;
        }
        auto it = binding.find(t.name());
        if (it != binding.end()) {
          if (it->second != fact[i]) {
            ok = false;
            break;
          }
        } else {
          binding.emplace(t.name(), fact[i]);
          newly_bound.push_back(t.name());
        }
      }
      if (ok) {
        Recurse(index + 1);
      } else if (stats != nullptr) {
        ++stats->backtracks;
      }
      for (const std::string& var : newly_bound) binding.erase(var);
      if (stopped) return;
    }
  }
};


/// Enumerates the homomorphisms of `cq`'s body into `db` extending `fixed`
/// with the scan engine.
inline void ScanEnumerate(const ConjunctiveQuery& cq, const Database& db,
                          const Assignment& fixed,
                          const std::function<bool(const Assignment&)>& visit,
                          HomSearchStats* stats = nullptr) {
  std::vector<const Database*> dbs(cq.atoms().size(), &db);
  ScanSearcher searcher(cq.atoms(), dbs, fixed, stats);
  searcher.visit = &visit;
  searcher.Recurse(0);
}

/// FindHomomorphism through the scan engine.
inline std::optional<Assignment> ScanFindHomomorphism(
    const ConjunctiveQuery& cq, const Database& db,
    const Assignment& fixed = {}, HomSearchStats* stats = nullptr) {
  std::optional<Assignment> found;
  ScanEnumerate(
      cq, db, fixed,
      [&found](const Assignment& h) {
        found = h;
        return false;
      },
      stats);
  return found;
}

/// EvaluateCq through the scan engine: distinct head tuples, sorted.
inline std::vector<Tuple> ScanEvaluateCq(const ConjunctiveQuery& cq,
                                         const Database& db,
                                         HomSearchStats* stats = nullptr) {
  std::set<Tuple> results;
  ScanEnumerate(
      cq, db, /*fixed=*/{},
      [&](const Assignment& h) {
        Tuple out;
        for (const Term& t : cq.head()) out.push_back(h.at(t.name()));
        results.insert(std::move(out));
        return true;
      },
      stats);
  return {results.begin(), results.end()};
}

/// EvaluateUcq through the scan engine: the union, deduplicated and sorted.
inline std::vector<Tuple> ScanEvaluateUcq(const UnionQuery& ucq,
                                          const Database& db,
                                          HomSearchStats* stats = nullptr) {
  std::set<Tuple> results;
  for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
    for (Tuple& t : ScanEvaluateCq(cq, db, stats)) results.insert(std::move(t));
  }
  return {results.begin(), results.end()};
}

using Binding = std::map<std::string, Value>;

/// Calls `visit` once per extension of `*binding` that maps every atom of
/// `atoms[i..]` onto a fact of `db`, by trying every fact for every atom.
inline void ForEachMatch(const std::vector<Atom>& atoms,
                         const ReferenceDatabase& db, std::size_t i,
                         Binding* binding,
                         const std::function<void(const Binding&)>& visit) {
  if (i == atoms.size()) {
    visit(*binding);
    return;
  }
  const Atom& atom = atoms[i];
  for (const Tuple& fact : db.Facts(atom.predicate())) {
    if (fact.size() != atom.arity()) continue;
    Binding saved = *binding;
    bool ok = true;
    for (std::size_t p = 0; p < fact.size() && ok; ++p) {
      const Term& t = atom.terms()[p];
      if (t.is_constant()) {
        ok = t.name() == fact[p];
        continue;
      }
      auto [it, fresh] = binding->emplace(t.name(), fact[p]);
      ok = fresh || it->second == fact[p];
    }
    if (ok) ForEachMatch(atoms, db, i + 1, binding, visit);
    *binding = std::move(saved);
  }
}

/// cq(db): the distinct head tuples, sorted.
inline std::vector<Tuple> EvaluateCq(const ConjunctiveQuery& cq,
                                     const ReferenceDatabase& db) {
  std::set<Tuple> out;
  Binding binding;
  ForEachMatch(cq.atoms(), db, 0, &binding, [&](const Binding& b) {
    Tuple head;
    for (const Term& t : cq.head()) head.push_back(b.at(t.name()));
    out.insert(std::move(head));
  });
  return {out.begin(), out.end()};
}

/// Π(db) by naive fixpoint over string tuples: the goal tuples, sorted.
inline std::vector<Tuple> EvaluateGoal(const DatalogProgram& program,
                                       ReferenceDatabase db) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Rule& rule : program.rules()) {
      std::vector<Tuple> derived;
      Binding binding;
      ForEachMatch(rule.body, db, 0, &binding, [&](const Binding& b) {
        Tuple head;
        for (const Term& t : rule.head.terms()) head.push_back(b.at(t.name()));
        derived.push_back(std::move(head));
      });
      for (Tuple& t : derived) {
        if (db.AddFact(rule.head.predicate(), std::move(t))) changed = true;
      }
    }
  }
  std::vector<Tuple> goal = db.Facts(program.goal_predicate());
  std::sort(goal.begin(), goal.end());
  return goal;
}

/// The string facts of `db` loaded into a reference database (relations in
/// sorted order, facts in row order).
inline ReferenceDatabase ReferenceOf(const Database& db) {
  ReferenceDatabase ref;
  for (const std::string& rel : db.Relations()) {
    for (const Tuple& t : db.Facts(rel)) ref.AddFact(rel, t);
  }
  return ref;
}

/// Θ ⊆ Θ' by Sagiv–Yannakakis over brute-force evaluation: every disjunct
/// θ's frozen head must be an answer of some θ' on θ's canonical database
/// (each variable frozen to its name, constants kept).
inline bool UcqContained(const UnionQuery& theta,
                         const UnionQuery& theta_prime) {
  for (const ConjunctiveQuery& d : theta.disjuncts()) {
    ReferenceDatabase canonical;
    for (const Atom& a : d.atoms()) {
      Tuple t;
      for (const Term& term : a.terms()) t.push_back(term.name());
      canonical.AddFact(a.predicate(), std::move(t));
    }
    Tuple head;
    for (const Term& term : d.head()) head.push_back(term.name());
    bool covered = false;
    for (const ConjunctiveQuery& dp : theta_prime.disjuncts()) {
      const std::vector<Tuple> answers = EvaluateCq(dp, canonical);
      if (std::binary_search(answers.begin(), answers.end(), head)) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  return true;
}

}  // namespace testref
}  // namespace qcont

#endif  // QCONT_TESTS_REFERENCE_DATABASE_H_
