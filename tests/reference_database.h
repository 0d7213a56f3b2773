#ifndef QCONT_TESTS_REFERENCE_DATABASE_H_
#define QCONT_TESTS_REFERENCE_DATABASE_H_

// Test-only differential reference for cq/Database and the engines that
// read it: relations are string-tuple sets kept in insertion order, probes
// are full scans, and conjunctive queries and Datalog programs are
// evaluated by brute-force matching over the strings. It shares no code
// with the storage layer (no interning, no probe tables, no arenas), so
// agreement with it is evidence rather than tautology.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cq/atom.h"
#include "cq/database.h"
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

}  // namespace testref
}  // namespace qcont

#endif  // QCONT_TESTS_REFERENCE_DATABASE_H_
