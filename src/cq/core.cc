#include "cq/core.h"

#include <algorithm>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "cq/database.h"
#include "cq/homomorphism.h"

namespace qcont {

namespace {

// Rebuilds a query from `cq` by applying the value-level homomorphism `h`
// to every atom. Values are mapped back to terms via `term_of_value`.
ConjunctiveQuery ApplyRetraction(
    const ConjunctiveQuery& cq, const Assignment& h,
    const std::unordered_map<std::string, Term>& term_of_value) {
  std::vector<Atom> new_atoms;
  std::unordered_set<std::string> seen;  // printed-atom dedup
  for (const Atom& a : cq.atoms()) {
    std::vector<Term> terms;
    terms.reserve(a.arity());
    for (const Term& t : a.terms()) {
      if (t.is_constant()) {
        terms.push_back(t);
      } else {
        terms.push_back(term_of_value.at(h.at(t.name())));
      }
    }
    Atom image(a.predicate(), std::move(terms));
    if (seen.insert(image.ToString()).second) new_atoms.push_back(image);
  }
  return ConjunctiveQuery(cq.head(), std::move(new_atoms));
}

}  // namespace

Result<ConjunctiveQuery> CoreOf(const ConjunctiveQuery& cq) {
  QCONT_RETURN_IF_ERROR(cq.Validate());
  // Duplicate atoms are semantically one; drop them before folding.
  std::vector<Atom> unique_atoms;
  std::unordered_set<std::string> atom_keys;
  for (const Atom& a : cq.atoms()) {
    if (atom_keys.insert(a.ToString()).second) unique_atoms.push_back(a);
  }
  ConjunctiveQuery current(cq.head(), std::move(unique_atoms));
  bool changed = true;
  while (changed) {
    changed = false;
    Database canonical = CanonicalDatabase(current);
    // The identity on free variables is forced.
    Assignment fixed;
    std::unordered_map<std::string, Term> term_of_value;
    for (const Term& t : current.head()) fixed.emplace(t.name(), t.name());
    for (const Atom& a : current.atoms()) {
      for (const Term& t : a.terms()) term_of_value.insert({t.name(), t});
    }
    for (const Term& v : current.ExistentialVariables()) {
      // A retraction eliminating v maps every atom onto a fact that does not
      // mention the frozen value of v.
      const ValueId v_id = canonical.ValueIdOf(v.name());
      Database restricted(canonical.pool());
      bool v_used = false;
      for (const RelationId rel : canonical.RelationIds()) {
        for (std::size_t r = 0; r < canonical.NumRows(rel); ++r) {
          const std::span<const ValueId> fact = canonical.Row(rel, r);
          if (std::find(fact.begin(), fact.end(), v_id) != fact.end()) {
            v_used = true;
          } else {
            restricted.AddRow(rel, fact);
          }
        }
      }
      if (!v_used) continue;  // dead variable cannot happen for valid CQs
      std::optional<Assignment> h = FindHomomorphism(current, restricted, fixed);
      if (h.has_value()) {
        current = ApplyRetraction(current, *h, term_of_value);
        changed = true;
        break;  // recompute the canonical database for the smaller query
      }
    }
  }
  return current;
}

Result<bool> IsCore(const ConjunctiveQuery& cq) {
  QCONT_ASSIGN_OR_RETURN(ConjunctiveQuery core, CoreOf(cq));
  // The core's variable set is a subset of cq's; equality of variable
  // counts means no fold happened (duplicate atoms are also removed by the
  // fold-free dedup below).
  std::unordered_set<std::string> dedup;
  for (const Atom& a : cq.atoms()) dedup.insert(a.ToString());
  return core.atoms().size() == dedup.size() &&
         core.Variables().size() == cq.Variables().size();
}

}  // namespace qcont
