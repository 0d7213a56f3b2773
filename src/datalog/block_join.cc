#include "datalog/block_join.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "base/check.h"

namespace qcont {

namespace {

using SlotMap = std::unordered_map<std::string, int>;

// Positions of `atom` holding an already-bound variable (by slot map
// membership).
int BoundCount(const Atom& atom, const SlotMap& slots) {
  int bound = 0;
  for (const Term& t : atom.terms()) bound += slots.count(t.name()) > 0;
  return bound;
}

// Bound-position mask of `atom`: the bound positions a 32-bit probe mask
// can hold. Bound positions past 32 are checked after the probe instead.
std::uint32_t BoundMask(const Atom& atom, const SlotMap& slots) {
  std::uint32_t mask = 0;
  const std::size_t limit = std::min<std::size_t>(atom.arity(), 32);
  for (std::size_t p = 0; p < limit; ++p) {
    if (slots.count(atom.terms()[p].name()) > 0) mask |= 1u << p;
  }
  return mask;
}

}  // namespace

BlockJoinPlan BlockJoinPlan::Compile(const Rule& rule,
                                     std::span<const RelationId> body_rels,
                                     int delta_position) {
  BlockJoinPlan plan;
  const std::size_t num_atoms = rule.body.size();
  QCONT_CHECK(delta_position >= 0 &&
              static_cast<std::size_t>(delta_position) < num_atoms);
  SlotMap slots;
  // Appends the action for an unbound position: bind on the variable's
  // first occurrence, check on a repeat (e.g. R(x, y, y) with y fresh).
  auto add_action = [&](std::vector<PositionAction>* actions, std::size_t p,
                        const Term& t) {
    QCONT_CHECK_MSG(t.is_variable(), "rule constants are rejected (QC003)");
    PositionAction a;
    a.pos = static_cast<std::uint32_t>(p);
    auto [it, fresh] =
        slots.try_emplace(t.name(), static_cast<int>(slots.size()));
    a.var_slot = it->second;
    a.bind = fresh;
    actions->push_back(a);
  };

  // Delta atom first: every position is a scan-side action (no probe).
  {
    const Atom& atom = rule.body[delta_position];
    plan.delta_rel_ = body_rels[delta_position];
    plan.delta_arity_ = static_cast<std::uint32_t>(atom.arity());
    for (std::size_t p = 0; p < atom.arity(); ++p) {
      add_action(&plan.delta_actions_, p, atom.terms()[p]);
    }
  }

  // Remaining atoms in greedy most-bound-first order (ties by body index),
  // decided once here — the hom search re-decides per search node.
  std::vector<std::size_t> remaining;
  for (std::size_t i = 0; i < num_atoms; ++i) {
    if (static_cast<int>(i) != delta_position) remaining.push_back(i);
  }
  while (!remaining.empty()) {
    std::size_t best = 0;
    int best_bound = -1;
    for (std::size_t r = 0; r < remaining.size(); ++r) {
      const int bound = BoundCount(rule.body[remaining[r]], slots);
      if (bound > best_bound) {
        best_bound = bound;
        best = r;
      }
    }
    const std::size_t ai = remaining[best];
    remaining.erase(remaining.begin() + best);
    const Atom& atom = rule.body[ai];
    AtomStep step;
    step.rel = body_rels[ai];
    step.arity = static_cast<std::uint32_t>(atom.arity());
    step.mask = BoundMask(atom, slots);
    for (std::size_t p = 0; p < atom.arity(); ++p) {
      const Term& t = atom.terms()[p];
      if (p < 32 && (step.mask >> p & 1u) != 0) {
        step.key_slots.push_back(slots.at(t.name()));
      } else {
        add_action(&step.actions, p, t);
      }
    }
    plan.steps_.push_back(std::move(step));
  }

  plan.head_slots_.reserve(rule.head.arity());
  for (const Term& t : rule.head.terms()) {
    auto it = slots.find(t.name());
    QCONT_CHECK_MSG(t.is_variable() && it != slots.end(),
                    "head variable not bound in rule body (QC002/QC003)");
    plan.head_slots_.push_back(it->second);
  }
  plan.num_vars_ = slots.size();
  return plan;
}

void BlockJoinPlan::Execute(const Database& all, std::size_t begin,
                            std::size_t end, std::vector<ValueId>* out_rows,
                            std::size_t* num_rows,
                            HomSearchStats* stats) const {
  if (begin >= end) return;
  QCONT_CHECK(end <= all.NumRows(delta_rel_) &&
              all.Arity(delta_rel_) == delta_arity_);
  for (const AtomStep& step : steps_) {
    // QC004 rejects a program/EDB arity clash before evaluation starts.
    QCONT_CHECK(all.NumRows(step.rel) == 0 ||
                all.Arity(step.rel) == step.arity);
  }

  const std::size_t nv = std::max<std::size_t>(num_vars_, 1);
  std::vector<ValueId> frontier;
  std::vector<ValueId> next;
  std::vector<ValueId> keys;
  std::vector<std::span<const std::uint32_t>> hits;

  // Stage 0: scan the delta rows into the initial frontier.
  const ValueId* delta = all.Arena(delta_rel_).data();
  for (std::size_t r = begin; r < end; ++r) {
    const ValueId* row = delta + r * delta_arity_;
    ++stats->atom_attempts;
    ++stats->scan_candidates;
    const std::size_t at = frontier.size();
    frontier.resize(at + nv, 0);
    for (const PositionAction& a : delta_actions_) {
      if (a.bind) {
        frontier[at + a.var_slot] = row[a.pos];
      } else if (frontier[at + a.var_slot] != row[a.pos]) {
        frontier.resize(at);
        break;
      }
    }
  }

  // One ProbeMany per atom: gather every frontier row's key, resolve the
  // whole batch through the staged probe pipeline, then extend the
  // frontier from the postings.
  for (const AtomStep& step : steps_) {
    const std::size_t fcount = frontier.size() / nv;
    if (fcount == 0) break;
    const std::size_t w = step.key_slots.size();
    keys.resize(fcount * w);
    for (std::size_t i = 0; i < fcount; ++i) {
      const ValueId* binding = frontier.data() + i * nv;
      for (std::size_t k = 0; k < w; ++k) {
        keys[i * w + k] = binding[step.key_slots[k]];
      }
    }
    hits.assign(fcount, {});
    all.ProbeMany(step.rel, step.mask, keys,
                  std::span<std::span<const std::uint32_t>>(hits));
    stats->index_probes += fcount;
    const ValueId* arena = all.Arena(step.rel).data();
    next.clear();
    for (std::size_t i = 0; i < fcount; ++i) {
      const ValueId* binding = frontier.data() + i * nv;
      for (const std::uint32_t row_idx : hits[i]) {
        ++stats->index_candidates;
        ++stats->atom_attempts;
        const ValueId* row =
            arena + static_cast<std::size_t>(row_idx) * step.arity;
        const std::size_t at = next.size();
        next.insert(next.end(), binding, binding + nv);
        for (const PositionAction& a : step.actions) {
          if (a.bind) {
            next[at + a.var_slot] = row[a.pos];
          } else if (next[at + a.var_slot] != row[a.pos]) {
            next.resize(at);
            break;
          }
        }
      }
    }
    frontier.swap(next);
  }

  // Project the surviving full bindings onto the head.
  const std::size_t fcount = frontier.size() / nv;
  for (std::size_t i = 0; i < fcount; ++i) {
    const ValueId* binding = frontier.data() + i * nv;
    for (const int slot : head_slots_) out_rows->push_back(binding[slot]);
    ++*num_rows;
  }
}

}  // namespace qcont
