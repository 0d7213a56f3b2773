#include "core/ack_containment.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/analyzer.h"
#include "base/check.h"
#include "core/instantiate.h"
#include "structure/classify.h"
#include "structure/decomposition.h"
#include "structure/join_tree.h"

namespace qcont {

namespace {

using internal::InstIdbAtom;
using internal::InstRule;
using internal::KindSpace;

// ---------------------------------------------------------------------------
// Disjunct preprocessing: join-tree view of each (acyclic) CQ of Θ.
// ---------------------------------------------------------------------------

struct AckDisjunct {
  int num_vars = 0;
  std::vector<std::string> preds;           // per atom
  std::vector<std::vector<int>> atom_vars;  // per atom: term variable ids
  std::vector<std::vector<int>> jt_children;
  std::vector<int> jt_roots;
  // Per atom: variables shared with the join-tree parent (sorted); this is
  // the domain of every map M carried by an atom state (A, M). Bounded by k
  // for Θ ∈ ACk.
  std::vector<std::vector<int>> entry_dom;
  std::vector<std::pair<int, int>> free_occurrences;  // (head position, var)
  std::vector<int> head;                              // var id per position
};

Result<AckDisjunct> BuildAckDisjunct(const ConjunctiveQuery& cq) {
  AckDisjunct d;
  std::unordered_map<std::string, int> var_index;
  auto var_id = [&](const std::string& name) {
    auto [it, inserted] = var_index.emplace(name, d.num_vars);
    if (inserted) ++d.num_vars;
    return it->second;
  };
  for (const Atom& atom : cq.atoms()) {
    d.preds.push_back(atom.predicate());
    std::vector<int> vars;
    for (const Term& t : atom.terms()) {
      if (!t.is_variable()) {
        return InvalidArgumentError(
            "the containment engines require constant-free queries");
      }
      vars.push_back(var_id(t.name()));
    }
    d.atom_vars.push_back(std::move(vars));
  }
  QCONT_ASSIGN_OR_RETURN(JoinTree jt, BuildJoinTree(cq));
  // Certify the join tree (width-1 GHW certificate) before trusting it.
  QCONT_RETURN_IF_ERROR(CertificateFromJoinTree(cq, jt).status());
  d.jt_children = jt.Children();
  d.jt_roots = jt.Roots();
  d.entry_dom.resize(cq.atoms().size());
  for (std::size_t a = 0; a < cq.atoms().size(); ++a) {
    if (jt.parent[a] < 0) continue;
    std::set<int> mine(d.atom_vars[a].begin(), d.atom_vars[a].end());
    std::set<int> parents(d.atom_vars[jt.parent[a]].begin(),
                          d.atom_vars[jt.parent[a]].end());
    for (int v : mine) {
      if (parents.count(v)) d.entry_dom[a].push_back(v);
    }
  }
  for (std::size_t j = 0; j < cq.head().size(); ++j) {
    int v = var_id(cq.head()[j].name());
    d.head.push_back(v);
    d.free_occurrences.emplace_back(static_cast<int>(j), v);
  }
  return d;
}

// ---------------------------------------------------------------------------
// States of the 2ATA B^Θ_Π in "position form" (interface-relative).
// ---------------------------------------------------------------------------

// An atom state (d, atom, m): m gives, for each variable of entry_dom[atom],
// the head position it is bound to. A variable state (d = -1 convention not
// used; var states set atom = -1): j is the free-variable position and m is
// the single head position the play carries.
struct PState {
  std::int16_t d = 0;
  std::int16_t atom = -1;  // -1: variable state
  std::int16_t j = -1;     // set for variable states
  std::vector<std::int8_t> m;

  friend bool operator<(const PState& a, const PState& b) {
    if (a.d != b.d) return a.d < b.d;
    if (a.atom != b.atom) return a.atom < b.atom;
    if (a.j != b.j) return a.j < b.j;
    return a.m < b.m;
  }
  friend bool operator==(const PState& a, const PState& b) {
    return a.d == b.d && a.atom == b.atom && a.j == b.j && a.m == b.m;
  }
};

using ExitSet = std::vector<PState>;  // sorted, unique
using Antichain = std::vector<ExitSet>;

bool IsSubsetOf(const ExitSet& a, const ExitSet& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

// Inserts `s` keeping only minimal sets. Returns true if the antichain
// changed.
bool AntichainInsert(Antichain* ac, ExitSet s) {
  for (const ExitSet& t : *ac) {
    if (IsSubsetOf(t, s)) return false;
  }
  ac->erase(std::remove_if(ac->begin(), ac->end(),
                           [&s](const ExitSet& t) { return IsSubsetOf(s, t); }),
            ac->end());
  ac->push_back(std::move(s));
  return true;
}

ExitSet UnionSets(const ExitSet& a, const ExitSet& b) {
  ExitSet out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

void SortAntichain(Antichain* ac) { std::sort(ac->begin(), ac->end()); }

// Inserts into `out` every union of one pick per antichain in `parts`.
void CombineProduct(const std::vector<const Antichain*>& parts,
                    Antichain* out) {
  ExitSet acc;
  std::function<void(std::size_t)> rec = [&](std::size_t i) {
    if (i == parts.size()) {
      AntichainInsert(out, acc);
      return;
    }
    for (const ExitSet& s : *parts[i]) {
      ExitSet saved = acc;
      acc = UnionSets(acc, s);
      rec(i + 1);
      acc = std::move(saved);
    }
  };
  rec(0);
}

// The behaviour summary of a subtree: for each entry state, the antichain
// of minimal exit-state sets Eve can enforce (∅ present means Eve can win
// entirely inside the subtree).
struct Summary {
  std::map<PState, Antichain> at;

  std::string Canonical() const {
    std::string out;
    auto put_state = [&out](const PState& s) {
      out += std::to_string(s.d) + "." + std::to_string(s.atom) + "." +
             std::to_string(s.j) + ".";
      for (std::int8_t x : s.m) out += static_cast<char>('A' + (x + 1));
    };
    for (const auto& [entry, ac] : at) {
      out += "|E";
      put_state(entry);
      out += "{";
      for (const ExitSet& s : ac) {
        out += "(";
        for (const PState& x : s) {
          put_state(x);
          out += ";";
        }
        out += ")";
      }
      out += "}";
    }
    return out;
  }
};

// W-form states used inside one local game: bindings are rule-variable
// representatives instead of head positions.
struct WState {
  std::int16_t d = 0;
  std::int16_t atom = -1;
  std::int16_t j = -1;
  std::vector<int> m;

  friend bool operator<(const WState& a, const WState& b) {
    if (a.d != b.d) return a.d < b.d;
    if (a.atom != b.atom) return a.atom < b.atom;
    if (a.j != b.j) return a.j < b.j;
    return a.m < b.m;
  }
};

struct Provenance {
  int rule_pos = -1;
  std::vector<int> child_summaries;
};

struct KindState {
  std::vector<Summary> summaries;
  std::vector<Provenance> provenance;
  std::set<std::string> canon;
};

// ---------------------------------------------------------------------------
// The engine.
// ---------------------------------------------------------------------------

class AckEngine {
 public:
  AckEngine(const DatalogProgram& program, const UnionQuery& ucq,
            AckEngineStats* stats, const AckEngineLimits& limits)
      : program_(program),
        ucq_(ucq),
        stats_(stats),
        limits_(limits),
        kinds_(program) {}

  // Engine runs accumulate into the run-local `run_`; `Run` flushes it to
  // the caller's legacy sink and the registry in one place at the end.
  Result<ContainmentAnswer> Run() {
    Result<ContainmentAnswer> result = RunImpl();
    Flush();
    return result;
  }

 private:
  Result<ContainmentAnswer> RunImpl() {
    ObsSpan run_span(limits_.obs, "ack/run", "core");
    for (const ConjunctiveQuery& cq : ucq_.disjuncts()) {
      if (!IsAcyclic(cq)) {
        return FailedPreconditionError(
            "the ACk engine requires an acyclic UCQ; disjunct is cyclic: " +
            cq.ToString());
      }
      QCONT_ASSIGN_OR_RETURN(AckDisjunct d, BuildAckDisjunct(cq));
      disjuncts_.push_back(std::move(d));
      // AC1 is the lowest level of the hierarchy by convention.
      run_.ack_level = std::max({run_.ack_level, 1, MaxSharedVariables(cq)});
    }
    std::vector<int> root_kinds = kinds_.RootKinds();
    state_.resize(kinds_.NumKinds());
    QCONT_RETURN_IF_ERROR(Fixpoint());
    run_.kinds = kinds_.NumKinds();
    for (const KindState& k : state_) {
      run_.summaries += k.summaries.size();
      for (const Summary& s : k.summaries) {
        for (const auto& [entry, ac] : s.at) {
          run_.antichain_sets += ac.size();
        }
      }
    }
    summarized_ = true;
    for (int kind_id : root_kinds) {
      const std::vector<int>& pattern = kinds_.KeyOf(kind_id).pattern;
      const KindState& kind = state_[kind_id];
      for (std::size_t s = 0; s < kind.summaries.size(); ++s) {
        if (!RootAccepts(kind.summaries[s], pattern)) {
          ContainmentAnswer answer;
          answer.contained = false;
          answer.witness = internal::BuildWitnessCq(
              kinds_, kind_id, static_cast<long>(s),
              [this](int k, long token) {
                const Provenance& prov = state_[k].provenance[token];
                internal::WitnessNode node;
                node.rule = &kinds_.RulesOf(k)[prov.rule_pos];
                node.child_tokens.assign(prov.child_summaries.begin(),
                                         prov.child_summaries.end());
                return node;
              });
          return answer;
        }
      }
    }
    ContainmentAnswer answer;
    answer.contained = true;
    return answer;
  }

  // Reproduces the legacy sink's mixed semantics (see AckEngineStats) and
  // publishes the same run-local values to the registry: the per-event
  // counters flush unconditionally (they were bumped before any error), the
  // post-fixpoint snapshot fields only when the fixpoint completed.
  void Flush() {
    if (MetricRegistry* metrics = ObsMetrics(limits_.obs)) {
      metrics->Add("ack.combos", run_.combos);
      metrics->Add("ack.game_states", run_.game_states);
      metrics->SetGauge("ack.level", static_cast<std::uint64_t>(run_.ack_level));
      if (summarized_) {
        metrics->Add("ack.summaries", run_.summaries);
        metrics->Add("ack.antichain_sets", run_.antichain_sets);
        metrics->SetGauge("ack.kinds", run_.kinds);
      }
    }
    if (stats_ == nullptr) return;
    stats_->combos += run_.combos;
    stats_->game_states += run_.game_states;
    stats_->ack_level = std::max(stats_->ack_level, run_.ack_level);
    if (summarized_) {
      stats_->kinds = run_.kinds;
      stats_->summaries += run_.summaries;
      stats_->antichain_sets += run_.antichain_sets;
    }
  }

  // Same reachability fixpoint shape as the general engine, over summaries.
  Status Fixpoint() {
    std::uint64_t total = 0;
    std::uint64_t round = 0;
    bool changed = true;
    while (changed) {
      changed = false;
      ObsSpan round_span(limits_.obs, "ack/round", "core");
      round_span.AddArg("round", round++);
      for (std::size_t k = 0; k < kinds_.NumKinds(); ++k) {
        const std::vector<InstRule>& rules = kinds_.RulesOf(static_cast<int>(k));
        for (std::size_t rp = 0; rp < rules.size(); ++rp) {
          const InstRule& rule = rules[rp];
          const std::size_t num_children = rule.idb_atoms.size();
          bool viable = true;
          for (const InstIdbAtom& child : rule.idb_atoms) {
            if (state_[child.kind_id].summaries.empty()) {
              viable = false;
              break;
            }
          }
          if (!viable) continue;
          std::vector<int> combo(num_children, 0);
          while (true) {
            std::string combo_key =
                std::to_string(k) + "/" + std::to_string(rp);
            for (int c : combo) {
              combo_key.append(",").append(std::to_string(c));
            }
            if (processed_.insert(combo_key).second) {
              ++run_.combos;
              if (processed_.size() > limits_.max_combos) {
                return ResourceExhaustedError(
                    "ACk-engine combination budget exceeded");
              }
              Summary summary =
                  ComputeSummary(static_cast<int>(k), rule, combo);
              std::string canon = summary.Canonical();
              if (state_[k].canon.insert(canon).second) {
                state_[k].summaries.push_back(std::move(summary));
                Provenance prov;
                prov.rule_pos = static_cast<int>(rp);
                prov.child_summaries = combo;
                state_[k].provenance.push_back(std::move(prov));
                if (++total > limits_.max_summaries) {
                  return ResourceExhaustedError(
                      "ACk-engine summary budget exceeded");
                }
                changed = true;
              }
            }
            std::size_t pos = 0;
            while (pos < num_children) {
              int limit = static_cast<int>(
                  state_[rule.idb_atoms[pos].kind_id].summaries.size());
              if (++combo[pos] < limit) break;
              combo[pos] = 0;
              ++pos;
            }
            if (pos == num_children) break;
          }
        }
      }
    }
    return Status::Ok();
  }

  // Solves the local acceptance game at a node labeled by `rule` whose j-th
  // intensional child has the chosen summary, producing this subtree's own
  // summary. The game table maps W-form states to antichains of minimal
  // exit sets (position form, relative to this kind's head).
  Summary ComputeSummary(int kind_id, const InstRule& rule,
                         const std::vector<int>& combo) {
    const std::vector<int>& pattern = kinds_.KeyOf(kind_id).pattern;
    (void)pattern;
    std::map<WState, Antichain> table;
    std::vector<WState> order;
    auto discover = [&](const WState& s) {
      if (table.emplace(s, Antichain{}).second) {
        order.push_back(s);
        ++run_.game_states;
      }
    };

    // Seed with all entry states of this kind (in W form).
    std::vector<PState> entries = EntrySpace(rule);
    for (const PState& e : entries) discover(ToW(e, rule.head));

    // Least fixpoint: re-evaluate discovered states until stable. States
    // discovered during evaluation join the sweep.
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t i = 0; i < order.size(); ++i) {
        WState s = order[i];
        Antichain fresh = EvalState(s, rule, combo, table, discover);
        SortAntichain(&fresh);
        if (fresh != table.at(s)) {
          table[s] = std::move(fresh);
          changed = true;
        }
      }
    }

    Summary out;
    for (const PState& e : entries) {
      out.at.emplace(e, table.at(ToW(e, rule.head)));
    }
    return out;
  }

  // All entry states of a subtree of this kind: per disjunct and join-tree
  // atom, every binding of the atom's entry domain to head positions
  // (canonical positions only), plus the unbound entry for join roots.
  std::vector<PState> EntrySpace(const InstRule& rule) const {
    std::vector<PState> out;
    const int arity = static_cast<int>(rule.head.size());
    // Canonical positions: first occurrence of each head representative.
    std::vector<std::int8_t> canonical;
    for (int p = 0; p < arity; ++p) {
      bool first = true;
      for (int q = 0; q < p; ++q) {
        if (rule.head[q] == rule.head[p]) first = false;
      }
      if (first) canonical.push_back(static_cast<std::int8_t>(p));
    }
    for (std::size_t d = 0; d < disjuncts_.size(); ++d) {
      const AckDisjunct& dj = disjuncts_[d];
      for (std::size_t a = 0; a < dj.preds.size(); ++a) {
        const std::size_t dom = dj.entry_dom[a].size();
        std::vector<std::int8_t> m(dom, 0);
        std::function<void(std::size_t)> rec = [&](std::size_t i) {
          if (i == dom) {
            PState e;
            e.d = static_cast<std::int16_t>(d);
            e.atom = static_cast<std::int16_t>(a);
            e.m = m;
            out.push_back(std::move(e));
            return;
          }
          for (std::int8_t p : canonical) {
            m[i] = p;
            rec(i + 1);
          }
        };
        if (dom == 0) {
          rec(0);
        } else if (!canonical.empty()) {
          rec(0);
        }
        // dom > 0 with arity 0 head: no entries (a bound variable cannot
        // cross a 0-ary interface).
      }
    }
    return out;
  }

  WState ToW(const PState& p, const std::vector<int>& head) const {
    WState w;
    w.d = p.d;
    w.atom = p.atom;
    w.j = p.j;
    w.m.reserve(p.m.size());
    for (std::int8_t pos : p.m) w.m.push_back(head[pos]);
    return w;
  }

  // Canonical head position of rule variable `w`, or -1 if not in the head.
  static int HeadPosition(const std::vector<int>& head, int w) {
    for (std::size_t p = 0; p < head.size(); ++p) {
      if (head[p] == w) return static_cast<int>(p);
    }
    return -1;
  }

  Antichain EvalState(const WState& s, const InstRule& rule,
                      const std::vector<int>& combo,
                      std::map<WState, Antichain>& table,
                      const std::function<void(const WState&)>& discover) {
    Antichain result;
    if (s.atom < 0) {
      // Variable state (j, w): its only option is to exit upward, checking
      // that w survives into the head.
      int pos = HeadPosition(rule.head, s.m[0]);
      if (pos >= 0) {
        PState exit;
        exit.d = s.d;
        exit.atom = -1;
        exit.j = s.j;
        exit.m = {static_cast<std::int8_t>(pos)};
        AntichainInsert(&result, ExitSet{std::move(exit)});
      }
      return result;
    }
    const AckDisjunct& dj = disjuncts_[s.d];
    const int a = s.atom;

    // Option (c): exit upward, if every binding survives into the head.
    {
      PState exit;
      exit.d = s.d;
      exit.atom = s.atom;
      bool ok = true;
      for (int w : s.m) {
        int pos = HeadPosition(rule.head, w);
        if (pos < 0) {
          ok = false;
          break;
        }
        exit.m.push_back(static_cast<std::int8_t>(pos));
      }
      if (ok) AntichainInsert(&result, ExitSet{std::move(exit)});
    }

    // Option (a): map atom `a` onto an extensional atom of this rule
    // instance, spawning plays for the join children and the distinguished
    // variables of `a`.
    for (const auto& [pred, terms] : rule.edb_atoms) {
      if (pred != dj.preds[a] || terms.size() != dj.atom_vars[a].size()) {
        continue;
      }
      // Unify, seeded with the entry bindings.
      std::map<int, int> g;  // disjunct variable -> W rep
      for (std::size_t i = 0; i < dj.entry_dom[a].size(); ++i) {
        g[dj.entry_dom[a][i]] = s.m[i];
      }
      bool ok = true;
      for (std::size_t i = 0; i < terms.size() && ok; ++i) {
        auto [it, inserted] = g.emplace(dj.atom_vars[a][i], terms[i]);
        if (!inserted && it->second != terms[i]) ok = false;
      }
      if (!ok) continue;
      std::vector<WState> spawned;
      for (int b : dj.jt_children[a]) {
        WState child;
        child.d = s.d;
        child.atom = static_cast<std::int16_t>(b);
        for (int v : dj.entry_dom[b]) child.m.push_back(g.at(v));
        spawned.push_back(std::move(child));
      }
      for (auto [j, v] : dj.free_occurrences) {
        if (g.count(v)) {
          // Only variables of atom `a` spawn here.
          bool in_atom = false;
          for (int u : dj.atom_vars[a]) in_atom = in_atom || u == v;
          if (!in_atom) continue;
          WState var;
          var.d = s.d;
          var.atom = -1;
          var.j = static_cast<std::int16_t>(j);
          var.m = {g.at(v)};
          spawned.push_back(std::move(var));
        }
      }
      std::vector<const Antichain*> parts;
      for (const WState& sp : spawned) discover(sp);
      for (const WState& sp : spawned) parts.push_back(&table.at(sp));
      CombineProduct(parts, &result);
    }

    // Option (b): move into a proof-tree child whose head carries all the
    // current bindings; consult the child's summary and continue every
    // returned exit play at this node.
    for (std::size_t c = 0; c < rule.idb_atoms.size(); ++c) {
      const InstIdbAtom& child = rule.idb_atoms[c];
      PState entry;
      entry.d = s.d;
      entry.atom = s.atom;
      bool ok = true;
      for (int w : s.m) {
        int pos = -1;
        for (std::size_t p = 0; p < child.terms.size(); ++p) {
          if (child.terms[p] == w) {
            pos = static_cast<int>(p);
            break;
          }
        }
        if (pos < 0) {
          ok = false;
          break;
        }
        entry.m.push_back(static_cast<std::int8_t>(pos));
      }
      if (!ok) continue;
      const Summary& child_summary =
          state_[child.kind_id].summaries[combo[c]];
      auto it = child_summary.at.find(entry);
      if (it == child_summary.at.end()) continue;
      for (const ExitSet& exits : it->second) {
        std::vector<WState> continuations;
        continuations.reserve(exits.size());
        for (const PState& x : exits) {
          WState w = ToW(x, child.terms);
          continuations.push_back(std::move(w));
        }
        std::vector<const Antichain*> parts;
        for (const WState& sp : continuations) discover(sp);
        for (const WState& sp : continuations) parts.push_back(&table.at(sp));
        CombineProduct(parts, &result);
      }
    }
    return result;
  }

  // The whole proof tree is accepted by B^Θ_Π iff for some disjunct θ every
  // join-forest root play, started unbound at the tree root, can be won by
  // Eve with all residual exits being variable checks that succeed at the
  // root (a variable exit (j, p) succeeds iff positions j and p of the root
  // head are equal; an atom exit at the root is a dead upward move).
  bool RootAccepts(const Summary& summary,
                   const std::vector<int>& pattern) const {
    for (std::size_t d = 0; d < disjuncts_.size(); ++d) {
      const AckDisjunct& dj = disjuncts_[d];
      bool all_roots = true;
      for (int root : dj.jt_roots) {
        PState entry;
        entry.d = static_cast<std::int16_t>(d);
        entry.atom = static_cast<std::int16_t>(root);
        auto it = summary.at.find(entry);
        bool some_set = false;
        if (it != summary.at.end()) {
          for (const ExitSet& s : it->second) {
            bool good = true;
            for (const PState& x : s) {
              if (x.atom >= 0) {
                good = false;  // atom play stuck at the root
                break;
              }
              if (pattern[x.m[0]] != pattern[x.j]) {
                good = false;  // distinguished variable at the wrong position
                break;
              }
            }
            if (good) {
              some_set = true;
              break;
            }
          }
        }
        if (!some_set) {
          all_roots = false;
          break;
        }
      }
      if (all_roots) return true;
    }
    return false;
  }

  const DatalogProgram& program_;
  const UnionQuery& ucq_;
  AckEngineStats* stats_;
  AckEngineLimits limits_;
  AckEngineStats run_;      // this run's deltas; flushed once by Run
  bool summarized_ = false; // post-fixpoint snapshot fields are valid

  std::vector<AckDisjunct> disjuncts_;
  KindSpace kinds_;
  std::vector<KindState> state_;
  std::set<std::string> processed_;
};

}  // namespace

Result<ContainmentAnswer> DatalogContainedInAcyclicUcq(
    const DatalogProgram& program, const UnionQuery& ucq,
    AckEngineStats* stats, const AckEngineLimits& limits) {
  QCONT_RETURN_IF_ERROR(program.Validate());
  QCONT_RETURN_IF_ERROR(ucq.Validate());
  QCONT_RETURN_IF_ERROR(
      analysis::FirstError(analysis::CheckContainmentPair(program, ucq)));
  AckEngine engine(program, ucq, stats, limits);
  return engine.Run();
}

}  // namespace qcont
