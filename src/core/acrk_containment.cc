#include "core/acrk_containment.h"

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
#include "structure/join_tree.h"

namespace qcont {

namespace {

using internal::InstIdbAtom;
using internal::InstRule;
using internal::KindSpace;

// ---------------------------------------------------------------------------
// Disjunct preprocessing: the variable forest Gγ with oriented multiedges.
// ---------------------------------------------------------------------------

struct GEdge {
  int x = -1;  // parent-side variable
  int y = -1;  // child-side variable (== x for loops)
  bool is_loop = false;
  std::vector<Nfa> nfas;  // normalized to walk from x to y
};

struct GammaInfo {
  int num_vars = 0;
  std::vector<GEdge> edges;
  std::vector<std::vector<int>> out_edges;  // per var: edges with x == var
  std::vector<int> roots;                   // one variable per component
  std::vector<std::pair<int, int>> free_occurrences;  // (head position, var)
};

Result<GammaInfo> BuildGammaInfo(const C2rpq& gamma) {
  GammaInfo info;
  std::unordered_map<std::string, int> var_index;
  auto var_id = [&](const std::string& name) {
    auto [it, inserted] = var_index.emplace(name, info.num_vars);
    if (inserted) ++info.num_vars;
    return it->second;
  };
  struct PairAtoms {
    std::vector<int> atom_ids;
  };
  std::map<std::pair<int, int>, PairAtoms> pairs;  // (min,max) var -> atoms
  std::vector<std::vector<int>> loops_of;          // var -> loop atom ids
  for (std::size_t i = 0; i < gamma.atoms().size(); ++i) {
    int x = var_id(gamma.atoms()[i].x.name());
    int y = var_id(gamma.atoms()[i].y.name());
    if (x == y) {
      if (loops_of.size() <= static_cast<std::size_t>(x)) {
        loops_of.resize(info.num_vars);
      }
      loops_of[x].push_back(static_cast<int>(i));
    } else {
      pairs[{std::min(x, y), std::max(x, y)}].atom_ids.push_back(
          static_cast<int>(i));
    }
  }
  loops_of.resize(info.num_vars);
  // Orient the variable forest by BFS from the smallest variable of each
  // component.
  std::vector<std::vector<std::pair<int, const PairAtoms*>>> adj(info.num_vars);
  for (const auto& [key, atoms] : pairs) {
    adj[key.first].emplace_back(key.second, &atoms);
    adj[key.second].emplace_back(key.first, &atoms);
  }
  info.out_edges.resize(info.num_vars);
  std::vector<int> seen(info.num_vars, 0);
  for (int r = 0; r < info.num_vars; ++r) {
    if (seen[r]) continue;
    info.roots.push_back(r);
    std::vector<int> stack = {r};
    seen[r] = 1;
    while (!stack.empty()) {
      int x = stack.back();
      stack.pop_back();
      // Loop atoms of x become loop edges attached to x.
      for (int atom_id : loops_of[x]) {
        GEdge e;
        e.x = x;
        e.y = x;
        e.is_loop = true;
        e.nfas.push_back(gamma.atoms()[atom_id].nfa);
        info.out_edges[x].push_back(static_cast<int>(info.edges.size()));
        info.edges.push_back(std::move(e));
      }
      for (const auto& [y, pair_atoms] : adj[x]) {
        if (seen[y]) continue;  // tree edge already oriented from elsewhere
        seen[y] = 1;
        GEdge e;
        e.x = x;
        e.y = y;
        for (int atom_id : pair_atoms->atom_ids) {
          const RpqAtom& atom = gamma.atoms()[atom_id];
          if (var_index.at(atom.x.name()) == x) {
            e.nfas.push_back(atom.nfa);
          } else {
            e.nfas.push_back(atom.nfa.ReversedInverse());
          }
        }
        info.out_edges[x].push_back(static_cast<int>(info.edges.size()));
        info.edges.push_back(std::move(e));
        stack.push_back(y);
      }
    }
  }
  for (std::size_t j = 0; j < gamma.head().size(); ++j) {
    info.free_occurrences.emplace_back(static_cast<int>(j),
                                       var_id(gamma.head()[j].name()));
  }
  return info;
}

// ---------------------------------------------------------------------------
// Game states (position form P and rule-variable form W).
// ---------------------------------------------------------------------------

enum StateTag : std::int8_t {
  kMultiedge = 0,  // id = edge; s = NFA states; m = per-walk bindings
                   // (+ the fixed convergence target for loop edges)
  kSeek = 1,       // id = component root variable; no bindings
  kVarCheck = 2,   // id = head position j; m = {binding}
  kVarNode = 3,    // id = query variable; m = {binding}; internal only
};

struct PState {
  std::int8_t tag = kMultiedge;
  std::int16_t g = 0;
  std::int16_t id = 0;
  std::vector<std::int16_t> s;
  std::vector<std::int8_t> m;

  friend bool operator<(const PState& a, const PState& b) {
    if (a.tag != b.tag) return a.tag < b.tag;
    if (a.g != b.g) return a.g < b.g;
    if (a.id != b.id) return a.id < b.id;
    if (a.s != b.s) return a.s < b.s;
    return a.m < b.m;
  }
  friend bool operator==(const PState& a, const PState& b) {
    return a.tag == b.tag && a.g == b.g && a.id == b.id && a.s == b.s &&
           a.m == b.m;
  }
};

using ExitSet = std::vector<PState>;
using Antichain = std::vector<ExitSet>;

bool IsSubsetOf(const ExitSet& a, const ExitSet& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

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

struct Summary {
  std::map<PState, Antichain> at;

  std::string Canonical() const {
    std::string out;
    auto put_state = [&out](const PState& st) {
      out += std::to_string(st.tag) + "." + std::to_string(st.g) + "." +
             std::to_string(st.id) + ".";
      for (std::int16_t x : st.s) out += std::to_string(x) + "_";
      for (std::int8_t x : st.m) out += static_cast<char>('A' + (x + 1));
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

struct WState {
  std::int8_t tag = kMultiedge;
  std::int16_t g = 0;
  std::int16_t id = 0;
  std::vector<std::int16_t> s;
  std::vector<int> m;

  friend bool operator<(const WState& a, const WState& b) {
    if (a.tag != b.tag) return a.tag < b.tag;
    if (a.g != b.g) return a.g < b.g;
    if (a.id != b.id) return a.id < b.id;
    if (a.s != b.s) return a.s < b.s;
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

class AcrkEngine {
 public:
  AcrkEngine(const DatalogProgram& program, const UC2rpq& gamma,
             AcrkEngineStats* stats, const AcrkEngineLimits& limits)
      : program_(program),
        gamma_(gamma),
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
    ObsSpan run_span(limits_.obs, "acrk/run", "core");
    QCONT_ASSIGN_OR_RETURN(bool acyclic, IsAcyclicUC2rpq(gamma_));
    if (!acyclic) {
      return FailedPreconditionError(
          "the ACRk engine requires an acyclic UC2RPQ");
    }
    // Matches the legacy behaviour of only computing the level when someone
    // will read it (AcrkLevel can itself fail).
    if (stats_ != nullptr || ObsMetrics(limits_.obs) != nullptr) {
      QCONT_ASSIGN_OR_RETURN(int level, AcrkLevel(gamma_));
      run_.acrk_level = level;
      level_set_ = true;
    }
    for (const C2rpq& g : gamma_.disjuncts()) {
      QCONT_ASSIGN_OR_RETURN(GammaInfo info, BuildGammaInfo(g));
      gammas_.push_back(std::move(info));
    }
    std::vector<int> root_kinds = kinds_.RootKinds();
    state_.resize(kinds_.NumKinds());
    QCONT_RETURN_IF_ERROR(Fixpoint());
    run_.kinds = kinds_.NumKinds();
    for (const KindState& k : state_) {
      run_.summaries += k.summaries.size();
      for (const Summary& s : k.summaries) {
        for (const auto& [entry, ac] : s.at) run_.antichain_sets += ac.size();
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

  // Reproduces the legacy sink's mixed semantics (see AcrkEngineStats) and
  // publishes the same run-local values to the registry.
  void Flush() {
    if (MetricRegistry* metrics = ObsMetrics(limits_.obs)) {
      metrics->Add("acrk.combos", run_.combos);
      metrics->Add("acrk.game_states", run_.game_states);
      if (level_set_) {
        metrics->SetGauge("acrk.level",
                          static_cast<std::uint64_t>(run_.acrk_level));
      }
      if (summarized_) {
        metrics->Add("acrk.summaries", run_.summaries);
        metrics->Add("acrk.antichain_sets", run_.antichain_sets);
        metrics->SetGauge("acrk.kinds", run_.kinds);
      }
    }
    if (stats_ == nullptr) return;
    stats_->combos += run_.combos;
    stats_->game_states += run_.game_states;
    if (level_set_) stats_->acrk_level = run_.acrk_level;
    if (summarized_) {
      stats_->kinds = run_.kinds;
      stats_->summaries += run_.summaries;
      stats_->antichain_sets += run_.antichain_sets;
    }
  }

  Status Fixpoint() {
    std::uint64_t total = 0;
    std::uint64_t round = 0;
    bool changed = true;
    while (changed) {
      changed = false;
      ObsSpan round_span(limits_.obs, "acrk/round", "core");
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
                    "ACRk-engine combination budget exceeded");
              }
              Summary summary = ComputeSummary(rule, combo);
              std::string canon = summary.Canonical();
              if (state_[k].canon.insert(canon).second) {
                state_[k].summaries.push_back(std::move(summary));
                Provenance prov;
                prov.rule_pos = static_cast<int>(rp);
                prov.child_summaries = combo;
                state_[k].provenance.push_back(std::move(prov));
                if (++total > limits_.max_summaries) {
                  return ResourceExhaustedError(
                      "ACRk-engine summary budget exceeded");
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

  Summary ComputeSummary(const InstRule& rule, const std::vector<int>& combo) {
    std::map<WState, Antichain> table;
    std::vector<WState> order;
    auto discover = [&](const WState& s) {
      if (table.emplace(s, Antichain{}).second) {
        order.push_back(s);
        ++run_.game_states;
      }
    };
    std::vector<PState> entries = EntrySpace(rule);
    for (const PState& e : entries) discover(ToW(e, rule.head));
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t i = 0; i < order.size(); ++i) {
        WState s = order[i];
        Antichain fresh = EvalState(s, rule, combo, table, discover);
        std::sort(fresh.begin(), fresh.end());
        if (fresh != table.at(s)) {
          table[s] = std::move(fresh);
          changed = true;
        }
      }
    }
    Summary out;
    for (const PState& e : entries) out.at.emplace(e, table.at(ToW(e, rule.head)));
    return out;
  }

  // Entry states: seeks per component root, and multiedge states over every
  // per-walk NFA state and every binding of the walks to canonical head
  // positions.
  std::vector<PState> EntrySpace(const InstRule& rule) const {
    std::vector<PState> out;
    std::vector<std::int8_t> canonical;
    for (std::size_t p = 0; p < rule.head.size(); ++p) {
      bool first = true;
      for (std::size_t q = 0; q < p; ++q) {
        if (rule.head[q] == rule.head[p]) first = false;
      }
      if (first) canonical.push_back(static_cast<std::int8_t>(p));
    }
    for (std::size_t g = 0; g < gammas_.size(); ++g) {
      const GammaInfo& info = gammas_[g];
      for (int root : info.roots) {
        PState e;
        e.tag = kSeek;
        e.g = static_cast<std::int16_t>(g);
        e.id = static_cast<std::int16_t>(root);
        out.push_back(std::move(e));
      }
      for (std::size_t ei = 0; ei < info.edges.size(); ++ei) {
        const GEdge& edge = info.edges[ei];
        const std::size_t walks = edge.nfas.size();
        const std::size_t bindings = walks + (edge.is_loop ? 1 : 0);
        if (bindings > 0 && canonical.empty()) continue;
        std::vector<std::int16_t> s(walks, 0);
        std::vector<std::int8_t> m(bindings, 0);
        std::function<void(std::size_t)> rec_m = [&](std::size_t i) {
          if (i == bindings) {
            PState e;
            e.tag = kMultiedge;
            e.g = static_cast<std::int16_t>(g);
            e.id = static_cast<std::int16_t>(ei);
            e.s = s;
            e.m = m;
            out.push_back(std::move(e));
            return;
          }
          for (std::int8_t p : canonical) {
            m[i] = p;
            rec_m(i + 1);
          }
        };
        std::function<void(std::size_t)> rec_s = [&](std::size_t i) {
          if (i == walks) {
            rec_m(0);
            return;
          }
          for (int st = 0; st < edge.nfas[i].num_states(); ++st) {
            s[i] = static_cast<std::int16_t>(st);
            rec_s(i + 1);
          }
        };
        rec_s(0);
      }
    }
    return out;
  }

  WState ToW(const PState& p, const std::vector<int>& head) const {
    WState w;
    w.tag = p.tag;
    w.g = p.g;
    w.id = p.id;
    w.s = p.s;
    w.m.reserve(p.m.size());
    for (std::int8_t pos : p.m) w.m.push_back(head[pos]);
    return w;
  }

  static int HeadPosition(const std::vector<int>& head, int w) {
    for (std::size_t p = 0; p < head.size(); ++p) {
      if (head[p] == w) return static_cast<int>(p);
    }
    return -1;
  }

  // All rule-variable representatives occurring in the instance (targets
  // for seek states).
  static std::vector<int> RuleVars(const InstRule& rule) {
    std::set<int> vars(rule.head.begin(), rule.head.end());
    for (const auto& [pred, terms] : rule.edb_atoms) {
      vars.insert(terms.begin(), terms.end());
    }
    for (const InstIdbAtom& atom : rule.idb_atoms) {
      vars.insert(atom.terms.begin(), atom.terms.end());
    }
    return std::vector<int>(vars.begin(), vars.end());
  }

  Antichain EvalState(const WState& st, const InstRule& rule,
                      const std::vector<int>& combo,
                      std::map<WState, Antichain>& table,
                      const std::function<void(const WState&)>& discover) {
    Antichain result;
    const GammaInfo& info = gammas_[st.g];

    // Shared move options: exit upward / descend into a proof child.
    auto try_exit = [&]() {
      PState exit;
      exit.tag = st.tag;
      exit.g = st.g;
      exit.id = st.id;
      exit.s = st.s;
      for (int w : st.m) {
        int pos = HeadPosition(rule.head, w);
        if (pos < 0) return;
        exit.m.push_back(static_cast<std::int8_t>(pos));
      }
      AntichainInsert(&result, ExitSet{std::move(exit)});
    };
    auto try_descend = [&]() {
      for (std::size_t c = 0; c < rule.idb_atoms.size(); ++c) {
        const InstIdbAtom& child = rule.idb_atoms[c];
        PState entry;
        entry.tag = st.tag;
        entry.g = st.g;
        entry.id = st.id;
        entry.s = st.s;
        bool ok = true;
        for (int w : st.m) {
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
            continuations.push_back(ToW(x, child.terms));
          }
          std::vector<const Antichain*> parts;
          for (const WState& sp : continuations) discover(sp);
          for (const WState& sp : continuations) parts.push_back(&table.at(sp));
          CombineProduct(parts, &result);
        }
      }
    };

    switch (st.tag) {
      case kVarCheck: {
        int pos = HeadPosition(rule.head, st.m[0]);
        if (pos >= 0) {
          PState exit;
          exit.tag = kVarCheck;
          exit.g = st.g;
          exit.id = st.id;
          exit.m = {static_cast<std::int8_t>(pos)};
          AntichainInsert(&result, ExitSet{std::move(exit)});
        }
        return result;
      }
      case kVarNode: {
        // Conjunction of all outgoing edge bundles plus free-variable
        // checks; this state does not move.
        std::vector<WState> parts_states;
        int x = st.id;
        for (int ei : info.out_edges[x]) {
          const GEdge& edge = info.edges[ei];
          WState me;
          me.tag = kMultiedge;
          me.g = st.g;
          me.id = static_cast<std::int16_t>(ei);
          me.s.assign(edge.nfas.size(), 0);
          for (std::size_t i = 0; i < edge.nfas.size(); ++i) {
            me.s[i] = static_cast<std::int16_t>(edge.nfas[i].initial());
          }
          me.m.assign(edge.nfas.size() + (edge.is_loop ? 1 : 0), st.m[0]);
          parts_states.push_back(std::move(me));
        }
        for (auto [j, v] : info.free_occurrences) {
          if (v != x) continue;
          WState vc;
          vc.tag = kVarCheck;
          vc.g = st.g;
          vc.id = static_cast<std::int16_t>(j);
          vc.m = {st.m[0]};
          parts_states.push_back(std::move(vc));
        }
        std::vector<const Antichain*> parts;
        for (const WState& sp : parts_states) discover(sp);
        for (const WState& sp : parts_states) parts.push_back(&table.at(sp));
        CombineProduct(parts, &result);
        return result;
      }
      case kSeek: {
        // Guess the image of the component root among this instance's
        // variables, or keep looking elsewhere in the proof tree.
        for (int w : RuleVars(rule)) {
          WState vn;
          vn.tag = kVarNode;
          vn.g = st.g;
          vn.id = st.id;
          vn.m = {w};
          discover(vn);
          for (const ExitSet& s : table.at(vn)) {
            AntichainInsert(&result, s);
          }
        }
        try_exit();
        try_descend();
        return result;
      }
      case kMultiedge: {
        const GEdge& edge = info.edges[st.id];
        const std::size_t walks = edge.nfas.size();
        // Convergence: every walk effectively accepting on a common,
        // connected variable (for loops: the fixed target).
        bool converged = true;
        for (std::size_t i = 0; i < walks && converged; ++i) {
          if (!edge.nfas[i].IsEffectivelyAccepting(st.s[i])) converged = false;
          if (st.m[i] != st.m[0]) converged = false;
        }
        if (converged && edge.is_loop && st.m[0] != st.m[walks]) {
          converged = false;
        }
        if (converged) {
          if (edge.is_loop) {
            // The loop target was already processed; this bundle is done.
            AntichainInsert(&result, ExitSet{});
          } else {
            WState vn;
            vn.tag = kVarNode;
            vn.g = st.g;
            vn.id = static_cast<std::int16_t>(edge.y);
            vn.m = {st.m[0]};
            discover(vn);
            for (const ExitSet& s : table.at(vn)) AntichainInsert(&result, s);
          }
        }
        // Advance one walk over an extensional edge atom of this instance.
        for (std::size_t i = 0; i < walks; ++i) {
          for (const auto& [symbol, next] : edge.nfas[i].ClosedSteps(st.s[i])) {
            bool inverse = !symbol.empty() && symbol.back() == '-';
            std::string label =
                inverse ? symbol.substr(0, symbol.size() - 1) : symbol;
            for (const auto& [pred, terms] : rule.edb_atoms) {
              if (pred != label || terms.size() != 2) continue;
              int from = inverse ? terms[1] : terms[0];
              int to = inverse ? terms[0] : terms[1];
              if (st.m[i] != from) continue;
              WState ns = st;
              ns.s[i] = static_cast<std::int16_t>(next);
              ns.m[i] = to;
              discover(ns);
              for (const ExitSet& s : table.at(ns)) AntichainInsert(&result, s);
            }
          }
        }
        try_exit();
        try_descend();
        return result;
      }
    }
    return result;
  }

  bool RootAccepts(const Summary& summary,
                   const std::vector<int>& pattern) const {
    for (std::size_t g = 0; g < gammas_.size(); ++g) {
      const GammaInfo& info = gammas_[g];
      bool all_roots = true;
      for (int root : info.roots) {
        PState entry;
        entry.tag = kSeek;
        entry.g = static_cast<std::int16_t>(g);
        entry.id = static_cast<std::int16_t>(root);
        auto it = summary.at.find(entry);
        bool some_set = false;
        if (it != summary.at.end()) {
          for (const ExitSet& s : it->second) {
            bool good = true;
            for (const PState& x : s) {
              if (x.tag != kVarCheck || pattern[x.m[0]] != pattern[x.id]) {
                good = false;
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
  const UC2rpq& gamma_;
  AcrkEngineStats* stats_;
  AcrkEngineLimits limits_;
  AcrkEngineStats run_;      // this run's deltas; flushed once by Run
  bool summarized_ = false;  // post-fixpoint snapshot fields are valid
  bool level_set_ = false;   // run_.acrk_level was computed

  std::vector<GammaInfo> gammas_;
  KindSpace kinds_;
  std::vector<KindState> state_;
  std::set<std::string> processed_;
};

}  // namespace

Result<ContainmentAnswer> DatalogContainedInAcyclicUC2rpq(
    const DatalogProgram& program, const UC2rpq& gamma,
    AcrkEngineStats* stats, const AcrkEngineLimits& limits) {
  QCONT_RETURN_IF_ERROR(program.Validate());
  QCONT_RETURN_IF_ERROR(gamma.Validate());
  QCONT_RETURN_IF_ERROR(
      analysis::FirstError(analysis::CheckContainmentPair(program, gamma)));
  AcrkEngine engine(program, gamma, stats, limits);
  return engine.Run();
}

}  // namespace qcont
