#ifndef QCONT_DATALOG_BLOCK_JOIN_H_
#define QCONT_DATALOG_BLOCK_JOIN_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "cq/database.h"
#include "cq/homomorphism.h"
#include "datalog/program.h"

namespace qcont {

/// Compiled block-at-a-time delta join for one (rule, delta position) pair
/// (DESIGN.md §16): the join every semi-naive round after round 0 runs.
/// The plan fixes the atom order once at compile time (delta atom first,
/// then greedily by bound positions) and joins a whole block of delta rows
/// per step: the frontier of partial bindings is a flat ValueId array,
/// each step gathers every frontier row's probe key and resolves them with
/// ONE ProbeMany call per atom per block, so the staged probe pipeline
/// (hash → Bloom filter → prefetch → tag-filtered resolve) amortizes over
/// the block instead of running one cold probe per binding.
///
/// Every rule of a validated program compiles: atoms of any arity (bound
/// positions past the 32-bit probe mask are checked after the probe, like
/// the hom search does), arity-0 delta atoms and heads, repeated and
/// disconnected variables. The plan enumerates the homomorphisms with the
/// delta atom mapped into the delta rows (each once; emission order
/// differs from the hom search, which semi-naive rounds absorb because
/// derived facts are deduplicated sets). Execution is deterministic:
/// output order depends only on delta row order and postings order, never
/// on thread count.
class BlockJoinPlan {
 public:
  /// Compiles a plan for `rule` with the atom at `delta_position` matched
  /// against the delta rows. `body_rels` are the pre-interned relation ids
  /// of the body atoms. The rule must be valid (DatalogProgram::Validate):
  /// constant-free, with every head variable bound in the body.
  static BlockJoinPlan Compile(const Rule& rule,
                               std::span<const RelationId> body_rels,
                               int delta_position);

  /// Joins the delta rows [begin, end) of the delta atom's relation in
  /// `all` (the tail a round barrier appended) through the plan as one
  /// block, appending each match's head row to `out_rows` (stride = head
  /// arity) and bumping `*num_rows` per match. Probe traffic lands in
  /// `stats` (index_probes/index_candidates for the ProbeMany steps,
  /// scan_candidates for the delta rows, atom_attempts per candidate).
  /// Reads `all` only, so concurrent calls against a frozen `all` are
  /// safe.
  void Execute(const Database& all, std::size_t begin, std::size_t end,
               std::vector<ValueId>* out_rows, std::size_t* num_rows,
               HomSearchStats* stats) const;

 private:
  // Position handled outside the probe key: the first occurrence of a
  // variable binds its frontier slot; a repeat, or a bound position the
  // 32-bit probe mask cannot hold, checks against the slot.
  struct PositionAction {
    std::uint32_t pos = 0;
    int var_slot = -1;
    bool bind = false;  // false: equality check against var_slot
  };
  struct AtomStep {
    RelationId rel = kNoRelation;
    std::uint32_t arity = 0;
    std::uint32_t mask = 0;        // bound positions below 32
    std::vector<int> key_slots;    // frontier slot per masked position
    std::vector<PositionAction> actions;
  };

  std::size_t num_vars_ = 0;
  RelationId delta_rel_ = kNoRelation;
  std::uint32_t delta_arity_ = 0;
  std::vector<PositionAction> delta_actions_;
  std::vector<AtomStep> steps_;    // non-delta atoms in join order
  std::vector<int> head_slots_;    // frontier slot per head position
};

}  // namespace qcont

#endif  // QCONT_DATALOG_BLOCK_JOIN_H_
