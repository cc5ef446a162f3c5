// The SUMMA family — SUMMA (van de Geijn & Watts, 1997), HSUMMA (the
// paper's Algorithm 1), multilevel HSUMMA and their block-cyclic variants —
// as one per-rank step schedule.
//
// C = A*B over an s x t grid advances in rank-b updates. Each step
// broadcasts the pivot column panel of A along grid rows and the pivot row
// panel of B along grid columns, then multiplies them into C. The variants
// differ only in how a panel broadcast is staged:
//
//   SUMMA      — one flat broadcast per panel over the grid row/column;
//   HSUMMA     — the s x t grid splits into I x J groups. An *outer-panel
//                stage* first moves the outer block (size B) among the
//                group representatives (level 0 of the chain {J}/{I}); then
//                k/B * B/b *step stages* broadcast inner blocks (size b)
//                inside every group (level 1). G = 1 and G = p degenerate to
//                SUMMA exactly;
//   Multilevel — every broadcast runs the hier_bcast decomposition of a
//                factor chain of any depth L (L + 1 step stages, all at
//                block b); factor-1 levels and size-1 blocks are dropped.
//
// The distribution of A's columns and B's rows along k supplies each step's
// root and local offset: block-checkerboard (one owner per k/t columns, the
// paper's layout) or block-cyclic with the panel width as distribution
// block (the owner rotates every panel — the paper's future work). Each
// rank builds its level communicators once (core/hier_bcast.hpp).
//
// Two consumers read the schedule: a blocking loop for look-ahead D = 0
// (the production path: it allocates nothing per step) and a task-plan
// lowering for D >= 1 (core/task_plan.hpp: D+1 step slots, max(1, D) outer
// slots, blocking across big steps at D <= 1). The plan can also run at
// D = 0, where it replays the loop bit for bit; it is not the D = 0 path
// because it materializes every step's tasks up front (see task_plan.hpp).
// Both walk the schedule one big step at a time: each rank tracks the panel
// owners incrementally and re-derives its stages only when an owner
// changes.
#pragma once

#include <optional>
#include <vector>

#include "core/spec.hpp"
#include "desim/task.hpp"
#include "mpc/comm.hpp"
#include "trace/phase.hpp"
#include "trace/recorder.hpp"

namespace hs::core {

/// How each pivot panel broadcast is staged (see the file comment).
enum class SummaVariant { Summa, Hsumma, Multilevel };

struct SummaFamilyArgs {
  mpc::Comm comm;               // the grid communicator (size == s*t)
  grid::GridShape shape;        // s x t
  ProblemSpec problem;          // block = b; outer_block = B (HSUMMA only)
  SummaVariant variant = SummaVariant::Summa;
  /// Factor chains along grid rows (A's broadcast) and columns (B's),
  /// outermost first. Summa: empty. Hsumma: {J} and {I} for I x J groups.
  /// Multilevel: any chain (entries of 1 keep their level slot).
  std::vector<int> row_levels;
  std::vector<int> col_levels;
  /// Block-cyclic distribution with the panel width as distribution block
  /// (b, or B for HSUMMA) instead of block-checkerboard.
  bool cyclic = false;
  LocalBlocks* local = nullptr;        // nullptr in Phantom mode
  trace::RankStats* stats = nullptr;   // required: the rank's sink
  std::optional<net::BcastAlgo> bcast_algo;  // default: machine config
  /// Look-ahead depth D: 0 runs the blocking loop; D >= 1 the task plan.
  /// comm_time then counts only the *exposed* (non-hidden) communication.
  int lookahead = 0;
  /// Optional structured trace sink: step marks (Phase::Outer per big step
  /// and Phase::Inner per inner step for HSUMMA, Phase::Flat otherwise),
  /// compute spans, and the chain level of multilevel broadcasts.
  trace::RankTracer tracer;
};

/// The per-rank program: the blocking loop at lookahead 0, else the plan.
/// Preconditions are checked, and the rank's level communicators built,
/// when the program is created. Block distribution: s | m, t | n,
/// (t*b) | k and (s*b) | k (every pivot panel lies within one grid
/// row/column), plus for HSUMMA b | B, (t*B) | k, (s*B) | k and I | s,
/// J | t. Block-cyclic needs only positive dimensions, b | B and B | k.
desim::Task<void> summa_family_rank(SummaFamilyArgs args);

/// The task-plan consumer at any depth, D = 0 included (inline execution in
/// program order) — what the tests use to prove the consumers agree.
desim::Task<void> summa_family_plan(SummaFamilyArgs args);

/// Divisibility checks of the block distribution; throw PreconditionError
/// with a precise message on violation.
void check_summa_divisibility(grid::GridShape shape, const ProblemSpec& p);
void check_hsumma_divisibility(grid::GridShape shape, grid::GridShape groups,
                               const ProblemSpec& p);

}  // namespace hs::core
