// Task-plan lowerings: a kernel's per-rank program expressed as a
// desim::TaskGraph instead of a hand-written loop.
//
// The plan is the kernel's step structure made explicit: every broadcast /
// rotation / panel solve / local update becomes a task with declared in/out
// regions (buffer slots, column strips), and desim::run_task_graph schedules
// them. The look-ahead depth D controls the *plan*, not the scheduler:
//
//   D = 0  — one buffer slot per panel; the graph is executed inline in
//            program order, reproducing the blocking loop bit-identically
//            (locked by tests/core/test_taskplan_goldens.cpp).
//   D = 1  — two slots plus pipeline-coupling edges that pin the fork
//            points to the instants of the old hand-rolled double-buffered
//            pipelines, reproducing them bit-identically (same golden file).
//   D >= 2 — D+1 slots and no coupling edges: the scheduler is free to run
//            communication as far ahead as the slot ring's write-after-read
//            edges allow. HSUMMA prefetches up to D outer panels across
//            big-step boundaries, Cannon overlaps rotations with multiplies,
//            and LU factors panel k+1 while trailing update k streams (the
//            update is split into the next pivot column strip, which
//            unblocks the factor, and the remainder).
//
// The SUMMA family (SUMMA, HSUMMA, multilevel HSUMMA and the block-cyclic
// variants) is one step schedule with two consumers, both in
// core/summa_family.cpp: a blocking loop for D = 0 and a task-plan lowering
// for D >= 1. The blocking consumer stays because a plan materializes every
// step's task records per rank up front: at fig8's point (p = 4096,
// n = 65536, b = 256, closed form) the D = 0 plan gave the same virtual
// time, messages and events as the loop but took 5.5 s CPU / 1,380 MB for
// SUMMA and 6.5 s / 1,606 MB for HSUMMA (G = 64), against 0.39 s / 15.5 MB
// and 0.73 s / 18.3 MB. The lowerings here (Cannon, LU) keep their own
// blocking loops for the same reason; *_task_plan with lookahead 0 exists
// so tests can drive the inline scheduler directly.
#pragma once

#include "core/cannon.hpp"
#include "core/lu.hpp"
#include "desim/taskgraph.hpp"

namespace hs::core {

/// Phase encoding used in TaskSpec::phase / TaskStepMark::phase.
inline constexpr int kPhaseFlat = 0;
inline constexpr int kPhaseOuter = 1;
inline constexpr int kPhaseInner = 2;
/// Multi-level chains: phase = kPhaseLevelBase + chain level of the
/// broadcast stage (level 0 = outermost). Observers accrue these into
/// RankStats::level_comm_time, and fold level 0 into the outer phase /
/// deeper levels into the inner phase so the legacy 2-way split stays
/// meaningful at any depth.
inline constexpr int kPhaseLevelBase = 3;

/// TaskObserver wired to the kernels' stats/trace conventions: exposed
/// communication (task_waited) accrues comm_time plus the outer/inner split
/// by task phase, finished computes accrue comp_time, step marks replay
/// through the RankTracer at issue points, and every task lands in the
/// recorder as a trace::TaskSpan. Reads the clock only — attaching a
/// recorder never perturbs virtual time.
class PlanObserver final : public desim::TaskObserver {
 public:
  PlanObserver(desim::Engine& engine, trace::RankStats& stats,
               trace::RankTracer tracer)
      : engine_(engine), stats_(stats), tracer_(tracer) {}

  void task_issued(const desim::TaskGraph& graph, int id) override;
  void task_finished(const desim::TaskGraph& graph, int id, desim::SimTime t0,
                     desim::SimTime t1) override;
  void task_waited(const desim::TaskGraph& graph, int id, desim::SimTime t0,
                   desim::SimTime t1) override;

  /// Accrue any pending fused wait interval (see TaskSpec::wait_group).
  /// Must be called once after run_task_graph returns.
  void flush();

 private:
  desim::Engine& engine_;
  trace::RankStats& stats_;
  trace::RankTracer tracer_;
  // Pending fused wait interval (contiguous joins of one wait_group).
  int pending_group_ = -1;
  int pending_phase_ = kPhaseFlat;
  double pending_start_ = 0.0;
  double pending_end_ = 0.0;
};

/// Charges `seconds` of communication in `phase` to `stats`: comm_time
/// always; kPhaseOuter/kPhaseInner to the outer/inner split; chain levels
/// to level_comm_time plus that split (level 0 outer, deeper inner). The
/// one attribution rule shared by PlanObserver and the blocking loops.
inline void charge_comm(trace::RankStats& stats, int phase, double seconds) {
  stats.comm_time += seconds;
  if (phase == kPhaseOuter) {
    stats.outer_comm_time += seconds;
  } else if (phase == kPhaseInner) {
    stats.inner_comm_time += seconds;
  } else if (phase >= kPhaseLevelBase) {
    const auto level = static_cast<std::size_t>(phase - kPhaseLevelBase);
    if (stats.level_comm_time.size() <= level)
      stats.level_comm_time.resize(level + 1);
    stats.level_comm_time[level] += seconds;
    if (level == 0)
      stats.outer_comm_time += seconds;
    else
      stats.inner_comm_time += seconds;
  }
}

/// One Machine::compute charge wrapped in the kernels' usual trace span.
desim::Task<void> compute_charge(mpc::Machine& machine, int self, double flops,
                                 trace::RankTracer tracer);

/// The per-rank task-plan programs. args.lookahead selects the plan depth
/// as described above; cannon_rank and lu_rank delegate here whenever
/// args.lookahead >= 1.
desim::Task<void> cannon_task_plan(CannonArgs args);
desim::Task<void> lu_task_plan(LuArgs args);

}  // namespace hs::core
