#include "core/summa_family.hpp"

#include <algorithm>
#include <utility>

#include "common/small_vector.hpp"
#include "core/hier_bcast.hpp"
#include "core/panel.hpp"
#include "core/task_plan.hpp"
#include "grid/distribution.hpp"
#include "grid/process_grid.hpp"
#include "la/gemm.hpp"

namespace hs::core {

void check_summa_divisibility(grid::GridShape shape, const ProblemSpec& p) {
  const index_t b = p.block;
  HS_REQUIRE_MSG(p.m > 0 && p.n > 0 && p.k > 0 && b > 0,
                 "problem dimensions must be positive");
  HS_REQUIRE_MSG(p.m % shape.rows == 0,
                 "m=" << p.m << " not divisible by grid rows " << shape.rows);
  HS_REQUIRE_MSG(p.n % shape.cols == 0,
                 "n=" << p.n << " not divisible by grid cols " << shape.cols);
  HS_REQUIRE_MSG(p.k % (static_cast<index_t>(shape.cols) * b) == 0,
                 "k=" << p.k << " must be divisible by t*b = "
                      << shape.cols * b
                      << " so A pivot panels align to one grid column");
  HS_REQUIRE_MSG(p.k % (static_cast<index_t>(shape.rows) * b) == 0,
                 "k=" << p.k << " must be divisible by s*b = "
                      << shape.rows * b
                      << " so B pivot panels align to one grid row");
}

void check_hsumma_divisibility(grid::GridShape shape, grid::GridShape groups,
                               const ProblemSpec& p) {
  check_summa_divisibility(shape, p);
  const index_t outer = p.effective_outer_block();
  HS_REQUIRE_MSG(outer % p.block == 0,
                 "outer block B=" << outer
                                  << " must be a multiple of inner block b="
                                  << p.block);
  HS_REQUIRE_MSG(p.k % (static_cast<index_t>(shape.cols) * outer) == 0,
                 "k=" << p.k << " must be divisible by t*B = "
                      << shape.cols * outer);
  HS_REQUIRE_MSG(p.k % (static_cast<index_t>(shape.rows) * outer) == 0,
                 "k=" << p.k << " must be divisible by s*B = "
                      << shape.rows * outer);
  HS_REQUIRE_MSG(groups.rows >= 1 && shape.rows % groups.rows == 0 &&
                     groups.cols >= 1 && shape.cols % groups.cols == 0,
                 "group arrangement " << groups.rows << "x" << groups.cols
                                      << " must divide the process grid");
}

namespace {

// Axis 0 is A (pivot columns, broadcast along grid rows), axis 1 is B
// (pivot rows, broadcast along grid columns).
constexpr int kAxes = 2;

/// One broadcast stage of an axis's panels as the consumers issue it. Its
/// communicator is fixed for the run; its root and whether this rank joins
/// follow the panel owner.
struct PanelStage {
  ChainLevel level;
  int axis = 0;
  int phase = kPhaseFlat;  // stats/trace attribution (task_plan.hpp)
  int root = 0;            // on level.comm, for the current panel
  bool active = false;     // this rank joins it for the current panel
};

/// One rank's step schedule: `panels` big steps of `width` columns of k,
/// each split into `width / block` rank-b steps (only HSUMMA has a width
/// above b, its outer block B, and outer-panel stages: chain level 0).
/// advance() walks the big steps in order. It tracks each panel's owner and
/// local offset incrementally and, when an owner changes (every k/(t*B)
/// big steps in the block layout, every big step in the block-cyclic one),
/// re-roots that axis's stages in place: no division per step, no
/// communicator built after construction.
class Schedule {
 public:
  explicit Schedule(const SummaFamilyArgs& args);

  /// Moves to the next big step (the first call: big step 0).
  void advance() {
    for (int a = 0; a < kAxes; ++a) {
      Axis& axis = axes_[a];
      if (axis.root < 0) {
        axis.root = 0;
      } else if (cyclic_) {
        if (++axis.root == axis.procs) {
          axis.root = 0;
          axis.offset += axis.unit;
        }
      } else if ((axis.offset += width) == axis.unit) {
        axis.offset = 0;
        ++axis.root;
      } else {
        continue;  // same owner, same stages
      }
      reroot(a);
    }
  }

  /// Every stage of a big step, in issue order: the outer-panel stages of
  /// A then B (HSUMMA only), then the step stages of A then B; the rank
  /// issues the active ones. Four fit inline (every SUMMA, HSUMMA and
  /// depth-1 chain).
  const SmallVector<PanelStage, 4>& stages() const noexcept {
    return stages_;
  }
  /// How many leading stages move HSUMMA's outer panels.
  std::size_t outer_stages() const noexcept { return outer_stages_; }
  /// This rank owns the current panel of `axis` in its local matrix...
  bool owner(int axis) const { return axes_[axis].root == axes_[axis].me; }
  /// ... at this local column (A) / row (B).
  index_t offset(int axis) const { return axes_[axis].offset; }
  /// HSUMMA: this rank joins the outer stage of `axis`, so it holds the
  /// outer panel its group's step stages slice from.
  bool holds_outer(int axis) const { return axes_[axis].holds_outer; }

  /// Stats/trace phase of the rank-b steps' marks and updates.
  int mark_phase() const { return hsumma ? kPhaseInner : kPhaseFlat; }

  bool hsumma = false;
  bool split = false;  // a real multilevel chain: per-level accounting
  index_t block = 0;
  index_t width = 0;
  index_t panels = 0;
  index_t steps_per_panel = 0;
  index_t local_m = 0;
  index_t local_n = 0;

 private:
  /// One grid dimension: where k-positions live, and the current panel.
  struct Axis {
    index_t unit = 1;    // block: k / procs per owner; cyclic: dist. block
    index_t offset = 0;  // the current panel's offset in its owner's slice
    int procs = 1;
    int me = 0;          // my grid column (A) / row (B)
    int root = -1;       // the current panel's owner
    bool holds_outer = false;
  };

  /// Re-derives axis `a`'s stage roots and activity from its owner.
  void reroot(int a) {
    int root = axes_[a].root;
    axes_[a].holds_outer = false;
    for (std::size_t i = 0; i < stages_.size(); ++i) {
      PanelStage& stage = stages_[i];
      if (stage.axis != a) continue;  // an axis's stages are in level order
      stage.active = stage.level.joins(root, stage.root);
      if (i < outer_stages_) axes_[a].holds_outer = stage.active;
    }
  }

  bool cyclic_ = false;
  Axis axes_[kAxes];
  SmallVector<PanelStage, 4> stages_;
  std::size_t outer_stages_ = 0;
};

Schedule::Schedule(const SummaFamilyArgs& args) {
  HS_REQUIRE_MSG(args.stats != nullptr, "the SUMMA family needs a stats sink");
  const ProblemSpec& prob = args.problem;
  hsumma = args.variant == SummaVariant::Hsumma;
  split = args.variant == SummaVariant::Multilevel &&
          (!args.row_levels.empty() || !args.col_levels.empty());
  cyclic_ = args.cyclic;
  block = prob.block;
  width = hsumma ? prob.effective_outer_block() : block;
  if (hsumma)
    HS_REQUIRE_MSG(args.row_levels.size() == 1 && args.col_levels.size() == 1,
                   "HSUMMA takes one group factor per grid dimension");
  if (cyclic_) {
    HS_REQUIRE_MSG(prob.m > 0 && prob.n > 0 && prob.k > 0 && block > 0,
                   "problem dimensions must be positive");
    HS_REQUIRE_MSG(width % block == 0,
                   "outer block B=" << width
                                    << " must be a multiple of inner block b="
                                    << block);
    HS_REQUIRE_MSG(prob.k % width == 0,
                   "k=" << prob.k << " must be a multiple of the distribution "
                        << "block " << width);
  } else if (hsumma) {
    check_hsumma_divisibility(
        args.shape, {args.col_levels.front(), args.row_levels.front()}, prob);
  } else {
    check_summa_divisibility(args.shape, prob);
  }
  panels = prob.k / width;
  steps_per_panel = width / block;

  const grid::ProcessGrid pg(args.comm, args.shape);
  const bool keep_trivial = args.variant != SummaVariant::Multilevel;
  const BcastChain chains[kAxes] = {
      BcastChain(pg.row_comm(), args.row_levels, keep_trivial),
      BcastChain(pg.col_comm(), args.col_levels, keep_trivial)};
  // HSUMMA's chain level 0 moves the outer panels. Two passes keep the
  // issue order: every outer stage before any step stage, A before B.
  const int outer_levels = hsumma ? 1 : 0;
  for (const bool outer_pass : {true, false}) {
    for (int a = 0; a < kAxes; ++a) {
      const SmallVector<ChainLevel, 2>& levels = chains[a].levels();
      for (std::size_t i = 0; i < levels.size(); ++i) {
        const ChainLevel& level = levels[i];
        const bool outer = level.level < outer_levels;
        if (outer != outer_pass) continue;
        int phase = kPhaseOuter;
        if (!outer)
          phase = hsumma  ? kPhaseInner
                  : split ? kPhaseLevelBase + level.level
                          : kPhaseFlat;
        stages_.push_back({level, a, phase});
      }
    }
    if (outer_pass) outer_stages_ = stages_.size();
  }

  axes_[0].procs = pg.cols();
  axes_[1].procs = pg.rows();
  axes_[0].me = pg.my_col();
  axes_[1].me = pg.my_row();
  if (cyclic_) {
    axes_[0].unit = axes_[1].unit = width;
    local_m = grid::BlockCyclicDistribution(prob.m, prob.k, width, width,
                                            pg.rows(), pg.cols())
                  .local_rows(pg.my_row());
    local_n = grid::BlockCyclicDistribution(prob.m, prob.n, width, width,
                                            pg.rows(), pg.cols())
                  .local_cols(pg.my_col());
  } else {
    axes_[0].unit = prob.k / pg.cols();
    axes_[1].unit = prob.k / pg.rows();
    local_m = prob.m / pg.rows();
    local_n = prob.n / pg.cols();
  }
}

/// Real mode: copy the panel that starts `offset` along k in `from` — a
/// column offset for A (axis 0), a row offset for B — into `panel`.
void copy_panel(int axis, la::ConstMatrixView from, index_t offset,
                PanelBuffer& panel) {
  panel.view().copy_from(
      axis == 0 ? from.block(0, offset, panel.rows(), panel.cols())
                : from.block(offset, 0, panel.rows(), panel.cols()));
}

la::ConstMatrixView local_matrix(const LocalBlocks& local, int axis) {
  return axis == 0 ? local.a.view() : local.b.view();
}

/// Static trace labels (TaskSpec::label must outlive the graph).
const char* stage_label(const PanelStage& ps, bool split) {
  static constexpr const char* kOuter[kAxes] = {"outer bcast A",
                                                "outer bcast B"};
  static constexpr const char* kFlat[kAxes] = {"bcast A", "bcast B"};
  static constexpr const char* kLevels[kAxes][8] = {
      {"bcast A L0", "bcast A L1", "bcast A L2", "bcast A L3", "bcast A L4",
       "bcast A L5", "bcast A L6", "bcast A L7+"},
      {"bcast B L0", "bcast B L1", "bcast B L2", "bcast B L3", "bcast B L4",
       "bcast B L5", "bcast B L6", "bcast B L7+"}};
  if (ps.phase == kPhaseOuter) return kOuter[ps.axis];
  return split ? kLevels[ps.axis][std::min(ps.level.level, 7)]
               : kFlat[ps.axis];
}

// ---------------------------------------------------------------------------
// The blocking consumer (D = 0)
// ---------------------------------------------------------------------------

/// What the blocking loop reads, built before it starts: its coroutine
/// frame then holds this and the loop's own locals, nothing else. A rank's
/// frame is resumed once per broadcast, so its size is host time.
struct BlockingRank {
  mpc::Machine* machine;
  int self;
  LocalBlocks* local;
  trace::RankStats* stats;
  std::optional<net::BcastAlgo> bcast_algo;
  trace::RankTracer tracer;
  Schedule sched;
};

desim::Task<void> blocking_loop(BlockingRank rank) {
  Schedule& sched = rank.sched;
  desim::Engine& engine = rank.machine->engine();
  trace::RankStats& stats = *rank.stats;
  const bool real = rank.local != nullptr;
  const PayloadMode mode = real ? PayloadMode::Real : PayloadMode::Phantom;
  // HSUMMA's outer panels (empty for the other variants), then the step
  // panels every variant multiplies.
  const index_t outer_width = sched.hsumma ? sched.width : 0;
  PanelBuffer outer[kAxes] = {PanelBuffer(sched.local_m, outer_width, mode),
                              PanelBuffer(outer_width, sched.local_n, mode)};
  PanelBuffer panel[kAxes] = {PanelBuffer(sched.local_m, sched.block, mode),
                              PanelBuffer(sched.block, sched.local_n, mode)};
  const double flops = la::gemm_flops(sched.local_m, sched.local_n,
                                      sched.block);
  const SmallVector<PanelStage, 4>& stages = sched.stages();

  // A big step is HSUMMA's outer phase (w = -1: the outer-panel stages)
  // followed by its rank-b steps, each its step stages plus one update.
  for (index_t s = 0; s < sched.panels; ++s) {
    sched.advance();
    for (index_t w = sched.hsumma ? -1 : 0; w < sched.steps_per_panel; ++w) {
      const bool outer_phase = w < 0;
      PanelBuffer* const buffers = outer_phase ? outer : panel;
      if (outer_phase)
        rank.tracer.begin_step(engine, s, trace::Phase::Outer);
      else
        rank.tracer.begin_step(engine, s * sched.steps_per_panel + w,
                               sched.hsumma ? trace::Phase::Inner
                                            : trace::Phase::Flat);
      // Real mode: stage each panel on the ranks holding it. Owners read
      // their local matrix; HSUMMA's steps slice the outer panel.
      const bool slice = sched.hsumma && !outer_phase;
      for (int axis = 0; real && axis < kAxes; ++axis) {
        if (slice && sched.holds_outer(axis))
          copy_panel(axis, outer[axis].view(), w * sched.block, panel[axis]);
        else if (!slice && sched.owner(axis))
          copy_panel(axis, local_matrix(*rank.local, axis),
                     sched.offset(axis), buffers[axis]);
      }
      const std::size_t outer_stages = sched.outer_stages();
      const std::size_t first = outer_phase ? 0 : outer_stages;
      const std::size_t last = outer_phase ? outer_stages : stages.size();
      for (std::size_t i = first; i < last; ++i) {
        const PanelStage& ps = stages[i];
        if (!ps.active) continue;
        const double t0 = engine.now();
        if (ps.phase >= kPhaseLevelBase) rank.tracer.set_level(ps.level.level);
        co_await mpc::bcast(ps.level.comm, ps.root, buffers[ps.axis].buf(),
                            rank.bcast_algo);
        if (ps.phase >= kPhaseLevelBase) rank.tracer.set_level(-1);
        charge_comm(stats, ps.phase, engine.now() - t0);
      }
      if (outer_phase) continue;
      {
        trace::PhaseTimer timer(stats.comp_time, engine);
        trace::ComputeSpanGuard span(rank.tracer, engine, flops);
        co_await rank.machine->compute(rank.self, flops);
      }
      if (real)
        la::gemm(panel[0].view(), panel[1].view(), rank.local->c.view());
      stats.flops += static_cast<std::uint64_t>(flops);
    }
  }
}

}  // namespace

desim::Task<void> summa_family_rank(SummaFamilyArgs args) {
  if (args.lookahead > 0) return summa_family_plan(std::move(args));
  mpc::Machine& machine = args.comm.machine();
  return blocking_loop({&machine, args.comm.my_world_rank(), args.local,
                        args.stats, args.bcast_algo, args.tracer,
                        Schedule(args)});
}

// ---------------------------------------------------------------------------
// The task-plan consumer (any D; production for D >= 1)
// ---------------------------------------------------------------------------

namespace {

desim::Task<void> plan_program(SummaFamilyArgs args, Schedule sched) {
  mpc::Machine& machine = args.comm.machine();
  const int self = args.comm.my_world_rank();
  desim::Engine& engine = machine.engine();
  const PayloadMode mode =
      args.local == nullptr ? PayloadMode::Phantom : PayloadMode::Real;

  trace::RankStats& stats = *args.stats;

  const int D = args.lookahead;
  // Outer panels: D >= 2 keeps D in flight (prefetch across big steps);
  // D <= 1 keeps one, like the blocking outer phase. Step panels: D + 1.
  const int outer_slots = std::max(1, D);
  const int step_slots = D + 1;
  std::vector<PanelBuffer> outers[kAxes];
  std::vector<PanelBuffer> panels[kAxes];
  for (int axis = 0; axis < kAxes; ++axis) {
    const index_t rows = axis == 0 ? sched.local_m : sched.block;
    const index_t cols = axis == 0 ? sched.block : sched.local_n;
    panels[axis].reserve(static_cast<std::size_t>(step_slots));
    for (int slot = 0; slot < step_slots; ++slot)
      panels[axis].emplace_back(rows, cols, mode);
    if (!sched.hsumma) continue;
    outers[axis].reserve(static_cast<std::size_t>(outer_slots));
    for (int slot = 0; slot < outer_slots; ++slot)
      outers[axis].emplace_back(axis == 0 ? rows : sched.width,
                                axis == 0 ? sched.width : cols, mode);
  }
  const double flops = la::gemm_flops(sched.local_m, sched.local_n,
                                      sched.block);

  desim::TaskGraph graph;
  const SmallVector<PanelStage, 4>& stages = sched.stages();
  // Step marks ride on the rank's next task, so inline (D = 0) execution
  // stamps them at exactly the blocking loop's program points.
  std::vector<desim::TaskStepMark> marks;
  int last_compute = -1;
  std::vector<int> outer_ids;      // this big step's outer-panel stages
  std::vector<int> step_ids;       // this step's step stages
  std::vector<int> prev_step_ids;  // the previous step's
  const auto add_comm = [&](desim::TaskSpec spec, const PanelStage& ps,
                            PanelBuffer& panel,
                            desim::TaskGraph::Hook before) {
    spec.kind = desim::TaskKind::Comm;
    spec.phase = ps.phase;
    spec.channel = ps.level.comm.context();
    spec.label = stage_label(ps, sched.split);
    spec.marks = std::move(marks);
    marks.clear();
    return graph.add(
        std::move(spec),
        [comm = ps.level.comm, root = ps.root, &panel, &args] {
          return mpc::bcast(comm, root, panel.buf(), args.bcast_algo);
        },
        std::move(before));
  };

  for (index_t s = 0; s < sched.panels; ++s) {
    sched.advance();
    const auto oslot = static_cast<std::size_t>(s % outer_slots);
    const desim::RegionId outer_region[kAxes] = {
        desim::region_id("summa.ao", oslot),
        desim::region_id("summa.bo", oslot)};
    outer_ids.clear();
    if (sched.hsumma)
      marks.push_back({static_cast<long long>(s), kPhaseOuter});
    for (std::size_t i = 0; i < sched.outer_stages(); ++i) {
      const PanelStage& ps = stages[i];
      if (!ps.active) continue;
      PanelBuffer& panel = outers[ps.axis][oslot];
      desim::TaskSpec spec;
      spec.step = s;
      spec.out = {outer_region[ps.axis]};
      // D <= 1: the outer phase blocks — it waits for the previous big
      // step's last update and for this big step's earlier outer stage.
      if (D <= 1) {
        if (last_compute >= 0) spec.after.push_back(last_compute);
        spec.after.insert(spec.after.end(), outer_ids.begin(),
                          outer_ids.end());
      }
      desim::TaskGraph::Hook before;
      if (mode == PayloadMode::Real && sched.owner(ps.axis))
        before = [&args, &panel, axis = ps.axis,
                  offset = sched.offset(ps.axis)] {
          copy_panel(axis, local_matrix(*args.local, axis), offset, panel);
        };
      outer_ids.push_back(
          add_comm(std::move(spec), ps, panel, std::move(before)));
    }

    for (index_t w = 0; w < sched.steps_per_panel; ++w) {
      const index_t g = s * sched.steps_per_panel + w;
      const auto slot = static_cast<std::size_t>(g % step_slots);
      const desim::RegionId step_region[kAxes] = {
          desim::region_id("summa.a", slot), desim::region_id("summa.b", slot)};
      marks.push_back({static_cast<long long>(g), sched.mark_phase()});
      // D <= 1 pipeline coupling: a step's broadcasts fork only once the
      // previous step's have joined; HSUMMA's first step of a big step
      // waits instead for the outer phase and the previous big step's last
      // update (the blocking outer phase never overlapped).
      std::vector<int> coupling;
      if (D <= 1) {
        if (sched.hsumma && w == 0) {
          coupling = outer_ids;
          if (last_compute >= 0) coupling.push_back(last_compute);
        } else {
          coupling = prev_step_ids;
        }
      }
      // Real-mode staging copy of each axis's panel: rides on the axis's
      // first stage, or on the update when this rank has no stage.
      desim::TaskGraph::Hook copies[kAxes];
      for (int axis = 0; mode == PayloadMode::Real && axis < kAxes; ++axis) {
        PanelBuffer& panel = panels[axis][slot];
        if (sched.hsumma && sched.holds_outer(axis))
          copies[axis] = [&outer = outers[axis][oslot], &panel, axis,
                          offset = w * sched.block] {
            copy_panel(axis, outer.view(), offset, panel);
          };
        else if (!sched.hsumma && sched.owner(axis))
          copies[axis] = [&args, &panel, axis, offset = sched.offset(axis)] {
            copy_panel(axis, local_matrix(*args.local, axis), offset, panel);
          };
      }
      step_ids.clear();
      for (std::size_t i = sched.outer_stages(); i < stages.size(); ++i) {
        const PanelStage& ps = stages[i];
        if (!ps.active) continue;
        desim::TaskSpec spec;
        spec.step = g;
        // Fused wait accrual per step (per step and level for chains, so
        // overlapped runs still report the per-level wait split).
        if (D >= 1)
          spec.wait_group =
              static_cast<int>(sched.split ? g * 16 + ps.level.level : g);
        if (sched.hsumma) spec.in = {outer_region[ps.axis]};
        spec.out = {step_region[ps.axis]};
        spec.after = coupling;
        step_ids.push_back(add_comm(std::move(spec), ps,
                                    panels[ps.axis][slot],
                                    std::exchange(copies[ps.axis], {})));
      }

      desim::TaskSpec spec;
      spec.kind = desim::TaskKind::Compute;
      spec.phase = sched.mark_phase();
      spec.step = g;
      spec.label = "rank-b update";
      // Reading the outer slots is what strands the next outer broadcast
      // behind this big step's updates (write-after-read on the slot ring).
      spec.in = {step_region[0], step_region[1]};
      if (sched.hsumma)
        spec.in.insert(spec.in.end(), {outer_region[0], outer_region[1]});
      spec.marks = std::move(marks);
      marks.clear();
      desim::TaskGraph::Hook before = std::move(copies[0]);
      if (copies[1] && before)
        before = [first = std::move(before), second = std::move(copies[1])] {
          first();
          second();
        };
      else if (copies[1])
        before = std::move(copies[1]);
      last_compute = graph.add(
          std::move(spec),
          [&machine, self, flops, tracer = args.tracer] {
            return compute_charge(machine, self, flops, tracer);
          },
          std::move(before),
          [mode, &args, &stats, flops, &a_panel = panels[0][slot],
           &b_panel = panels[1][slot]] {
            if (mode == PayloadMode::Real)
              la::gemm(a_panel.view(), b_panel.view(), args.local->c.view());
            stats.flops += static_cast<std::uint64_t>(flops);
          });
      std::swap(prev_step_ids, step_ids);
    }
  }

  PlanObserver observer(engine, stats, args.tracer);
  co_await desim::run_task_graph(engine, graph, D, &observer);
  observer.flush();
}

}  // namespace

desim::Task<void> summa_family_plan(SummaFamilyArgs args) {
  Schedule sched(args);
  return plan_program(std::move(args), std::move(sched));
}

}  // namespace hs::core
