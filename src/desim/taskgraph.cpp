#include "desim/taskgraph.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>

namespace hs::desim {

namespace {

void push_dep(std::vector<int>& deps, int dep, int self) {
  if (dep >= 0 && dep != self) deps.push_back(dep);
}

}  // namespace

int TaskGraph::add(TaskSpec spec, Body body, Hook before, Hook after) {
  const int id = size();
  std::vector<int> deps;
  for (const int dep : spec.after) {
    HS_REQUIRE_MSG(dep >= 0 && dep < id,
                   "task " << id << ": after-edge on invalid task " << dep);
    deps.push_back(dep);
  }
  auto region = [this](RegionId key) -> RegionState& {
    for (auto& [region_key, state] : regions_)
      if (region_key == key) return state;
    return regions_.emplace_back(key, RegionState{}).second;
  };
  for (const RegionId r : spec.in) {
    RegionState& state = region(r);
    push_dep(deps, state.last_writer, id);  // read-after-write
    state.readers.push_back(id);
  }
  for (const RegionId r : spec.out) {
    RegionState& state = region(r);
    push_dep(deps, state.last_writer, id);  // write-after-write
    for (const int reader : state.readers)
      push_dep(deps, reader, id);  // write-after-read
    state.last_writer = id;
    state.readers.clear();
  }
  if (spec.kind == TaskKind::Comm && spec.channel >= 0) {
    bool known = false;
    for (auto& [channel, last] : channel_last_) {
      if (channel != spec.channel) continue;
      push_dep(deps, last, id);  // per-channel completion FIFO
      last = id;
      known = true;
      break;
    }
    if (!known) channel_last_.emplace_back(spec.channel, id);
  }
  std::sort(deps.begin(), deps.end());
  deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
  Record& record = tasks_.emplace_back();
  record.spec = std::move(spec);
  record.body = std::move(body);
  record.before = std::move(before);
  record.after = std::move(after);
  record.deps = std::move(deps);
  return id;
}

/// Drives one TaskGraph to completion. Lives for the duration of the
/// run_task_graph coroutine (which owns it by value via the frame).
class TaskGraphRunner {
 public:
  TaskGraphRunner(Engine& engine, TaskGraph& graph, TaskObserver* observer)
      : engine_(engine), graph_(graph), observer_(observer) {}

  Task<void> run_inline() {
    const int n = graph_.size();
    for (int id = 0; id < n; ++id) {
      TaskGraph::Record& record = graph_.tasks_[static_cast<std::size_t>(id)];
      issue_marks(id);
      if (record.before) record.before();
      const SimTime t0 = engine_.now();
      co_await record.body();
      const SimTime t1 = engine_.now();
      if (record.after) record.after();
      if (observer_ != nullptr) {
        // Inline communication is fully exposed: the wait IS the span.
        if (record.spec.kind == TaskKind::Comm)
          observer_->task_waited(graph_, id, t0, t1);
        observer_->task_finished(graph_, id, t0, t1);
      }
    }
  }

  Task<void> run_overlapped() {
    index_graph();
    for (;;) {
      const int c = pick_compute();
      if (c < 0) break;
      if (state(c).pending > 0) {
        // Join phase: fork and await the compute's outstanding comm
        // dependencies in task order, forking newly enabled closure comms
        // at every join instant (this is where pipelined broadcasts of
        // later steps get issued while this step's are still in flight).
        comm_closure(c);
        while (state(c).pending > 0) {
          fork_ready(closure_);
          const int d = next_join(closure_);
          HS_REQUIRE_MSG(d >= 0, "task plan stalled awaiting deps of task "
                                     << c << " ('" << graph_.spec(c).label
                                     << "'): dependency cycle or a comm "
                                        "task gated on an unrun compute");
          co_await join(d);
        }
      }
      fork_ready_all();  // pre-compute fork point
      co_await run_compute(c);
      fork_ready_all();  // post-compute fork point
    }
    // Drain trailing communication (tasks no compute depends on).
    for (;;) {
      fork_ready_all();
      const int d = next_join_any();
      if (d < 0) break;
      co_await join(d);
    }
    for (int id = 0; id < graph_.size(); ++id)
      HS_REQUIRE_MSG(state(id).complete,
                     "task " << id << " ('" << graph_.spec(id).label
                             << "') never became runnable (plan cycle?)");
  }

 private:
  struct State {
    int pending = 0;          // unfinished dependencies
    int pending_compute = 0;  // unfinished compute dependencies
    std::uint32_t mark = 0;   // comm_closure visit epoch
    bool issued = false;      // comm forked / compute picked
    bool complete = false;
    Async async;
  };

  /// Compute order: priority desc, then id (program order) asc. A max-heap
  /// under this "less" pops exactly that order.
  struct ComputeKey {
    int priority;
    int id;
    friend bool operator<(const ComputeKey& a, const ComputeKey& b) {
      return a.priority != b.priority ? a.priority < b.priority : a.id > b.id;
    }
  };

  State& state(int id) { return state_[static_cast<std::size_t>(id)]; }
  TaskGraph::Record& record(int id) {
    return graph_.tasks_[static_cast<std::size_t>(id)];
  }
  bool is_comm(int id) { return record(id).spec.kind == TaskKind::Comm; }

  void issue_marks(int id) {
    if (observer_ != nullptr) observer_->task_issued(graph_, id);
  }

  /// Dependency counts and dependent lists (one flat array, CSR-style),
  /// plus the initially ready tasks.
  void index_graph() {
    const int n = graph_.size();
    state_.resize(static_cast<std::size_t>(n));
    dependents_begin_.assign(static_cast<std::size_t>(n) + 1, 0);
    for (int id = 0; id < n; ++id)
      for (const int dep : graph_.deps(id))
        ++dependents_begin_[static_cast<std::size_t>(dep) + 1];
    for (int id = 0; id < n; ++id)
      dependents_begin_[static_cast<std::size_t>(id) + 1] +=
          dependents_begin_[static_cast<std::size_t>(id)];
    dependents_.resize(static_cast<std::size_t>(dependents_begin_.back()));
    std::vector<int> fill(dependents_begin_.begin(),
                          dependents_begin_.end() - 1);
    for (int id = 0; id < n; ++id) {
      State& st = state(id);
      for (const int dep : graph_.deps(id)) {
        dependents_[static_cast<std::size_t>(
            fill[static_cast<std::size_t>(dep)]++)] = id;
        ++st.pending;
        if (!is_comm(dep)) ++st.pending_compute;
      }
      if (is_comm(id)) {
        if (st.pending == 0) push_ready_comm(id);
      } else {
        ++unrun_computes_;
        if (st.pending_compute == 0) push_compute(id);
      }
    }
  }

  void push_ready_comm(int id) {
    ready_comms_.push_back(id);
    std::push_heap(ready_comms_.begin(), ready_comms_.end(), std::greater<>{});
  }

  /// File a compute whose compute dependencies are all complete: ready
  /// when nothing else is outstanding, a candidate otherwise.
  void push_compute(int id) {
    auto& heap = state(id).pending == 0 ? ready_computes_ : candidates_;
    heap.push_back({record(id).spec.priority, id});
    std::push_heap(heap.begin(), heap.end());
  }

  static ComputeKey pop_key(std::vector<ComputeKey>& heap) {
    std::pop_heap(heap.begin(), heap.end());
    const ComputeKey key = heap.back();
    heap.pop_back();
    return key;
  }

  /// Marks `id` complete and moves dependents that became ready (or, for
  /// computes, candidates) onto their queues.
  void complete(int id) {
    state(id).complete = true;
    const bool compute = !is_comm(id);
    const auto slot = static_cast<std::size_t>(id);
    for (int k = dependents_begin_[slot]; k < dependents_begin_[slot + 1];
         ++k) {
      const int t = dependents_[static_cast<std::size_t>(k)];
      State& st = state(t);
      --st.pending;
      if (compute) --st.pending_compute;
      if (is_comm(t)) {
        if (st.pending == 0) push_ready_comm(t);
      } else if (!st.issued) {
        // A compute files as a candidate when its last compute dep
        // finishes with comms outstanding, and as ready when its last dep
        // of any kind finishes.
        if (st.pending == 0 || (compute && st.pending_compute == 0))
          push_compute(t);
      }
    }
  }

  /// Best next compute: prefer ready ones (all deps complete), else
  /// candidates (all compute deps complete), each by (priority desc, id
  /// asc). Returns -1 when every compute has run. A candidate that later
  /// became ready leaves a stale candidate entry, skipped once issued.
  int pick_compute() {
    while (!candidates_.empty() && state(candidates_.front().id).issued)
      pop_key(candidates_);
    auto& heap = !ready_computes_.empty() ? ready_computes_ : candidates_;
    if (heap.empty()) {
      HS_REQUIRE_MSG(unrun_computes_ == 0,
                     "task plan has unrunnable computes (dependency cycle)");
      return -1;
    }
    const int c = pop_key(heap).id;
    state(c).issued = true;
    --unrun_computes_;
    return c;
  }

  /// Incomplete comm tasks reachable backward from c's dependencies,
  /// sorted by id (= program order), into closure_.
  void comm_closure(int c) {
    closure_.clear();
    ++epoch_;
    stack_.assign(graph_.deps(c).begin(), graph_.deps(c).end());
    while (!stack_.empty()) {
      const int id = stack_.back();
      stack_.pop_back();
      State& st = state(id);
      if (st.mark == epoch_) continue;
      st.mark = epoch_;
      if (st.complete) continue;
      if (is_comm(id)) closure_.push_back(id);
      for (const int dep : graph_.deps(id)) stack_.push_back(dep);
    }
    std::sort(closure_.begin(), closure_.end());
  }

  void fork_comm(int id) {
    State& st = state(id);
    st.issued = true;
    TaskGraph::Record& rec = record(id);
    issue_marks(id);
    if (rec.before) rec.before();
    st.async = Async::start(engine_, timed_comm(this, id, rec.body()));
    in_flight_.push_back(id);
    std::push_heap(in_flight_.begin(), in_flight_.end(), std::greater<>{});
  }

  /// Fork every unissued comm in `scope` whose deps are complete. Forking
  /// never completes anything, so one ordered pass suffices.
  void fork_ready(const std::vector<int>& scope) {
    for (const int id : scope)
      if (!state(id).issued && state(id).pending == 0) fork_comm(id);
  }

  /// Fork every ready comm in id order. Comms forked from a join closure
  /// stay queued until popped here, then are skipped.
  void fork_ready_all() {
    while (!ready_comms_.empty()) {
      std::pop_heap(ready_comms_.begin(), ready_comms_.end(),
                    std::greater<>{});
      const int id = ready_comms_.back();
      ready_comms_.pop_back();
      if (!state(id).issued) fork_comm(id);
    }
  }

  /// First (program order) issued-but-incomplete comm in `scope`; -1 = none.
  int next_join(const std::vector<int>& scope) {
    for (const int id : scope)
      if (state(id).issued && !state(id).complete) return id;
    return -1;
  }

  /// Lowest-id comm in flight; completed ones are dropped lazily.
  int next_join_any() {
    while (!in_flight_.empty() && state(in_flight_.front()).complete) {
      std::pop_heap(in_flight_.begin(), in_flight_.end(), std::greater<>{});
      in_flight_.pop_back();
    }
    return in_flight_.empty() ? -1 : in_flight_.front();
  }

  Task<void> join(int id) {
    const SimTime w0 = engine_.now();
    co_await state(id).async.wait();
    if (observer_ != nullptr)
      observer_->task_waited(graph_, id, w0, engine_.now());
  }

  Task<void> run_compute(int c) {
    TaskGraph::Record& rec = record(c);
    issue_marks(c);
    if (rec.before) rec.before();
    const SimTime t0 = engine_.now();
    co_await rec.body();
    const SimTime t1 = engine_.now();
    complete(c);
    if (rec.after) rec.after();
    if (observer_ != nullptr) observer_->task_finished(graph_, c, t0, t1);
  }

  /// Wrapper the forked comm body runs inside: records the true transfer
  /// span and marks the task complete the instant the body finishes (the
  /// Async gate fires strictly after, so joiners always observe it set).
  static Task<void> timed_comm(TaskGraphRunner* self, int id,
                               Task<void> body) {
    const SimTime t0 = self->engine_.now();
    co_await std::move(body);
    const SimTime t1 = self->engine_.now();
    self->complete(id);
    TaskGraph::Record& rec = self->record(id);
    if (rec.after) rec.after();
    if (self->observer_ != nullptr)
      self->observer_->task_finished(self->graph_, id, t0, t1);
  }

  Engine& engine_;
  TaskGraph& graph_;
  TaskObserver* observer_;
  std::vector<State> state_;
  // Readiness (built by index_graph): dependents of task i are
  // dependents_[dependents_begin_[i] .. dependents_begin_[i + 1]).
  std::vector<int> dependents_begin_;
  std::vector<int> dependents_;
  std::vector<int> ready_comms_;  // min-heap by id
  std::vector<int> in_flight_;    // min-heap by id (issued comms)
  std::vector<ComputeKey> ready_computes_;
  std::vector<ComputeKey> candidates_;
  int unrun_computes_ = 0;
  // comm_closure scratch, reused across join phases.
  std::vector<int> closure_;
  std::vector<int> stack_;
  std::uint32_t epoch_ = 0;
};

Task<void> run_task_graph(Engine& engine, TaskGraph& graph, int lookahead,
                          TaskObserver* observer) {
  HS_REQUIRE_MSG(lookahead >= 0, "negative lookahead " << lookahead);
  TaskGraphRunner runner(engine, graph, observer);
  if (lookahead == 0)
    co_await runner.run_inline();
  else
    co_await runner.run_overlapped();
}

}  // namespace hs::desim
