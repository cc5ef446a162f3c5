// TaskGraph semantics: dependency resolution from region declarations,
// inline (lookahead = 0) program-order execution, and the overlapping
// scheduler's core guarantees — comm runs behind compute, slot-ring
// write-after-read edges bound the look-ahead window, and equal graphs
// produce bit-identical schedules. Seeded random DAGs pin the whole
// schedule (issue order, task spans, event count) at look-ahead 0, 1 and 2.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "desim/taskgraph.hpp"

namespace {

using hs::desim::Engine;
using hs::desim::RegionId;
using hs::desim::SimTime;
using hs::desim::Task;
using hs::desim::TaskGraph;
using hs::desim::TaskKind;
using hs::desim::TaskObserver;
using hs::desim::TaskSpec;
using hs::desim::region_id;
using hs::desim::run_task_graph;

TaskSpec comm_spec(std::vector<RegionId> in, std::vector<RegionId> out,
                   int channel = 0) {
  TaskSpec spec;
  spec.kind = TaskKind::Comm;
  spec.channel = channel;
  spec.in = std::move(in);
  spec.out = std::move(out);
  return spec;
}

TaskSpec compute_spec(std::vector<RegionId> in,
                      std::vector<RegionId> out = {}) {
  TaskSpec spec;
  spec.kind = TaskKind::Compute;
  spec.in = std::move(in);
  spec.out = std::move(out);
  return spec;
}

/// A body that sleeps `duration` of virtual time and appends to `order`.
TaskGraph::Body timed(Engine& engine, double duration,
                      std::vector<int>* order = nullptr, int tag = 0) {
  return [&engine, duration, order, tag]() -> Task<void> {
    return [](Engine& e, double d, std::vector<int>* o, int t) -> Task<void> {
      if (o != nullptr) o->push_back(t);
      co_await e.sleep(d);
    }(engine, duration, order, tag);
  };
}

TEST(TaskGraph, RegionIdsAreStableAndFamilyDisjoint) {
  EXPECT_EQ(region_id("a", 0), region_id("a", 0));
  EXPECT_NE(region_id("a", 0), region_id("a", 1));
  EXPECT_NE(region_id("a", 0), region_id("b", 0));
}

TEST(TaskGraph, ResolvesReadAfterWrite) {
  TaskGraph graph;
  const RegionId slot = region_id("panel", 0);
  const int recv = graph.add(comm_spec({}, {slot}), {});
  const int gemm = graph.add(compute_spec({slot}), {});
  EXPECT_TRUE(graph.deps(recv).empty());
  EXPECT_EQ(graph.deps(gemm), std::vector<int>{recv});
}

TEST(TaskGraph, ResolvesWriteAfterReadOnSlotReuse) {
  // Two-slot ring: the recv into slot 0 for step 2 must wait for step 0's
  // reader — the edge that bounds the look-ahead window.
  TaskGraph graph;
  const RegionId slot0 = region_id("panel", 0);
  const RegionId slot1 = region_id("panel", 1);
  const int recv0 = graph.add(comm_spec({}, {slot0}), {});
  const int use0 = graph.add(compute_spec({slot0}), {});
  const int recv1 = graph.add(comm_spec({}, {slot1}, 1), {});
  const int reuse0 = graph.add(comm_spec({}, {slot0}, 2), {});
  (void)recv1;
  EXPECT_EQ(graph.deps(reuse0), (std::vector<int>{recv0, use0}));
}

TEST(TaskGraph, ResolvesWriteAfterWrite) {
  TaskGraph graph;
  const RegionId slot = region_id("panel", 0);
  const int first = graph.add(comm_spec({}, {slot}, 1), {});
  const int second = graph.add(comm_spec({}, {slot}, 2), {});
  EXPECT_EQ(graph.deps(second), std::vector<int>{first});
}

TEST(TaskGraph, SerializesOneChannelKeepsOthersIndependent) {
  // Collectives on one communicator must complete in issue order; distinct
  // communicators impose nothing on each other.
  TaskGraph graph;
  const int a0 = graph.add(comm_spec({}, {region_id("a", 0)}, 7), {});
  const int b0 = graph.add(comm_spec({}, {region_id("b", 0)}, 8), {});
  const int a1 = graph.add(comm_spec({}, {region_id("a", 1)}, 7), {});
  EXPECT_TRUE(graph.deps(b0).empty());
  EXPECT_EQ(graph.deps(a1), std::vector<int>{a0});
}

TEST(TaskGraph, ExplicitAfterEdgesMergeSortedAndDeduplicated) {
  TaskGraph graph;
  const RegionId slot = region_id("panel", 0);
  const int writer = graph.add(comm_spec({}, {slot}), {});
  const int other = graph.add(compute_spec({}), {});
  TaskSpec spec = compute_spec({slot});
  spec.after = {writer, other, writer};  // duplicate of the RAW edge
  const int reader = graph.add(std::move(spec), {});
  EXPECT_EQ(graph.deps(reader), (std::vector<int>{writer, other}));
}

TEST(TaskGraph, InlineExecutionRunsInProgramOrder) {
  Engine engine;
  TaskGraph graph;
  std::vector<int> order;
  // Insertion order deliberately has an independent pair that an eager
  // scheduler could reorder; inline execution must not.
  graph.add(comm_spec({}, {region_id("a", 0)}, 1), timed(engine, 1.0, &order, 0));
  graph.add(comm_spec({}, {region_id("b", 0)}, 2), timed(engine, 0.1, &order, 1));
  graph.add(compute_spec({region_id("a", 0)}), timed(engine, 2.0, &order, 2));
  engine.spawn([](Engine& e, TaskGraph& g) -> Task<void> {
    co_await run_task_graph(e, g, 0);
  }(engine, graph));
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(engine.now(), 3.1);  // fully serialized
}

TEST(TaskGraph, OverlappedScheduleHidesCommBehindCompute) {
  // Step structure: recv(q) -> gemm(q), two slots. Blocking costs
  // 2*(1+2) = 6; with lookahead the second recv hides behind gemm 0.
  Engine engine;
  TaskGraph graph;
  for (int q = 0; q < 2; ++q) {
    graph.add(comm_spec({}, {region_id("panel", q)}, 0),
              timed(engine, 1.0));
    graph.add(compute_spec({region_id("panel", q)}), timed(engine, 2.0));
  }
  engine.spawn([](Engine& e, TaskGraph& g) -> Task<void> {
    co_await run_task_graph(e, g, 1);
  }(engine, graph));
  engine.run();
  EXPECT_EQ(engine.now(), 5.0);  // recv0; gemm0 || recv1; gemm1
}

TEST(TaskGraph, SlotRingBoundsHowFarCommRunsAhead) {
  // Four steps on a one-slot "ring": every recv must wait for the previous
  // step's gemm (write-after-read), so nothing overlaps even at high
  // lookahead — the window lives in the plan, not the scheduler.
  Engine engine;
  TaskGraph graph;
  const RegionId slot = region_id("panel", 0);
  for (int q = 0; q < 4; ++q) {
    graph.add(comm_spec({}, {slot}, 0), timed(engine, 1.0));
    graph.add(compute_spec({slot}), timed(engine, 2.0));
  }
  engine.spawn([](Engine& e, TaskGraph& g) -> Task<void> {
    co_await run_task_graph(e, g, 8);
  }(engine, graph));
  engine.run();
  EXPECT_EQ(engine.now(), 12.0);
}

TEST(TaskGraph, PriorityPicksAmongReadyComputesThenProgramOrder) {
  Engine engine;
  TaskGraph graph;
  std::vector<int> order;
  TaskSpec low = compute_spec({});
  TaskSpec tie = compute_spec({});
  TaskSpec high = compute_spec({});
  high.priority = 1;
  graph.add(std::move(low), timed(engine, 1.0, &order, 0));
  graph.add(std::move(tie), timed(engine, 1.0, &order, 1));
  graph.add(std::move(high), timed(engine, 1.0, &order, 2));
  engine.spawn([](Engine& e, TaskGraph& g) -> Task<void> {
    co_await run_task_graph(e, g, 1);
  }(engine, graph));
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{2, 0, 1}));
}

struct SpanLog : TaskObserver {
  struct Row {
    int id;
    std::string kind;  // "finish" / "wait"
    SimTime t0, t1;
  };
  std::vector<int> issued;
  std::vector<Row> rows;
  void task_issued(const TaskGraph&, int id) override {
    issued.push_back(id);
  }
  void task_finished(const TaskGraph&, int id, SimTime t0,
                     SimTime t1) override {
    rows.push_back({id, "finish", t0, t1});
  }
  void task_waited(const TaskGraph&, int id, SimTime t0,
                   SimTime t1) override {
    rows.push_back({id, "wait", t0, t1});
  }
};

TEST(TaskGraph, InlineObserverSeesFullCommSpansAsWaits) {
  Engine engine;
  TaskGraph graph;
  graph.add(comm_spec({}, {region_id("a", 0)}, 0), timed(engine, 1.0));
  graph.add(compute_spec({region_id("a", 0)}), timed(engine, 2.0));
  SpanLog log;
  engine.spawn([](Engine& e, TaskGraph& g, SpanLog& l) -> Task<void> {
    co_await run_task_graph(e, g, 0, &l);
  }(engine, graph, log));
  engine.run();
  EXPECT_EQ(log.issued, (std::vector<int>{0, 1}));
  ASSERT_EQ(log.rows.size(), 3u);
  // Comm task: the full span reported as exposed wait, then finished.
  EXPECT_EQ(log.rows[0].kind, "wait");
  EXPECT_EQ(log.rows[0].t0, 0.0);
  EXPECT_EQ(log.rows[0].t1, 1.0);
  EXPECT_EQ(log.rows[1].kind, "finish");
  EXPECT_EQ(log.rows[2].kind, "finish");
  EXPECT_EQ(log.rows[2].t1, 3.0);
}

TEST(TaskGraph, OverlappedObserverSeesOnlyExposedWaits) {
  // recv (1s) forked at t=0, compute A (2s) independent, compute B needs
  // the recv: by the time A finishes the recv is long done — zero exposed
  // wait anywhere.
  Engine engine;
  TaskGraph graph;
  graph.add(comm_spec({}, {region_id("a", 0)}, 0), timed(engine, 1.0));
  graph.add(compute_spec({}), timed(engine, 2.0));
  graph.add(compute_spec({region_id("a", 0)}), timed(engine, 2.0));
  SpanLog log;
  engine.spawn([](Engine& e, TaskGraph& g, SpanLog& l) -> Task<void> {
    co_await run_task_graph(e, g, 1, &l);
  }(engine, graph, log));
  engine.run();
  EXPECT_EQ(engine.now(), 4.0);
  double exposed = 0.0;
  for (const auto& row : log.rows)
    if (row.kind == "wait") exposed += row.t1 - row.t0;
  EXPECT_EQ(exposed, 0.0);
}

TEST(TaskGraph, EqualGraphsProduceBitIdenticalSchedules) {
  auto build_and_run = [](int lookahead) {
    Engine engine;
    TaskGraph graph;
    for (int q = 0; q < 5; ++q) {
      graph.add(comm_spec({}, {region_id("a", q % 2)}, 0),
                timed(engine, 0.3 + 0.1 * q));
      graph.add(comm_spec({}, {region_id("b", q % 2)}, 1),
                timed(engine, 0.2));
      graph.add(
          compute_spec({region_id("a", q % 2), region_id("b", q % 2)}),
          timed(engine, 0.7));
    }
    engine.spawn([](Engine& e, TaskGraph& g, int d) -> Task<void> {
      co_await run_task_graph(e, g, d);
    }(engine, graph, lookahead));
    engine.run();
    return engine.now();
  };
  for (int depth : {0, 1, 2})
    EXPECT_EQ(build_and_run(depth), build_and_run(depth)) << "D=" << depth;
  EXPECT_LE(build_and_run(1), build_and_run(0));
}

// --- Seeded random DAGs -------------------------------------------------
//
// Each graph mixes comm and compute tasks on slot rings, channels, `after`
// edges and priorities, with comm bodies that sleep seeded, quantized
// times (so completions tie often and the engine's seq order decides).
// Tasks live in three lanes so every graph is runnable at any depth:
//   * main: comms into slot rings "a"/"b" (channels 0/1, some unserialized)
//     read by computes that all write "c" (so main computes run in order);
//   * side: comms into ring "s" (channel 2) read by computes writing "d";
//   * free: region-less computes with `after` edges on earlier computes.
// Comm `after` edges stay inside their lane (on earlier comms or computes),
// so a compute's comm closure never waits on a compute that cannot run.

/// splitmix64: a seed-expanding generator, stable across platforms.
struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  int below(int n) {
    return static_cast<int>(next() % static_cast<std::uint64_t>(n));
  }
  bool chance(int percent) { return below(100) < percent; }
};

/// A comm body: a seeded number of sleeps, each a multiple of 0.25 (zero
/// included — an already-ready await adds no event).
TaskGraph::Body sleeps(Engine& engine, std::vector<double> durations) {
  return [&engine, durations = std::move(durations)]() -> Task<void> {
    return [](Engine& e, std::vector<double> ds) -> Task<void> {
      for (const double d : ds) co_await e.sleep(d);
    }(engine, durations);
  };
}

struct RandomDag {
  TaskGraph graph;
  int tasks = 0;
};

void build_random_dag(Engine& engine, std::uint64_t seed, RandomDag& dag) {
  SplitMix64 rng{seed};
  TaskGraph& graph = dag.graph;
  const int steps = 6 + rng.below(15);
  const int ring_a = 1 + rng.below(3);
  const int ring_b = 1 + rng.below(3);
  const int ring_s = 1 + rng.below(3);
  std::vector<int> main_comms, main_computes, side_comms, side_computes,
      computes;
  auto quarter = [&rng] { return 0.25 * rng.below(5); };
  auto pick = [&rng](const std::vector<int>& ids) {
    return ids[static_cast<std::size_t>(
        rng.below(static_cast<int>(ids.size())))];
  };
  auto add_comm = [&](const char* family, int slot, int channel,
                      std::vector<int>& lane_comms,
                      const std::vector<int>& lane_computes) {
    TaskSpec spec = comm_spec({}, {region_id(family, slot)},
                              rng.chance(20) ? -1 : channel);
    if (!lane_comms.empty() && rng.chance(25))
      spec.after.push_back(pick(lane_comms));
    if (!lane_computes.empty() && rng.chance(25))
      spec.after.push_back(pick(lane_computes));
    std::vector<double> durations(
        static_cast<std::size_t>(1 + rng.below(3)));
    for (double& d : durations) d = quarter();
    lane_comms.push_back(
        graph.add(std::move(spec), sleeps(engine, std::move(durations))));
  };
  auto add_compute = [&](TaskSpec spec, std::vector<int>* lane) {
    spec.priority = rng.below(3);
    const int id = graph.add(std::move(spec), timed(engine, 0.25 + quarter()));
    if (lane != nullptr) lane->push_back(id);
    computes.push_back(id);
  };
  for (int q = 0; q < steps; ++q) {
    // Comms of a step go in before or after the previous step's computes
    // at random, so program order is not always issue order.
    const bool a_first = rng.chance(50);
    add_comm(a_first ? "a" : "b", q % (a_first ? ring_a : ring_b),
             a_first ? 0 : 1, main_comms, main_computes);
    add_comm(a_first ? "b" : "a", q % (a_first ? ring_b : ring_a),
             a_first ? 1 : 0, main_comms, main_computes);
    if (rng.chance(60))
      add_comm("s", q % ring_s, 2, side_comms, side_computes);
    add_compute(compute_spec({region_id("a", q % ring_a),
                              region_id("b", q % ring_b)},
                             {region_id("c", 0)}),
                &main_computes);
    if (!side_comms.empty() && rng.chance(50))
      add_compute(compute_spec({region_id("s", q % ring_s)},
                               {region_id("d", 0)}),
                  &side_computes);
    if (rng.chance(50)) {
      TaskSpec free = compute_spec({});
      for (int e = rng.below(3); e > 0; --e)
        free.after.push_back(pick(computes));
      add_compute(std::move(free), nullptr);
    }
  }
  // Trailing comms no compute reads: the scheduler's drain phase, where
  // several are in flight at once and channel successors become ready only
  // as earlier ones are joined.
  for (int t = 1 + rng.below(5); t > 0; --t) {
    if (rng.chance(50))
      add_comm("s", rng.below(ring_s), 2, side_comms, side_computes);
    else if (rng.chance(50))
      add_comm("a", rng.below(ring_a), 0, main_comms, main_computes);
    else
      add_comm("b", rng.below(ring_b), 1, main_comms, main_computes);
  }
  dag.tasks = graph.size();
}

/// Issue order, every span as hexfloats, and the engine's event count.
struct DigestLog : TaskObserver {
  std::string text;
  void put(const char* tag, int id, SimTime t0, SimTime t1) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s%d:%a:%a;", tag, id, t0, t1);
    text += buf;
  }
  void task_issued(const TaskGraph&, int id) override {
    char buf[24];
    std::snprintf(buf, sizeof buf, "i%d;", id);
    text += buf;
  }
  void task_finished(const TaskGraph&, int id, SimTime t0,
                     SimTime t1) override {
    put("f", id, t0, t1);
  }
  void task_waited(const TaskGraph&, int id, SimTime t0,
                   SimTime t1) override {
    put("w", id, t0, t1);
  }
};

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// FNV-1a of the digest text for one (seed, lookahead) run.
std::uint64_t random_dag_digest(std::uint64_t seed, int lookahead) {
  Engine engine;
  RandomDag dag;
  build_random_dag(engine, seed, dag);
  DigestLog log;
  engine.spawn([](Engine& e, TaskGraph& g, int d, DigestLog& l) -> Task<void> {
    co_await run_task_graph(e, g, d, &l);
  }(engine, dag.graph, lookahead, log));
  engine.run();
  char tail[64];
  std::snprintf(tail, sizeof tail, "n%d;e%llu;", dag.tasks,
                static_cast<unsigned long long>(engine.events_processed()));
  return fnv1a(log.text + tail);
}

TEST(TaskGraph, RandomDagSchedulesMatchGoldens) {
  // Captured from the full-scan scheduler before the ready-queue rewrite;
  // the rewrite must reproduce every schedule event for event.
  // The overlapped scheduler takes no depth parameter (the window lives
  // in the plan's slot rings), so D = 1 and D = 2 share one golden.
  struct Golden {
    std::uint64_t seed;
    std::uint64_t blocking, overlapped;
  };
  const std::vector<Golden> goldens = {
      {1, 0xd196fdf1ed26c0b6ull, 0x3a226e3d8047df59ull},
      {2, 0x0362c790b1cb737dull, 0xdbc9fc4e24526623ull},
      {3, 0x65c8559728d418a7ull, 0xdac7193a54d252c4ull},
      {4, 0xf2ad1bb821651382ull, 0xc07b53ea0666072eull},
      {5, 0xb7c9b0204545609aull, 0xa028b35381c7c04dull},
      {6, 0x03e1610a6c182750ull, 0xcbfa6cd2ebae0211ull},
      {7, 0x1df8a8523068815full, 0xc71d926bbdbdcd11ull},
      {8, 0x644ee5450ca7df37ull, 0x600b111730d97530ull},
      {9, 0x3ac641571f6c42adull, 0x1aa41acb717b3210ull},
      {10, 0x6727ccad3dbfddc3ull, 0xff1233c997f4f085ull},
      {11, 0x1a69c3966294537aull, 0xf465e62e44ced295ull},
      {12, 0xe84771120f3c4559ull, 0x64d1fc7973999b31ull},
      {13, 0x0ba59e0c247e0a12ull, 0x8700ab022aa480d5ull},
      {14, 0x2d720aea084aa8b1ull, 0xa4f968ea403393a2ull},
      {15, 0x812759fd305e6dbcull, 0x916ba7291fa356e5ull},
      {16, 0x9ff68d492a2d85e9ull, 0xe322c319fc950db4ull},
  };
  for (const Golden& g : goldens) {
    EXPECT_EQ(random_dag_digest(g.seed, 0), g.blocking) << "seed " << g.seed;
    EXPECT_EQ(random_dag_digest(g.seed, 1), g.overlapped) << "seed " << g.seed;
    EXPECT_EQ(random_dag_digest(g.seed, 2), g.overlapped) << "seed " << g.seed;
  }
}

}  // namespace
