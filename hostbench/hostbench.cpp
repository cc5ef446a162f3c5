// hostbench: one iteration of one host-time benchmark workload.
//
//   hostbench run --workload W --goldens DIR [--seed S] [--tiny]
//                 [--point summa|hsumma] [--trace] [--spans FILE]
//                 [--store-dir DIR] [--plant-mismatch] [--counters]
//                 [--spawn-ns NS] [--setup-only]
//   hostbench goldens --workload W [--seed S] [--tiny]
//   hostbench crosscheck [--tiny]
//   hostbench probe
//
// `run` sets the workload up, times it, checks every simulated result and
// prints one JSON object on stdout. Its set-up time runs from process start
// (--spawn-ns, the parent's CLOCK_MONOTONIC reading just before it started
// this process) to the start of the timed phase; --setup-only stops there. `goldens` prints the digests the
// checks compare against. `crosscheck` shows that the benchmark's direct
// engine path (which owns the engine and machine so it can read their
// counters) returns bit-identical results to exec::run_sim_job. `probe`
// measures the host's speed while iterations run beside it: it repeats a
// fixed reference kernel that shares no code with the simulator, until its
// stdin closes, and prints the median CPU time of one repetition. It prints
// `ready` first, once its own set-up is done.
//
// All times are host time: wall time on std::chrono::steady_clock, CPU
// time on CLOCK_PROCESS_CPUTIME_ID (every thread of the process, without the
// time the host takes the CPU away from it). Simulated results
// are the correctness contract, never a metric. hostbench/run.py repeats
// iterations for a run's duration and aggregates them; see
// hostbench/README.md for the workloads and metrics.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include "common/json.hpp"
#include "core/kernel_registry.hpp"
#include "core/runner.hpp"
#include "desim/engine.hpp"
#include "exec/executor.hpp"
#include "exec/sim_job.hpp"
#include "grid/hier_grid.hpp"
#include "grid/process_grid.hpp"
#include "mpc/machine.hpp"
#include "net/model.hpp"
#include "net/platform.hpp"
#include "store/fingerprint.hpp"
#include "store/result_store.hpp"
#include "trace/metrics.hpp"

namespace {

using namespace hs;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time on `clock`, in seconds: CLOCK_PROCESS_CPUTIME_ID for the whole
/// process (user + system, all threads), CLOCK_THREAD_CPUTIME_ID for the
/// calling thread.
double cpu_seconds(clockid_t clock = CLOCK_PROCESS_CPUTIME_ID) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// --- spans -----------------------------------------------------------------

/// Layers the benchmark calls into; a span's self time is charged to its
/// layer.
enum class Layer { Bench, Mpc, Core, Exec, Store };
constexpr const char* kLayerNames[] = {"bench", "mpc", "core", "exec",
                                       "store"};
constexpr int kLayers = 5;

struct SpanRecord {
  const char* name;
  Layer layer;
  std::int64_t start_ns;
  std::int64_t end_ns;
  int parent;  // index into the span list, -1 for a root
  int job;     // job index, -1 when the span belongs to no job
};

/// In-memory span list of the traced run, written out at exit. Spans nest
/// strictly on the one thread that records them.
class Tracer {
 public:
  int open(const char* name, Layer layer, int job) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, layer, now_ns(), 0, parent, job});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Self time per layer, summed over every span under a root named
  /// `root_name` (the timed phases), roots included.
  std::vector<double> self_seconds(const std::string& root_name) const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const SpanRecord& span : spans_)
      if (span.parent >= 0)
        child_ns[static_cast<std::size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
    std::vector<double> self(kLayers, 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      int root = static_cast<int>(i);
      while (spans_[static_cast<std::size_t>(root)].parent >= 0)
        root = spans_[static_cast<std::size_t>(root)].parent;
      if (root_name != spans_[static_cast<std::size_t>(root)].name) continue;
      const SpanRecord& span = spans_[i];
      self[static_cast<int>(span.layer)] +=
          1e-9 * static_cast<double>(span.end_ns - span.start_ns -
                                     child_ns[i]);
    }
    return self;
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& span = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << span.name
          << "\",\"layer\":\"" << kLayerNames[static_cast<int>(span.layer)]
          << "\",\"start_ns\":" << span.start_ns
          << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
          << ",\"job\":" << span.job << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// Scoped span; a no-op without a tracer, so untimed runs pay one branch.
class Span {
 public:
  Span(Tracer* tracer, const char* name, Layer layer, int job = -1)
      : tracer_(tracer), id_(tracer ? tracer->open(name, layer, job) : -1) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// --- results and digests ---------------------------------------------------

std::string digest(const core::RunResult& result,
                   std::optional<std::uint64_t> events) {
  char buffer[256];
  std::snprintf(buffer, sizeof buffer, "vt=%a;comm=%a;msgs=%llu;bytes=%llu",
                result.timing.total_time, result.timing.max_comm_time,
                static_cast<unsigned long long>(result.messages),
                static_cast<unsigned long long>(result.wire_bytes));
  std::string text = buffer;
  if (events.has_value()) text += ";events=" + std::to_string(*events);
  return text;
}

/// The digest without its events field (the executor path cannot see the
/// engine's event count).
std::string without_events(const std::string& text) {
  return text.substr(0, text.find(";events="));
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Bit identity of everything a RunResult carries.
bool same_result(const core::RunResult& a, const core::RunResult& b) {
  const trace::TimingReport& x = a.timing;
  const trace::TimingReport& y = b.timing;
  if (x.max_level_comm_time.size() != y.max_level_comm_time.size())
    return false;
  for (std::size_t i = 0; i < x.max_level_comm_time.size(); ++i)
    if (!same_bits(x.max_level_comm_time[i], y.max_level_comm_time[i]))
      return false;
  return same_bits(x.total_time, y.total_time) &&
         same_bits(x.max_comm_time, y.max_comm_time) &&
         same_bits(x.max_comp_time, y.max_comp_time) &&
         same_bits(x.mean_comm_time, y.mean_comm_time) &&
         same_bits(x.mean_comp_time, y.mean_comp_time) &&
         same_bits(x.max_outer_comm_time, y.max_outer_comm_time) &&
         same_bits(x.max_inner_comm_time, y.max_inner_comm_time) &&
         x.total_flops == y.total_flops &&
         same_bits(a.max_error, b.max_error) && a.messages == b.messages &&
         a.wire_bytes == b.wire_bytes && a.fault_drops == b.fault_drops &&
         a.fault_retries == b.fault_retries &&
         a.fault_timeouts == b.fault_timeouts;
}

// --- workloads -------------------------------------------------------------

struct Job {
  std::string label;
  exec::SimJob sim;
};

struct Workload {
  std::vector<Job> jobs;
  /// Points whose host time is reported as core.run_s.summa / .hsumma: a
  /// job label, or a label prefix ending before a '.'.
  std::string summa_point;
  std::string hsumma_point;
  /// Shapes crossed with look-ahead depths (lookahead_chain only).
  std::vector<std::string> lookahead_shapes;
  int workers = 0;  // executor workers (figs_closed, noise_store)
};

bool in_point(const std::string& label, const std::string& point) {
  return label == point || label.rfind(point + ".", 0) == 0;
}

exec::SimJob make_job(const net::Platform& platform, int ranks,
                      core::ProblemSpec problem, net::BcastAlgo algo,
                      mpc::CollectiveMode mode) {
  exec::SimJob job;
  job.platform = platform;
  job.gamma_flop = platform.gamma_flop;
  job.collective_mode = mode;
  job.machine_bcast_algo = algo;
  job.ranks = ranks;
  job.problem = problem;
  job.bcast_algo = algo;
  job.mode = core::PayloadMode::Phantom;
  return job;
}

/// Power-of-two group counts with a valid arrangement: fig8's G axis, as
/// bench_util's pow2_group_counts (not part of the linked libraries).
std::vector<int> pow2_group_counts(int ranks) {
  const grid::GridShape shape = grid::near_square_shape(ranks);
  std::vector<int> counts;
  for (int g = 1; g <= ranks; g *= 2)
    if (grid::group_arrangement(shape, g).size() == g) counts.push_back(g);
  if (counts.empty() || counts.back() != ranks) counts.push_back(ranks);
  return counts;
}

// fig8's full G-sweep at p=4096 (SUMMA baseline first, then every G,
// including the G=1 point the executor dedupes against the baseline) and
// fig9's SUMMA + best-G points at p=1024 and p=2048.
Workload figs_closed(bool tiny) {
  const net::Platform platform = net::Platform::bluegene_p_calibrated();
  const int p8 = tiny ? 64 : 4096;
  const core::ProblemSpec problem =
      core::ProblemSpec::square(tiny ? 2048 : 65536, tiny ? 64 : 256);
  const std::vector<std::pair<int, int>> fig9 =
      tiny ? std::vector<std::pair<int, int>>{{16, 4}, {32, 4}}
           : std::vector<std::pair<int, int>>{{1024, 16}, {2048, 32}};
  const auto job = [&](int ranks, int groups) {
    exec::SimJob sim = make_job(platform, ranks, problem,
                                net::BcastAlgo::ScatterRingAllgather,
                                mpc::CollectiveMode::ClosedForm);
    sim.groups = groups;
    return sim;
  };
  Workload w;
  w.workers = 2;
  const std::string fig8 = "fig8.p" + std::to_string(p8);
  w.jobs.push_back({fig8 + ".summa", job(p8, 1)});
  for (int g : pow2_group_counts(p8))
    w.jobs.push_back({fig8 + ".g" + std::to_string(g), job(p8, g)});
  for (const auto& [ranks, best] : fig9) {
    const std::string fig9_point = "fig9.p" + std::to_string(ranks);
    w.jobs.push_back({fig9_point + ".summa", job(ranks, 1)});
    w.jobs.push_back(
        {fig9_point + ".g" + std::to_string(best), job(ranks, best)});
  }
  w.summa_point = fig8 + ".summa";
  w.hsumma_point = fig8 + (tiny ? ".g8" : ".g64");
  return w;
}

// Look-ahead D in {0, 1, 2} crossed with SUMMA, HSUMMA and a depth-2 chain.
Workload lookahead_chain(bool tiny) {
  const net::Platform platform = net::Platform::bluegene_p_calibrated();
  const int ranks = tiny ? 16 : 256;
  const core::ProblemSpec problem =
      core::ProblemSpec::square(tiny ? 512 : 16384, tiny ? 32 : 256);
  Workload w;
  w.lookahead_shapes = {"summa", "hsumma", "chain"};
  for (int depth = 0; depth <= 2; ++depth) {
    for (const std::string& shape : w.lookahead_shapes) {
      exec::SimJob sim = make_job(platform, ranks, problem,
                                  net::BcastAlgo::ScatterRingAllgather,
                                  mpc::CollectiveMode::ClosedForm);
      sim.lookahead = depth;
      if (shape == "hsumma") sim.groups = tiny ? 4 : 32;
      if (shape == "chain")
        sim.hierarchy = core::GroupHierarchy::parse(tiny ? "2x2" : "8x4");
      w.jobs.push_back({"la.d" + std::to_string(depth) + "." + shape, sim});
    }
  }
  w.summa_point = "la.d2.summa";
  w.hsumma_point = "la.d2.hsumma";
  return w;
}

// scale_frontier's p=16384 point: point-to-point binomial broadcasts on the
// exascale platform, k truncated to grid-side panels.
Workload p2p_scale(bool tiny, const std::string& point) {
  const net::Platform platform = net::Platform::exascale();
  const int side = tiny ? 16 : 128;
  const long long n = tiny ? (1ll << 14) : (1ll << 22);
  const long long block = 256;
  Workload w;
  for (const std::string name : {"summa", "hsumma"}) {
    if (!point.empty() && point != name) continue;
    exec::SimJob sim = make_job(platform, side * side,
                                {n, side * block, n, block, 0},
                                net::BcastAlgo::Binomial,
                                mpc::CollectiveMode::PointToPoint);
    sim.grid = {side, side};
    sim.groups = name == "summa" ? 1 : side;
    w.jobs.push_back({"p2p." + name, sim});
  }
  w.summa_point = "p2p.summa";
  w.hsumma_point = "p2p.hsumma";
  return w;
}

constexpr int kNoiseReps = 20;
constexpr int kNoiseRepsTiny = 2;
/// Warm replay rounds per iteration, each through a fresh store and
/// executor on the populated directory.
constexpr int kReplayRounds = 250;
constexpr int kReplayRoundsTiny = 2;

// noise_study's shape: every G at p=16, repetitions with per-transfer noise
// whose seeds come from the workload seed, through the on-disk store.
Workload noise_store(bool tiny, std::uint64_t seed) {
  const net::Platform platform = net::Platform::grid5000_calibrated();
  const int ranks = 16;
  const int reps = tiny ? kNoiseRepsTiny : kNoiseReps;
  const core::ProblemSpec problem =
      core::ProblemSpec::square(tiny ? 512 : 2048, tiny ? 32 : 64);
  Workload w;
  w.workers = 2;
  for (int g : pow2_group_counts(ranks)) {
    for (int rep = 0; rep < reps; ++rep) {
      exec::SimJob sim = make_job(platform, ranks, problem,
                                  net::BcastAlgo::Binomial,
                                  mpc::CollectiveMode::ClosedForm);
      sim.groups = g;
      sim.noise_sigma = 0.05;
      sim.noise_seed = seed * static_cast<std::uint64_t>(reps) +
                       static_cast<std::uint64_t>(rep);
      w.jobs.push_back({"noise.g" + std::to_string(g) + ".r" +
                            std::to_string(rep),
                        sim});
    }
  }
  w.summa_point = "noise.g1";
  w.hsumma_point = "noise.g4";
  return w;
}

Workload make_workload(const std::string& name, bool tiny, std::uint64_t seed,
                       const std::string& point) {
  if (name == "figs_closed") return figs_closed(tiny);
  if (name == "lookahead_chain") return lookahead_chain(tiny);
  if (name == "p2p_scale") return p2p_scale(tiny, point);
  if (name == "noise_store") return noise_store(tiny, seed);
  HS_REQUIRE_MSG(false, "unknown workload '" << name << "'");
}

const std::vector<std::string> kWorkloads = {"figs_closed", "lookahead_chain",
                                             "p2p_scale", "noise_store"};

// --- direct engine path ----------------------------------------------------

struct DirectRun {
  core::RunResult result;
  std::uint64_t events = 0;
  std::uint64_t heap_peak = 0;
  std::uint64_t rank_pages = 0;
  std::uint64_t bcast_calls = 0;
  double machine_ctor_s = 0.0;
  double run_s = 0.0;
};

/// exec::run_sim_job for jobs without faults or sinks, with the engine and
/// machine owned here so Machine construction is timed on its own and the
/// engine's counters stay readable. `crosscheck` pins the equivalence.
DirectRun run_direct(const exec::SimJob& job, Tracer* tracer, int job_index) {
  HS_REQUIRE(job.faults == nullptr && job.recorder == nullptr &&
             job.metrics == nullptr);
  Span span(tracer, "job", Layer::Bench, job_index);
  const grid::GridShape shape = job.grid.rows > 0
                                    ? job.grid
                                    : grid::near_square_shape(job.ranks);
  std::shared_ptr<const net::NetworkModel> network =
      job.network != nullptr ? job.network : job.platform.make_network();
  mpc::CollectiveMode collective_mode = job.collective_mode;
  if (job.noise_sigma > 0.0) {
    network = std::make_shared<net::NoisyModel>(
        std::move(network), job.noise_sigma, job.noise_seed);
    collective_mode = mpc::CollectiveMode::PointToPoint;
  }
  DirectRun out;
  desim::Engine engine;
  std::optional<mpc::Machine> machine;
  {
    Span ctor(tracer, "mpc.machine_ctor", Layer::Mpc, job_index);
    const auto start = Clock::now();
    machine.emplace(engine, std::move(network),
                    mpc::MachineConfig{.ranks = shape.size() * job.layers,
                                       .collective_mode = collective_mode,
                                       .bcast_algo = job.machine_bcast_algo,
                                       .gamma_flop = job.gamma_flop,
                                       .rank_gamma = job.rank_gamma});
    out.machine_ctor_s = seconds_since(start);
  }
  core::RunOptions options;
  options.grid = shape;
  options.problem = job.problem;
  options.mode = job.mode;
  options.bcast_algo = job.bcast_algo;
  options.layers = job.layers;
  options.algorithm = job.algorithm;
  options.overlap = job.overlap;
  options.lookahead = job.lookahead;
  options.verify = job.verify;
  options.seed = job.seed;
  options.row_levels = job.row_levels;
  options.col_levels = job.col_levels;
  core::adapt_hierarchy(job.effective_hierarchy(), options);
  {
    Span run(tracer, "core.run", Layer::Core, job_index);
    const auto start = Clock::now();
    out.result = core::run(*machine, options);
    out.run_s = seconds_since(start);
  }
  out.events = engine.events_processed();
  out.heap_peak = engine.heap_peak();
  out.rank_pages = machine->rank_pages_materialized();
  trace::MetricsRegistry registry;
  machine->collect_metrics(registry);
  for (const auto& [name, value] : registry.counters())
    if (name.rfind("mpc.bcast_algo.", 0) == 0 &&
        name.size() > 6 && name.compare(name.size() - 6, 6, ".calls") == 0)
      out.bcast_calls += value;
  {
    Span dtor(tracer, "mpc.machine_dtor", Layer::Mpc, job_index);
    machine.reset();
  }
  return out;
}

// --- goldens ---------------------------------------------------------------

struct Goldens {
  std::uint64_t seed = 0;
  std::map<std::string, std::string> digests;  // label -> digest
};

/// Reads `<dir>/<workload>.json`: only the running workload's digests.
Goldens load_goldens(const std::string& dir, const std::string& workload,
                     bool tiny) {
  const std::string path = dir + "/" + workload + ".json";
  std::ifstream in(path);
  HS_REQUIRE_MSG(in, "cannot open goldens file '" << path << "'");
  std::stringstream text;
  text << in.rdbuf();
  std::string error;
  const JsonValue root = parse_json(text.str(), &error);
  HS_REQUIRE_MSG(error.empty() && root.is_object(),
                 "bad goldens file '" << path << "': " << error);
  Goldens goldens;
  goldens.seed = static_cast<std::uint64_t>(root.at("seed").number());
  for (const auto& [label, value] : root.at(tiny ? "tiny" : "full").object())
    goldens.digests[label] = value.string();
  return goldens;
}

// --- measurement helpers ---------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

long long peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) {
      long long kb = 0;
      std::sscanf(line.c_str(), "VmHWM: %lld", &kb);
      return kb;
    }
  return 0;
}

struct Options {
  std::string command;
  std::string workload;
  std::uint64_t seed = 1;
  bool tiny = false;
  std::string point;
  bool trace = false;
  std::string spans_path;
  std::string store_dir;
  std::string goldens_dir;
  bool plant_mismatch = false;
  bool counters = false;
  bool setup_only = false;
  Clock::time_point process_start = Clock::now();
};

/// Everything one iteration measured; printed as the result JSON.
struct Iteration {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t events = 0;
  JsonObject layers;

  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
  void set(const std::string& name, double value) {
    layers[name] = JsonValue{value};
  }
};

class Runner {
 public:
  Runner(const Options& options, Tracer* tracer)
      : options_(options), tracer_(tracer) {}

  Iteration run() {
    if (options_.workload == "figs_closed") return run_executor();
    if (options_.workload == "noise_store") return run_store();
    return run_serial();
  }

 private:
  /// Set-up shared by every workload: golden load and job generation.
  void base_setup(Workload& workload, Goldens& goldens) {
    {
      Span span(tracer_, "goldens.load", Layer::Bench);
      goldens = load_goldens(options_.goldens_dir, options_.workload,
                             options_.tiny);
    }
    workload = make_workload(options_.workload, options_.tiny, options_.seed,
                             options_.point);
    if (options_.plant_mismatch && !workload.jobs.empty()) {
      // A deliberately wrong golden: the self-test requires it to be
      // counted as a failed operation.
      auto it = goldens.digests.find(workload.jobs.front().label);
      if (it != goldens.digests.end()) it->second[3] ^= 1;
    }
  }

  /// Ends the set-up: records the time since process start and tells
  /// whether the iteration stops here (--setup-only).
  bool setup_done(Iteration& it) const {
    it.setup_s = seconds_since(options_.process_start);
    return options_.setup_only;
  }

  /// Runs `op`; an exception fails operation `label` instead of the run.
  template <typename Op>
  static bool guarded(Iteration& it, const std::string& label, Op&& op) {
    try {
      op();
      return true;
    } catch (const std::exception& e) {
      it.fail(label + ": threw: " + e.what());
      return false;
    }
  }

  /// Whether the committed goldens cover this run: noise jobs draw their
  /// seeds from the workload seed, and goldens exist for one seed only.
  /// Other seeds are checked against independent direct runs instead.
  bool goldens_apply(const Goldens& goldens) const {
    return options_.workload != "noise_store" ||
           goldens.seed == options_.seed;
  }

  void check(Iteration& it, const Goldens& goldens, const Job& job,
             const core::RunResult& result,
             std::optional<std::uint64_t> events) {
    if (!goldens_apply(goldens)) return;
    const auto golden = goldens.digests.find(job.label);
    if (golden == goldens.digests.end()) {
      it.fail(job.label + ": no golden");
      return;
    }
    const std::string ours = digest(result, events);
    const bool ok = events.has_value()
                        ? ours == golden->second
                        : ours == without_events(golden->second);
    if (!ok) it.fail(job.label + ": " + ours + " != " + golden->second);
  }

  void record_points(Iteration& it, const Workload& workload,
                     const std::vector<double>& run_s,
                     const std::vector<std::uint64_t>& events) {
    double summa = 0.0, hsumma = 0.0;
    double summa_events = 0.0, hsumma_events = 0.0;
    for (std::size_t i = 0; i < workload.jobs.size(); ++i) {
      const std::string& label = workload.jobs[i].label;
      if (in_point(label, workload.summa_point)) {
        summa += run_s[i];
        summa_events += static_cast<double>(events[i]);
      }
      if (in_point(label, workload.hsumma_point)) {
        hsumma += run_s[i];
        hsumma_events += static_cast<double>(events[i]);
      }
    }
    it.set("core.run_s.summa", summa);
    it.set("core.run_s.hsumma", hsumma);
    if (summa > 0.0 && hsumma > 0.0 && summa_events > 0.0 &&
        hsumma_events > 0.0)
      it.set("core.hsumma_over_summa",
             (hsumma / hsumma_events) / (summa / summa_events));
  }

  /// Engine and machine counters plus a direct-path check of every distinct
  /// executor job, whose timed pass cannot see inside the engine. Runs
  /// after the timed phase, once per traced run (--counters).
  void direct_pass(Iteration& it, const Workload& workload,
                   const Goldens& goldens,
                   const std::vector<core::RunResult>& results,
                   const std::vector<bool>& ok) {
    std::map<std::string, bool> seen;
    std::uint64_t heap_peak = 0, bcast_calls = 0, pages = 0;
    double ctor_s = 0.0;
    for (std::size_t i = 0; i < workload.jobs.size(); ++i) {
      const Job& job = workload.jobs[i];
      if (!ok[i] || !seen.emplace(job.sim.cache_key(), true).second)
        continue;
      DirectRun direct;
      if (!guarded(it, job.label,
                   [&] { direct = run_direct(job.sim, nullptr, -1); }))
        continue;
      if (!same_result(direct.result, results[i]))
        it.fail(job.label + ": direct path differs from executor result");
      check(it, goldens, job, direct.result, direct.events);
      heap_peak = std::max(heap_peak, direct.heap_peak);
      bcast_calls += direct.bcast_calls;
      pages = std::max(pages, direct.rank_pages);
      ctor_s += direct.machine_ctor_s;
    }
    it.set("desim.heap_peak", static_cast<double>(heap_peak));
    it.set("mpc.bcast_calls", static_cast<double>(bcast_calls));
    it.set("mpc.rank_pages", static_cast<double>(pages));
    it.set("mpc.machine_ctor_s", ctor_s);
  }

  static void executor_counters(Iteration& it,
                                const exec::ParallelExecutor& executor,
                                double wall_s, const std::string& prefix) {
    const auto submitted = executor.jobs_submitted();
    const double run_s = 1e-9 * static_cast<double>(executor.run_ns_total());
    it.set(prefix + "submitted", static_cast<double>(submitted));
    it.set(prefix + "engines_run",
           static_cast<double>(executor.engines_run()));
    it.set(prefix + "cache_hits", static_cast<double>(executor.cache_hits()));
    it.set(prefix + "coalesced", static_cast<double>(executor.coalesced()));
    it.set(prefix + "store_hits", static_cast<double>(executor.store_hits()));
    it.set(prefix + "hit_ratio",
           submitted > 0 ? static_cast<double>(executor.cache_hits()) /
                               static_cast<double>(submitted)
                         : 0.0);
    it.set(prefix + "run_s", run_s);
    it.set(prefix + "busy_frac",
           wall_s > 0.0 ? run_s / (wall_s * executor.jobs()) : 0.0);
  }

  // lookahead_chain and p2p_scale: serial direct runs.
  Iteration run_serial() {
    Iteration it;
    Workload workload;
    Goldens goldens;
    {
      Span span(tracer_, "setup", Layer::Bench);
      base_setup(workload, goldens);
    }
    if (setup_done(it)) return it;

    std::vector<DirectRun> runs(workload.jobs.size());
    std::vector<bool> ok(workload.jobs.size(), false);
    const auto start = Clock::now();
    const double cpu_start = cpu_seconds();
    {
      Span root(tracer_, "workload", Layer::Bench);
      for (std::size_t i = 0; i < workload.jobs.size(); ++i)
        ok[i] = guarded(it, workload.jobs[i].label, [&] {
          runs[i] = run_direct(workload.jobs[i].sim, tracer_,
                               static_cast<int>(i));
        });
    }
    it.wall_s = seconds_since(start);
    it.cpu_s = cpu_seconds() - cpu_start;

    std::uint64_t heap_peak = 0, bcast_calls = 0, pages = 0, msgs = 0,
                  bytes = 0;
    double ctor_s = 0.0, run_s = 0.0;
    std::vector<double> point_run_s;
    std::vector<std::uint64_t> point_events;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const DirectRun& run = runs[i];
      ++it.attempted;
      if (!ok[i]) continue;
      check(it, goldens, workload.jobs[i], run.result, run.events);
      it.events += run.events;
      heap_peak = std::max(heap_peak, run.heap_peak);
      bcast_calls += run.bcast_calls;
      pages = std::max(pages, run.rank_pages);
      msgs += run.result.messages;
      bytes += run.result.wire_bytes;
      ctor_s += run.machine_ctor_s;
      run_s += run.run_s;
      point_run_s.push_back(run.run_s);
      point_events.push_back(run.events);
      it.set("core.run_s." + workload.jobs[i].label, run.run_s);
    }
    it.set("desim.heap_peak", static_cast<double>(heap_peak));
    it.set("desim.ns_per_event",
           it.events > 0 ? 1e9 * run_s / static_cast<double>(it.events)
                         : 0.0);
    it.set("mpc.bcast_calls", static_cast<double>(bcast_calls));
    it.set("mpc.rank_pages", static_cast<double>(pages));
    it.set("mpc.messages", static_cast<double>(msgs));
    it.set("mpc.wire_bytes", static_cast<double>(bytes));
    it.set("mpc.machine_ctor_s", ctor_s);
    record_points(it, workload, point_run_s, point_events);
    for (const std::string& shape : workload.lookahead_shapes) {
      double ns[3] = {0.0, 0.0, 0.0};
      for (std::size_t i = 0; i < runs.size(); ++i)
        for (int depth : {0, 2})
          if (ok[i] && workload.jobs[i].label ==
                           "la.d" + std::to_string(depth) + "." + shape)
            ns[depth] = runs[i].run_s / static_cast<double>(runs[i].events);
      it.set("core.lookahead_cost." + shape,
             ns[0] > 0.0 ? ns[2] / ns[0] : 0.0);
    }
    return it;
  }

  // figs_closed: one executor, in-memory cache, no store.
  Iteration run_executor() {
    Iteration it;
    Workload workload;
    Goldens goldens;
    std::unique_ptr<exec::ParallelExecutor> executor;
    {
      Span span(tracer_, "setup", Layer::Bench);
      base_setup(workload, goldens);
      Span ctor(tracer_, "exec.ctor", Layer::Exec);
      executor = std::make_unique<exec::ParallelExecutor>(
          exec::ExecutorOptions{.jobs = workload.workers});
    }
    if (setup_done(it)) return it;

    std::vector<core::RunResult> results(workload.jobs.size());
    std::vector<bool> ok(workload.jobs.size(), false);
    std::vector<double> submit_us;
    std::vector<double> run_s(workload.jobs.size(), 0.0);
    const auto start = Clock::now();
    const double cpu_start = cpu_seconds();
    {
      Span root(tracer_, "workload", Layer::Bench);
      std::vector<std::size_t> indices;
      for (std::size_t i = 0; i < workload.jobs.size(); ++i) {
        Span span(tracer_, "exec.submit", Layer::Exec, static_cast<int>(i));
        const auto t = Clock::now();
        indices.push_back(executor->submit(workload.jobs[i].sim));
        submit_us.push_back(1e6 * seconds_since(t));
      }
      for (std::size_t i = 0; i < indices.size(); ++i) {
        Span span(tracer_, "exec.result", Layer::Exec, static_cast<int>(i));
        ok[i] = guarded(it, workload.jobs[i].label,
                        [&] { results[i] = executor->result(indices[i]); });
      }
    }
    it.wall_s = seconds_since(start);
    it.cpu_s = cpu_seconds() - cpu_start;
    executor_counters(it, *executor, it.wall_s, "exec.");
    for (std::size_t i = 0; i < workload.jobs.size(); ++i)
      run_s[i] = 1e-9 * static_cast<double>(executor->run_ns(i));
    executor.reset();
    it.set("exec.submit_us.p50", percentile(submit_us, 0.5));
    it.set("exec.submit_us.p99", percentile(submit_us, 0.99));

    std::uint64_t msgs = 0, bytes = 0;
    std::vector<std::uint64_t> events(workload.jobs.size(), 0);
    std::map<std::string, bool> seen;
    for (std::size_t i = 0; i < workload.jobs.size(); ++i) {
      const Job& job = workload.jobs[i];
      ++it.attempted;
      if (!ok[i]) continue;
      check(it, goldens, job, results[i], std::nullopt);
      if (!seen.emplace(job.sim.cache_key(), true).second) continue;
      // One engine ran per distinct job. The executor cannot see its event
      // count, so the count is the golden's; the --counters pass of the
      // first traced iteration checks it against a direct run.
      const auto golden = goldens.digests.find(job.label);
      if (golden != goldens.digests.end()) {
        const auto at = golden->second.find(";events=");
        if (at != std::string::npos)
          events[i] = std::stoull(golden->second.substr(at + 8));
      }
      it.events += events[i];
      msgs += results[i].messages;
      bytes += results[i].wire_bytes;
    }
    double engine_s = 0.0;
    for (double s : run_s) engine_s += s;
    it.set("desim.ns_per_event",
           it.events > 0 ? 1e9 * engine_s / static_cast<double>(it.events)
                         : 0.0);
    it.set("mpc.messages", static_cast<double>(msgs));
    it.set("mpc.wire_bytes", static_cast<double>(bytes));
    record_points(it, workload, run_s, events);
    if (options_.counters) direct_pass(it, workload, goldens, results, ok);
    return it;
  }

  // noise_store: a cold pass publishing into an empty store, then warm
  // replay rounds, each through a fresh store and a fresh executor on the
  // same directory.
  Iteration run_store() {
    Iteration it;
    Workload workload;
    Goldens goldens;
    const std::string root = options_.store_dir;
    HS_REQUIRE_MSG(!root.empty(), "noise_store needs --store-dir");
    const auto open_store = [&] {
      return std::make_shared<store::ResultStore>(
          store::StoreOptions{.root = root});
    };
    std::shared_ptr<store::ResultStore> store;
    std::unique_ptr<exec::ParallelExecutor> executor;
    {
      Span span(tracer_, "setup", Layer::Bench);
      base_setup(workload, goldens);
      std::filesystem::remove_all(root);
      {
        Span open(tracer_, "store.open", Layer::Store);
        store = open_store();
      }
      Span ctor(tracer_, "exec.ctor", Layer::Exec);
      executor = std::make_unique<exec::ParallelExecutor>(
          exec::ExecutorOptions{.jobs = workload.workers, .store = store});
    }
    if (setup_done(it)) {
      executor.reset();
      store.reset();
      std::filesystem::remove_all(root);
      return it;
    }

    // Cold pass: every job runs an engine and is published.
    std::vector<core::RunResult> cold(workload.jobs.size());
    std::vector<bool> ok(workload.jobs.size(), false);
    std::vector<double> run_s(workload.jobs.size(), 0.0);
    store::StoreStats cold_stats;
    const auto cold_start = Clock::now();
    const double cpu_start = cpu_seconds();
    {
      Span root_span(tracer_, "publish", Layer::Bench);
      std::vector<std::size_t> indices;
      for (std::size_t i = 0; i < workload.jobs.size(); ++i) {
        Span span(tracer_, "exec.submit", Layer::Exec, static_cast<int>(i));
        indices.push_back(executor->submit(workload.jobs[i].sim));
      }
      for (std::size_t i = 0; i < indices.size(); ++i) {
        Span span(tracer_, "exec.result", Layer::Exec, static_cast<int>(i));
        ok[i] = guarded(it, workload.jobs[i].label,
                        [&] { cold[i] = executor->result(indices[i]); });
      }
      {
        Span dtor(tracer_, "exec.dtor", Layer::Exec);
        executor->wait_all();
        for (std::size_t i = 0; i < workload.jobs.size(); ++i)
          run_s[i] = 1e-9 * static_cast<double>(executor->run_ns(i));
        executor_counters(it, *executor, 0.0, "cold.exec.");
        executor.reset();
      }
      Span close(tracer_, "store.close", Layer::Store);
      cold_stats = store->stats();
      store.reset();
    }
    const double publish_s = seconds_since(cold_start);
    double cold_run_s = 0.0;
    for (double s : run_s) cold_run_s += s;
    it.attempted += workload.jobs.size();

    // Replay: one closed-loop client, submit then wait, job by job.
    const int rounds = options_.tiny ? kReplayRoundsTiny : kReplayRounds;
    std::vector<double> latency_us, submit_us, open_s;
    std::uint64_t hits = 0, misses = 0;
    store::StoreStats stats;
    const auto warm_start = Clock::now();
    for (int round = 0; round < rounds; ++round) {
      Span root_span(tracer_, "replay", Layer::Bench);
      const auto round_start = Clock::now();
      {
        Span open(tracer_, "store.open", Layer::Store);
        const auto t = Clock::now();
        store = open_store();
        open_s.push_back(seconds_since(t));
      }
      {
        Span ctor(tracer_, "exec.ctor", Layer::Exec);
        executor = std::make_unique<exec::ParallelExecutor>(
            exec::ExecutorOptions{.jobs = workload.workers, .store = store});
      }
      for (std::size_t i = 0; i < workload.jobs.size(); ++i) {
        ++it.attempted;
        const auto t = Clock::now();
        std::size_t index = 0;
        {
          Span span(tracer_, "exec.submit", Layer::Exec, static_cast<int>(i));
          index = executor->submit(workload.jobs[i].sim);
        }
        submit_us.push_back(1e6 * seconds_since(t));
        Span span(tracer_, "exec.result", Layer::Exec, static_cast<int>(i));
        core::RunResult result;
        const bool replayed = guarded(it, workload.jobs[i].label, [&] {
          result = executor->result(index);
        });
        latency_us.push_back(1e6 * seconds_since(t));
        if (replayed && ok[i] && !same_result(result, cold[i]))
          it.fail(workload.jobs[i].label + ": replay differs from cold");
      }
      {
        Span dtor(tracer_, "exec.dtor", Layer::Exec);
        // A replay that had to simulate again was not served by the store.
        if (executor->engines_run() > 0)
          it.fail("replay round " + std::to_string(round) + " ran " +
                  std::to_string(executor->engines_run()) + " engines");
        if (round + 1 == rounds)
          executor_counters(it, *executor, seconds_since(round_start),
                            "exec.");
        executor.reset();
      }
      Span close(tracer_, "store.close", Layer::Store);
      stats = store->stats();
      hits += stats.hits;
      misses += stats.misses;
      store.reset();
    }
    const double replay_s = seconds_since(warm_start);
    it.cpu_s = cpu_seconds() - cpu_start;
    std::filesystem::remove_all(root);

    it.wall_s = publish_s + replay_s;
    it.set("publish_s", publish_s);
    it.set("replay_s", replay_s);
    it.set("replay_p50_us", percentile(latency_us, 0.5));
    it.set("replay_p99_us", percentile(latency_us, 0.99));
    it.set("replay_samples", static_cast<double>(latency_us.size()));
    it.set("exec.submit_us.p50", percentile(submit_us, 0.5));
    it.set("exec.submit_us.p99", percentile(submit_us, 0.99));
    it.set("store.open_s", median(open_s));
    it.set("store.publish_overhead_s", publish_s - cold_run_s);
    it.set("store.hit_ratio",
           hits + misses > 0 ? static_cast<double>(hits) /
                                   static_cast<double>(hits + misses)
                             : 0.0);
    // Per round; every round replays the same jobs from the same objects.
    it.set("store.hits", static_cast<double>(stats.hits));
    it.set("store.misses", static_cast<double>(stats.misses));
    it.set("store.bad_entries", static_cast<double>(stats.bad_entries));
    it.set("store.bytes", static_cast<double>(stats.bytes));
    it.set("store.entries", static_cast<double>(stats.entries));
    it.set("store.writes", static_cast<double>(cold_stats.writes));

    // Every job is checked against an independent direct engine run (any
    // seed), against the committed golden (the default seed), and its
    // message counts against the seed-independent golden of its G.
    std::uint64_t heap_peak = 0, bcast_calls = 0, pages = 0, msgs = 0,
                  bytes = 0;
    double ctor_s = 0.0, direct_s = 0.0;
    std::vector<std::uint64_t> events(workload.jobs.size(), 0);
    for (std::size_t i = 0; i < workload.jobs.size(); ++i) {
      const Job& job = workload.jobs[i];
      DirectRun direct;
      if (!ok[i] || !guarded(it, job.label, [&] {
            direct = run_direct(job.sim, nullptr, -1);
          }))
        continue;
      if (!same_result(direct.result, cold[i]))
        it.fail(job.label + ": cold result differs from a direct run");
      check(it, goldens, job, direct.result, direct.events);
      const std::string counts_label =
          job.label.substr(0, job.label.rfind(".r")) + ".r0";
      const auto golden = goldens.digests.find(counts_label);
      if (golden == goldens.digests.end()) {
        it.fail(job.label + ": no counts golden");
      } else {
        const std::string ours = digest(direct.result, std::nullopt);
        const std::string theirs = without_events(golden->second);
        if (ours.substr(ours.find(";msgs=")) !=
            theirs.substr(theirs.find(";msgs=")))
          it.fail(job.label + ": message counts differ from " +
                  counts_label);
      }
      events[i] = direct.events;
      it.events += direct.events;
      heap_peak = std::max(heap_peak, direct.heap_peak);
      bcast_calls += direct.bcast_calls;
      pages = std::max(pages, direct.rank_pages);
      msgs += direct.result.messages;
      bytes += direct.result.wire_bytes;
      ctor_s += direct.machine_ctor_s;
      direct_s += direct.run_s;
    }
    it.set("desim.heap_peak", static_cast<double>(heap_peak));
    it.set("desim.ns_per_event",
           it.events > 0 ? 1e9 * direct_s / static_cast<double>(it.events)
                         : 0.0);
    it.set("mpc.bcast_calls", static_cast<double>(bcast_calls));
    it.set("mpc.messages", static_cast<double>(msgs));
    it.set("mpc.wire_bytes", static_cast<double>(bytes));
    it.set("mpc.machine_ctor_s", ctor_s);
    it.set("mpc.rank_pages", static_cast<double>(pages));
    record_points(it, workload, run_s, events);
    return it;
  }

  const Options& options_;
  Tracer* tracer_;
};

JsonValue manifest() {
  JsonObject m;
  m["build_type"] = {std::string(HOSTBENCH_BUILD_TYPE)};
#ifdef NDEBUG
  m["asserts"] = {false};
#else
  m["asserts"] = {true};
#endif
#ifdef __clang__
  m["compiler"] = {std::string("clang ") + __clang_version__};
#else
  m["compiler"] = {std::string("gcc ") + __VERSION__};
#endif
  m["hardware_threads"] = {
      static_cast<double>(std::thread::hardware_concurrency())};
  m["store_fingerprint"] = {store::simulator_fingerprint()};
  return {m};
}

int cmd_run(const Options& options) {
  Tracer tracer;
  Runner runner(options, options.trace ? &tracer : nullptr);
  Iteration it = runner.run();
  JsonObject out;
  out["workload"] = {options.workload};
  out["point"] = {options.point};
  out["seed"] = {static_cast<double>(options.seed)};
  out["tiny"] = {options.tiny};
  out["traced"] = {options.trace};
  out["attempted"] = {static_cast<double>(it.attempted)};
  out["failed"] = {static_cast<double>(it.failed)};
  JsonArray failures;
  for (const std::string& f : it.failures) failures.push_back({f});
  out["failures"] = {failures};
  out["setup_s"] = {it.setup_s};
  out["wall_s"] = {it.wall_s};
  out["cpu_s"] = {it.cpu_s};
  out["events"] = {static_cast<double>(it.events)};
  out["peak_rss_kb"] = {static_cast<double>(peak_rss_kb())};
  out["process_s"] = {seconds_since(options.process_start)};
  if (options.trace) {
    const std::vector<std::string> roots =
        options.workload == "noise_store"
            ? std::vector<std::string>{"publish", "replay"}
            : std::vector<std::string>{"workload"};
    std::vector<double> self(kLayers, 0.0);
    for (const std::string& root : roots) {
      const std::vector<double> part = tracer.self_seconds(root);
      for (int l = 0; l < kLayers; ++l) self[l] += part[l];
    }
    for (int l = 0; l < kLayers; ++l)
      it.set(std::string("self_s.") + kLayerNames[l], self[l]);
    if (!options.spans_path.empty() && !tracer.write(options.spans_path)) {
      std::fprintf(stderr, "hostbench: cannot write spans to '%s'\n",
                   options.spans_path.c_str());
      return 2;
    }
  }
  out["layers"] = {it.layers};
  out["manifest"] = manifest();
  std::cout << write_json(JsonValue{out}) << std::endl;
  return it.failed == 0 ? 0 : 1;
}

int cmd_goldens(const Options& options) {
  const Workload workload = make_workload(options.workload, options.tiny,
                                          options.seed, options.point);
  JsonObject out;
  for (const Job& job : workload.jobs) {
    const DirectRun run = run_direct(job.sim, nullptr, -1);
    out[job.label] = {digest(run.result, run.events)};
  }
  std::cout << write_json(JsonValue{out}) << std::endl;
  return 0;
}

int cmd_crosscheck(const Options& options) {
  int mismatches = 0;
  for (const std::string& name : kWorkloads) {
    const Workload workload =
        make_workload(name, options.tiny, options.seed, "");
    for (const Job& job : workload.jobs) {
      const DirectRun direct = run_direct(job.sim, nullptr, -1);
      const core::RunResult reference = exec::run_sim_job(job.sim);
      const bool same = same_result(direct.result, reference);
      if (!same) ++mismatches;
      std::printf("%-24s %s\n", job.label.c_str(), same ? "ok" : "DIFFERS");
    }
  }
  std::printf("crosscheck: %d mismatches\n", mismatches);
  return mismatches == 0 ? 0 : 1;
}

// --- host speed probe ------------------------------------------------------

/// Where a probe repetition leaves its result, so the compiler keeps its
/// work.
volatile std::uint64_t probe_sink = 0;

/// One repetition of the reference kernel: the kinds of work the simulator
/// does (integer arithmetic, a bounded event heap, random reads from a table
/// larger than the caches, small allocations, number formatting and parsing
/// into an ordered map), always on the same inputs. Returns its CPU time.
double probe_burst(const std::vector<std::uint32_t>& table) {
  const double start = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  std::uint64_t x = 0x9e3779b97f4a7c15ull, sum = 0;
  std::priority_queue<std::pair<std::uint64_t, std::uint32_t>> heap;
  std::map<std::string, double> names;
  char text[40];
  for (std::uint32_t i = 0; i < 16000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap.emplace(x & 0xffffffu, i);
    if (heap.size() > 512) {
      sum += heap.top().second;
      heap.pop();
    }
    sum += table[x & (table.size() - 1)];
    if (i % 8 == 0) {
      std::snprintf(text, sizeof text, "%a",
                    1e-9 * static_cast<double>(x >> 11));
      const std::string name(text);
      names[name.substr(0, 10)] += std::strtod(text, nullptr);
      if (names.size() > 256) names.erase(names.begin());
      sum += name.size();
    }
  }
  probe_sink = sum;
  return cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - start;
}

int cmd_probe() {
  std::vector<std::uint32_t> table(std::size_t{1} << 24);  // 64 MiB
  for (std::size_t i = 0; i < table.size(); ++i)
    table[i] = static_cast<std::uint32_t>(i * 2654435761u);
  // The parent starts the iterations only now, so filling the table does
  // not compete with them.
  std::cout << "ready" << std::endl;
  std::vector<double> bursts;
  for (;;) {
    bursts.push_back(probe_burst(table));
    // A 20 ms pause between repetitions keeps the probe to a small share
    // of one CPU; a closed stdin ends it.
    pollfd in{.fd = STDIN_FILENO, .events = POLLIN, .revents = 0};
    if (poll(&in, 1, 20) > 0) {
      char buffer[256];
      if (read(STDIN_FILENO, buffer, sizeof buffer) <= 0) break;
    }
  }
  JsonObject out;
  out["ref_ms"] = {1e3 * median(bursts)};
  out["bursts"] = {static_cast<double>(bursts.size())};
  std::cout << write_json(JsonValue{out}) << std::endl;
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: hostbench run --workload W --goldens DIR [--seed S] "
               "[--tiny] [--point summa|hsumma] [--trace] [--spans FILE] "
               "[--store-dir DIR] [--plant-mismatch] [--counters] "
               "[--spawn-ns NS] [--setup-only]\n"
               "       hostbench goldens --workload W [--seed S] [--tiny]\n"
               "       hostbench crosscheck [--tiny]\n"
               "       hostbench probe\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  Options options;
  options.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "hostbench: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") options.workload = value();
    else if (arg == "--seed") options.seed = std::stoull(value());
    else if (arg == "--tiny") options.tiny = true;
    else if (arg == "--point") options.point = value();
    else if (arg == "--trace") options.trace = true;
    else if (arg == "--spans") options.spans_path = value();
    else if (arg == "--store-dir") options.store_dir = value();
    else if (arg == "--goldens") options.goldens_dir = value();
    else if (arg == "--plant-mismatch") options.plant_mismatch = true;
    else if (arg == "--counters") options.counters = true;
    else if (arg == "--setup-only") options.setup_only = true;
    else if (arg == "--spawn-ns")
      options.process_start =
          Clock::time_point(std::chrono::nanoseconds(std::stoll(value())));
    else return usage();
  }
  try {
    if (options.command == "run") return cmd_run(options);
    if (options.command == "goldens") return cmd_goldens(options);
    if (options.command == "crosscheck") return cmd_crosscheck(options);
    if (options.command == "probe") return cmd_probe();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostbench: %s\n", e.what());
    return 2;
  }
  return usage();
}
