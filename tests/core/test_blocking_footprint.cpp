// Footprint guards for the SUMMA family's two consumers.
//
// Look-ahead D = 0 runs a blocking loop rather than the task plan inline:
// a plan materializes every step's tasks per rank up front. At fig8's
// point (p = 4096, n = 65536, b = 256, closed form, phantom payloads) the
// inline D = 0 plan gave the same virtual time, messages and events as the
// loop but reached 1,606 MB peak RSS for HSUMMA (G = 64) against 18.3 MB.
//
// Look-ahead D >= 1 runs the task plan, whose forks (one per broadcast
// stage per step per rank) must free their frames as they complete: when
// every fork's frame chain lived until the engine was destroyed, the
// heaviest look-ahead point below peaked at about 140 MB.
//
// Each test runs its point in its own process (ctest runs every test as a
// separate process; VmHWM is per process) and bounds the peak.
#include <gtest/gtest.h>

#include "common/rss_budget.hpp"
#include "core/hierarchy.hpp"
#include "exec/sim_job.hpp"
#include "net/platform.hpp"

namespace {

TEST(BlockingFootprint, Fig8HsummaPointStaysSmall) {
  const hs::net::Platform platform =
      hs::net::Platform::bluegene_p_calibrated();
  hs::exec::SimJob job;
  job.platform = platform;
  job.gamma_flop = platform.gamma_flop;
  job.collective_mode = hs::mpc::CollectiveMode::ClosedForm;
  job.machine_bcast_algo = hs::net::BcastAlgo::ScatterRingAllgather;
  job.bcast_algo = hs::net::BcastAlgo::ScatterRingAllgather;
  job.ranks = 4096;
  job.groups = 64;
  job.problem = hs::core::ProblemSpec::square(65536, 256);
  job.mode = hs::core::PayloadMode::Phantom;
  job.lookahead = 0;
  const hs::core::RunResult result = hs::exec::run_sim_job(job);
  EXPECT_GT(result.timing.total_time, 0.0);
  hs::test::expect_peak_rss_under_kb(64 * 1024,
                                     "fig8 HSUMMA G=64 at D=0, p=4096");
}

TEST(BlockingFootprint, LookaheadChainPointStaysSmall) {
  // The heaviest point of the host benchmark's lookahead_chain workload:
  // group chain 8x4 at D = 2, p = 256, n = 16384.
  const hs::net::Platform platform =
      hs::net::Platform::bluegene_p_calibrated();
  hs::exec::SimJob job;
  job.platform = platform;
  job.gamma_flop = platform.gamma_flop;
  job.collective_mode = hs::mpc::CollectiveMode::ClosedForm;
  job.machine_bcast_algo = hs::net::BcastAlgo::ScatterRingAllgather;
  job.bcast_algo = hs::net::BcastAlgo::ScatterRingAllgather;
  job.ranks = 256;
  job.hierarchy = hs::core::GroupHierarchy::parse("8x4");
  job.problem = hs::core::ProblemSpec::square(16384, 256);
  job.mode = hs::core::PayloadMode::Phantom;
  job.lookahead = 2;
  const hs::core::RunResult result = hs::exec::run_sim_job(job);
  EXPECT_GT(result.timing.total_time, 0.0);
  hs::test::expect_peak_rss_under_kb(64 * 1024,
                                     "chain 8x4 at D=2, p=256, n=16384");
}

}  // namespace
