#include "core/summa_family.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "core/runner.hpp"
#include "grid/hier_grid.hpp"

namespace {

using hs::core::Algorithm;
using hs::core::PayloadMode;
using hs::core::ProblemSpec;
using hs::core::RunOptions;
using hs::grid::GridShape;

hs::core::RunResult run_once(const RunOptions& options, double alpha = 1e-4,
                             double beta = 1e-9) {
  hs::desim::Engine engine;
  hs::mpc::Machine machine(
      engine, std::make_shared<hs::net::HockneyModel>(alpha, beta),
      {.ranks = options.grid.size(), .gamma_flop = 1e-9});
  return hs::core::run(machine, options);
}

// (grid, groups, inner block, outer block) sweep.
class HsummaCorrectnessTest
    : public ::testing::TestWithParam<
          std::tuple<GridShape, GridShape, int, int>> {};

TEST_P(HsummaCorrectnessTest, MatchesReference) {
  const auto [shape, groups, block, outer] = GetParam();
  RunOptions options;
  options.algorithm = Algorithm::Hsumma;
  options.grid = shape;
  options.groups = groups;
  options.problem = ProblemSpec::square(96, block);
  options.problem.outer_block = outer;
  options.verify = true;
  const auto result = run_once(options);
  EXPECT_LT(result.max_error, 1e-12)
      << shape.rows << "x" << shape.cols << " groups " << groups.rows << "x"
      << groups.cols << " b=" << block << " B=" << outer;
}

INSTANTIATE_TEST_SUITE_P(
    GridsGroupsBlocks, HsummaCorrectnessTest,
    ::testing::Values(
        std::make_tuple(GridShape{4, 4}, GridShape{2, 2}, 8, 0),
        std::make_tuple(GridShape{4, 4}, GridShape{2, 2}, 4, 24),
        std::make_tuple(GridShape{4, 4}, GridShape{1, 1}, 8, 0),
        std::make_tuple(GridShape{4, 4}, GridShape{4, 4}, 8, 0),
        std::make_tuple(GridShape{4, 4}, GridShape{2, 4}, 8, 0),
        std::make_tuple(GridShape{4, 4}, GridShape{1, 4}, 6, 12),
        std::make_tuple(GridShape{6, 6}, GridShape{3, 3}, 4, 8),
        std::make_tuple(GridShape{6, 6}, GridShape{2, 3}, 8, 16),
        std::make_tuple(GridShape{2, 4}, GridShape{2, 2}, 4, 12),
        std::make_tuple(GridShape{8, 2}, GridShape{4, 1}, 6, 6),
        std::make_tuple(GridShape{1, 8}, GridShape{1, 8}, 12, 12)));

TEST(Hsumma, RectangularProblemWithTwoBlockSizes) {
  RunOptions options;
  options.algorithm = Algorithm::Hsumma;
  options.grid = {4, 2};
  options.groups = {2, 2};
  options.problem = {/*m=*/64, /*k=*/96, /*n=*/48, /*block=*/4};
  options.problem.outer_block = 12;
  options.verify = true;
  EXPECT_LT(run_once(options).max_error, 1e-12);
}

TEST(Hsumma, SingleGroupWithEqualBlocksIsExactlySumma) {
  RunOptions options;
  options.grid = {4, 4};
  options.problem = ProblemSpec::square(128, 8);
  options.mode = PayloadMode::Phantom;

  options.algorithm = Algorithm::Hsumma;
  options.groups = {1, 1};
  const auto hsumma = run_once(options);
  options.algorithm = Algorithm::Summa;
  const auto summa = run_once(options);

  EXPECT_DOUBLE_EQ(hsumma.timing.total_time, summa.timing.total_time);
  EXPECT_DOUBLE_EQ(hsumma.timing.max_comm_time, summa.timing.max_comm_time);
  EXPECT_EQ(hsumma.messages, summa.messages);
  EXPECT_EQ(hsumma.wire_bytes, summa.wire_bytes);
}

TEST(Hsumma, AllGroupsWithEqualBlocksIsExactlySumma) {
  RunOptions options;
  options.grid = {4, 4};
  options.problem = ProblemSpec::square(128, 8);
  options.mode = PayloadMode::Phantom;

  options.algorithm = Algorithm::Hsumma;
  options.groups = {4, 4};
  const auto hsumma = run_once(options);
  options.algorithm = Algorithm::Summa;
  const auto summa = run_once(options);

  EXPECT_DOUBLE_EQ(hsumma.timing.total_time, summa.timing.total_time);
  EXPECT_EQ(hsumma.messages, summa.messages);
  EXPECT_EQ(hsumma.wire_bytes, summa.wire_bytes);
}

TEST(Hsumma, TotalWireVolumeEqualsSummaForEqualBlocks) {
  // The paper: "The amount of data sent is the same as in SUMMA" (with the
  // tree/ring algorithms the *wire* bytes differ by the broadcast shape,
  // so compare under the Flat algorithm where every broadcast ships
  // exactly (participants-1) copies and the hierarchy splits them).
  RunOptions options;
  options.grid = {4, 4};
  options.problem = ProblemSpec::square(64, 8);
  options.mode = PayloadMode::Phantom;
  options.bcast_algo = hs::net::BcastAlgo::Flat;

  options.algorithm = Algorithm::Summa;
  const auto summa = run_once(options);
  options.algorithm = Algorithm::Hsumma;
  options.groups = {2, 2};
  const auto hsumma = run_once(options);
  EXPECT_EQ(hsumma.wire_bytes, summa.wire_bytes);
}

TEST(Hsumma, StepCountInvariant) {
  // n/B outer x B/b inner steps == n/b SUMMA steps: same compute time.
  RunOptions options;
  options.grid = {4, 4};
  options.mode = PayloadMode::Phantom;

  options.algorithm = Algorithm::Summa;
  options.problem = ProblemSpec::square(128, 4);
  const auto summa = run_once(options);

  options.algorithm = Algorithm::Hsumma;
  options.groups = {2, 2};
  options.problem.outer_block = 32;
  const auto hsumma = run_once(options);
  EXPECT_NEAR(hsumma.timing.max_comp_time, summa.timing.max_comp_time,
              summa.timing.max_comp_time * 1e-9);
}

TEST(Hsumma, InteriorGroupCountBeatsSummaWhenLatencyDominates) {
  // alpha/beta >> 2nb/p: the paper's eq. 10 regime. Use the linear-latency
  // van de Geijn broadcast where hierarchy shortens the ring.
  RunOptions options;
  options.grid = {8, 8};
  options.problem = ProblemSpec::square(512, 16);
  options.mode = PayloadMode::Phantom;
  options.bcast_algo = hs::net::BcastAlgo::ScatterRingAllgather;

  options.algorithm = Algorithm::Summa;
  const auto summa = run_once(options, /*alpha=*/1e-3, /*beta=*/1e-9);
  options.algorithm = Algorithm::Hsumma;
  options.groups = {2, 4};  // G = 8 = sqrt(64)
  const auto hsumma = run_once(options, 1e-3, 1e-9);

  EXPECT_LT(hsumma.timing.max_comm_time, summa.timing.max_comm_time);
  // Latency factor drops from 2*(3+7) to 2*(5+2): about a 0.7x ratio.
  EXPECT_LT(hsumma.timing.max_comm_time,
            0.75 * summa.timing.max_comm_time);
}

TEST(Hsumma, DivisibilityChecks) {
  ProblemSpec problem = ProblemSpec::square(96, 8);
  problem.outer_block = 12;  // not a multiple of 8
  EXPECT_THROW(hs::core::check_hsumma_divisibility({4, 4}, {2, 2}, problem),
               hs::PreconditionError);
  problem.block = 4;
  problem.outer_block = 12;
  EXPECT_NO_THROW(
      hs::core::check_hsumma_divisibility({4, 4}, {2, 2}, problem));
  // Outer block must align to one owner: 96 % (4*24) == 0 holds, but a
  // 5-column grid cannot align.
  EXPECT_THROW(hs::core::check_hsumma_divisibility({4, 5}, {2, 1}, problem),
               hs::PreconditionError);
  // Groups must divide the grid.
  problem = ProblemSpec::square(96, 4);
  EXPECT_THROW(hs::core::check_hsumma_divisibility({4, 4}, {3, 2}, problem),
               hs::PreconditionError);
}

TEST(Hsumma, PhantomAndRealHaveIdenticalTiming) {
  RunOptions options;
  options.algorithm = Algorithm::Hsumma;
  options.grid = {4, 4};
  options.groups = {2, 2};
  options.problem = ProblemSpec::square(64, 8);
  options.problem.outer_block = 16;

  options.mode = PayloadMode::Real;
  const auto real = run_once(options);
  options.mode = PayloadMode::Phantom;
  const auto phantom = run_once(options);
  EXPECT_DOUBLE_EQ(real.timing.total_time, phantom.timing.total_time);
  EXPECT_EQ(real.messages, phantom.messages);
}

TEST(Hsumma, LargerOuterBlockReducesInterGroupLatency) {
  RunOptions options;
  options.algorithm = Algorithm::Hsumma;
  options.grid = {4, 4};
  options.groups = {2, 2};
  options.mode = PayloadMode::Phantom;
  options.bcast_algo = hs::net::BcastAlgo::Binomial;

  options.problem = ProblemSpec::square(256, 4);
  options.problem.outer_block = 4;  // B == b: many inter-group steps
  const auto small_outer = run_once(options, /*alpha=*/1e-3, /*beta=*/1e-9);
  options.problem.outer_block = 64;  // fewer, bigger inter-group messages
  const auto large_outer = run_once(options, 1e-3, 1e-9);
  EXPECT_LT(large_outer.timing.max_comm_time,
            small_outer.timing.max_comm_time);
}

}  // namespace
