#include "grid/hier_grid.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/hier_bcast.hpp"

namespace {

using hs::grid::GridShape;
using hs::mpc::Machine;

std::shared_ptr<hs::net::HockneyModel> hockney() {
  return std::make_shared<hs::net::HockneyModel>(1e-5, 1e-9);
}

/// The four communicators of the paper's Algorithm 1 for process `self` of
/// an s x t grid split into I x J groups, as the SUMMA family builds them:
/// broadcast chains {J} along the grid row and {I} along the grid column.
/// A broadcast rooted at the process itself runs the inter-group stage on
/// its group row (column) and then the in-group stage on its row (column)
/// inside the group.
struct TwoLevelComms {
  hs::mpc::Comm group_row;  // P(x,*)(i,j)
  hs::mpc::Comm row;        // P(x,y)(i,*)
  hs::mpc::Comm group_col;  // P(*,y)(i,j)
  hs::mpc::Comm col;        // P(x,y)(*,j)
  hs::mpc::Comm flat_row;   // the whole grid row
  hs::mpc::Comm flat_col;   // the whole grid column
};

TwoLevelComms two_level(Machine& machine, int self, GridShape grid,
                        GridShape groups) {
  const hs::grid::ProcessGrid pg(machine.world(self), grid);
  const std::vector<hs::core::BcastStage> a =
      hs::core::BcastChain(pg.row_comm(), {groups.cols}, /*keep_trivial=*/true)
          .stages(pg.row_comm().rank());
  const std::vector<hs::core::BcastStage> b =
      hs::core::BcastChain(pg.col_comm(), {groups.rows}, /*keep_trivial=*/true)
          .stages(pg.col_comm().rank());
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(a[0].level, 0);
  EXPECT_EQ(a[1].level, 1);
  return {a[0].comm, a[1].comm, b[0].comm, b[1].comm, pg.row_comm(),
          pg.col_comm()};
}

TEST(GroupArrangement, PicksDividingShapes) {
  EXPECT_EQ(hs::grid::group_arrangement({6, 6}, 9), (GridShape{3, 3}));
  EXPECT_EQ(hs::grid::group_arrangement({6, 6}, 4), (GridShape{2, 2}));
  EXPECT_EQ(hs::grid::group_arrangement({6, 6}, 1), (GridShape{1, 1}));
  EXPECT_EQ(hs::grid::group_arrangement({6, 6}, 36), (GridShape{6, 6}));
  EXPECT_EQ(hs::grid::group_arrangement({8, 16}, 8), (GridShape{2, 4}));
}

TEST(GroupArrangement, ImpossibleCountsReturnZero) {
  EXPECT_EQ(hs::grid::group_arrangement({6, 6}, 5).size(), 0);
  EXPECT_EQ(hs::grid::group_arrangement({6, 6}, 0).size(), 0);
  EXPECT_EQ(hs::grid::group_arrangement({6, 6}, 37).size(), 0);
  EXPECT_EQ(hs::grid::group_arrangement({4, 4}, 8).size(), 8);  // 2x4 works
  EXPECT_EQ(hs::grid::group_arrangement({2, 2}, 8).size(), 0);
}

TEST(GroupArrangement, ValidCountsForPaperGrids) {
  // 6x6 grid from the paper's Figure 2.
  const auto counts = hs::grid::valid_group_counts({6, 6});
  EXPECT_EQ(counts, (std::vector<int>{1, 2, 3, 4, 6, 9, 12, 18, 36}));
}

TEST(HierGrid, PaperFigure2Layout) {
  // 6x6 grid, 3x3 groups of 2x2 processors (the paper's Figure 2).
  hs::desim::Engine engine;
  Machine machine(engine, hockney(), {.ranks = 36});
  // World rank 14 = grid (2, 2): group (1,1), local (0,0).
  const TwoLevelComms hg = two_level(machine, 14, {6, 6}, {3, 3});

  // Group row: same group row (1), local (0,0), group cols 0..2:
  // grid positions (2,0), (2,2), (2,4) -> world 12, 14, 16.
  EXPECT_EQ(hg.group_row.size(), 3);
  EXPECT_EQ(hg.group_row.world_rank(0), 12);
  EXPECT_EQ(hg.group_row.world_rank(1), 14);
  EXPECT_EQ(hg.group_row.world_rank(2), 16);
  EXPECT_EQ(hg.group_row.rank(), 1);

  // Group column: same group col, local (0,0): grid (0,2),(2,2),(4,2).
  EXPECT_EQ(hg.group_col.size(), 3);
  EXPECT_EQ(hg.group_col.world_rank(0), 2);
  EXPECT_EQ(hg.group_col.world_rank(1), 14);
  EXPECT_EQ(hg.group_col.world_rank(2), 26);

  // Row inside the group: grid (2,2),(2,3) -> world 14, 15.
  EXPECT_EQ(hg.row.size(), 2);
  EXPECT_EQ(hg.row.world_rank(0), 14);
  EXPECT_EQ(hg.row.world_rank(1), 15);

  // Column inside the group: grid (2,2),(3,2) -> world 14, 20.
  EXPECT_EQ(hg.col.size(), 2);
  EXPECT_EQ(hg.col.world_rank(0), 14);
  EXPECT_EQ(hg.col.world_rank(1), 20);
}

TEST(HierGrid, SingleGroupDegeneratesToFlatGrid) {
  hs::desim::Engine engine;
  Machine machine(engine, hockney(), {.ranks = 12});
  const TwoLevelComms hg = two_level(machine, 5, {3, 4}, {1, 1});
  EXPECT_EQ(hg.group_row.size(), 1);
  EXPECT_EQ(hg.group_col.size(), 1);
  EXPECT_EQ(hg.row.size(), 4);
  EXPECT_EQ(hg.col.size(), 3);
  // Inner comms equal the flat grid's comms.
  EXPECT_EQ(hg.row.context(), hg.flat_row.context());
  EXPECT_EQ(hg.col.context(), hg.flat_col.context());
}

TEST(HierGrid, AllGroupsDegenerateToInterGroupOnly) {
  hs::desim::Engine engine;
  Machine machine(engine, hockney(), {.ranks = 12});
  const TwoLevelComms hg = two_level(machine, 5, {3, 4}, {3, 4});
  EXPECT_EQ(hg.row.size(), 1);
  EXPECT_EQ(hg.col.size(), 1);
  EXPECT_EQ(hg.group_row.size(), 4);
  EXPECT_EQ(hg.group_col.size(), 3);
  EXPECT_EQ(hg.group_row.context(), hg.flat_row.context());
  EXPECT_EQ(hg.group_col.context(), hg.flat_col.context());
}

TEST(HierGrid, NonDividingArrangementThrows) {
  hs::desim::Engine engine;
  Machine machine(engine, hockney(), {.ranks = 12});
  EXPECT_THROW(two_level(machine, 0, {3, 4}, {2, 2}), hs::PreconditionError);
}

TEST(HierGrid, MembersAgreeAcrossRanks) {
  hs::desim::Engine engine;
  Machine machine(engine, hockney(), {.ranks = 16});
  // Ranks 0 and 1 share a group row and local row; their group rows differ
  // (different local cols) but their in-group rows match.
  const TwoLevelComms a = two_level(machine, 0, {4, 4}, {2, 2});
  const TwoLevelComms b = two_level(machine, 1, {4, 4}, {2, 2});
  EXPECT_EQ(a.row.context(), b.row.context());
  EXPECT_NE(a.group_row.context(), b.group_row.context());
  // Ranks 0 and 2: same local col (0), same group row, different group col:
  // shared group row.
  const TwoLevelComms c = two_level(machine, 2, {4, 4}, {2, 2});
  EXPECT_EQ(a.group_row.context(), c.group_row.context());
}

}  // namespace
