// Two-level hierarchical process grid — the paper's structural contribution.
//
// HSUMMA partitions the s x t grid into an I x J arrangement of rectangular
// groups, each holding an (s/I) x (t/J) sub-grid. For the calling process
// P(x,y)(i,j) the paper's Algorithm 1 uses four communicators:
//
//   P(x,*)(i,j) — my group row, same local position: the *inter-group*
//                 horizontal broadcast of A's pivot column (size J);
//   P(*,y)(i,j) — my group column, same local position: the inter-group
//                 vertical broadcast of B's pivot row (size I);
//   P(x,y)(i,*) — my row inside the group (size t/J);
//   P(x,y)(*,j) — my column inside the group (size s/I).
//
// They are the chains {J} along grid rows and {I} along grid columns of
// core::BcastChain, which the SUMMA family builds once per rank. This
// header picks the I x J arrangement for a group count G. With G = 1 or
// G = p the hierarchy degenerates and HSUMMA is exactly SUMMA, as the paper
// notes.
#pragma once

#include <vector>

#include "grid/process_grid.hpp"

namespace hs::grid {

/// Factor a total group count G into an I x J arrangement compatible with
/// an s x t grid (I | s, J | t), as close to the grid's aspect ratio as
/// possible. Returns {0,0} if no valid arrangement exists.
GridShape group_arrangement(GridShape grid, int groups);

/// All group counts G for which group_arrangement finds a valid I x J.
std::vector<int> valid_group_counts(GridShape grid);

}  // namespace hs::grid
