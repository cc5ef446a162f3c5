#include "grid/hier_grid.hpp"

#include <algorithm>
#include <cmath>

namespace hs::grid {

GridShape group_arrangement(GridShape grid, int groups) {
  if (groups < 1 || groups > grid.size()) return {0, 0};
  // Prefer the I x J split whose per-group sub-grid is closest to square
  // (so groups "look like" the grid, as in the paper's examples).
  GridShape best{0, 0};
  double best_score = -1.0;
  for (int i = 1; i <= groups; ++i) {
    if (groups % i != 0) continue;
    const int j = groups / i;
    if (grid.rows % i != 0 || grid.cols % j != 0) continue;
    const double sub_rows = grid.rows / i;
    const double sub_cols = grid.cols / j;
    const double score = sub_rows < sub_cols ? sub_rows / sub_cols
                                             : sub_cols / sub_rows;
    if (score > best_score) {
      best_score = score;
      best = {i, j};
    }
  }
  return best;
}

std::vector<int> valid_group_counts(GridShape grid) {
  // g is arrangeable exactly when g = i * j with i | rows and j | cols, so
  // enumerate divisor pairs instead of testing every g in [1, p] (the naive
  // scan is O(p^2) and p reaches 2^20 on the exascale preset).
  std::vector<int> row_divs, col_divs;
  for (int i = 1; i <= grid.rows; ++i)
    if (grid.rows % i == 0) row_divs.push_back(i);
  for (int j = 1; j <= grid.cols; ++j)
    if (grid.cols % j == 0) col_divs.push_back(j);
  std::vector<int> counts;
  counts.reserve(row_divs.size() * col_divs.size());
  for (const int i : row_divs)
    for (const int j : col_divs) counts.push_back(i * j);
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

}  // namespace hs::grid
