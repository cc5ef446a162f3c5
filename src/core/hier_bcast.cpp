#include "core/hier_bcast.hpp"

#include <cmath>

namespace hs::core {

BcastChain::BcastChain(const mpc::Comm& comm, const std::vector<int>& factors,
                       bool keep_trivial)
    : size_(comm.size()) {
  // The current block is comm ranks [base, base + p); `rank` is my position
  // in it. Level communicators are carved straight out of `comm`, and a
  // level spanning all of `comm` reuses it rather than re-deriving it.
  int base = 0;
  int p = comm.size();
  int rank = comm.rank();
  int level = 0;
  std::vector<int> members;
  const auto carve = [&](int first, int stride, int count) {
    if (count == comm.size()) return comm;
    members.clear();
    for (int i = 0; i < count; ++i) members.push_back(first + i * stride);
    return comm.sub(members);
  };
  for (const int factor : factors) {
    if (p == 1 && !keep_trivial) return;
    HS_REQUIRE_MSG(factor >= 1 && p % factor == 0,
                   "hier_bcast level factor "
                       << factor << " must divide group size " << p);
    if (factor == 1 && !keep_trivial) {
      ++level;  // degenerate level: skipped, but it keeps its chain slot
      continue;
    }
    const int block = p / factor;
    const int offset = rank % block;
    levels_.push_back(
        {carve(base + offset, block, factor), block, offset, level});
    base += (rank / block) * block;
    rank = offset;
    p = block;
    ++level;
  }
  if (p > 1 || keep_trivial)
    levels_.push_back({carve(base, 1, p), /*block=*/0, /*offset=*/0, level});
}

std::vector<BcastStage> BcastChain::stages(int root) const {
  HS_REQUIRE(root >= 0 && root < size_);
  std::vector<BcastStage> out;
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    int stage_root = 0;
    if (levels_[i].joins(root, stage_root))
      out.push_back({levels_[i].comm, stage_root, levels_[i].level});
  }
  return out;
}

desim::Task<void> hier_bcast(mpc::Comm comm, int root, mpc::Buf buf,
                             std::vector<int> level_factors,
                             std::optional<net::BcastAlgo> algo) {
  // Named local, not a range-for temporary: a lifetime-extended temporary
  // spanning co_await is miscompiled by GCC < 13.
  const std::vector<BcastStage> stages =
      BcastChain(comm, level_factors).stages(root);
  for (const BcastStage& stage : stages)
    co_await mpc::bcast(stage.comm, stage.root, buf, algo);
}

std::vector<int> balanced_levels(int extent, int levels) {
  HS_REQUIRE(extent >= 1 && levels >= 1);
  std::vector<int> factors;
  int remaining = extent;
  for (int level = 1; level < levels && remaining > 1; ++level) {
    const int want = static_cast<int>(std::round(
        std::pow(static_cast<double>(remaining),
                 1.0 / static_cast<double>(levels - level + 1))));
    // Nearest divisor of `remaining` to the ideal balanced factor.
    int best = remaining;
    for (int d = 2; d <= remaining; ++d) {
      if (remaining % d != 0) continue;
      if (std::abs(d - want) < std::abs(best - want)) best = d;
    }
    factors.push_back(best);
    remaining /= best;
  }
  return factors;
}

}  // namespace hs::core
