// Multilevel hierarchical broadcast (the paper's "more than two levels of
// hierarchy" future work).
//
// hier_bcast decomposes a broadcast over p ranks into phases given level
// factors f1 x f2 x ... x fL = p: first among f1 representatives (one per
// block of p/f1 ranks, at the root's offset within its block), then
// recursively inside each block. With a single factor {J} applied to
// SUMMA's row broadcast this is exactly HSUMMA's two-phase structure with
// b = B; deeper factor chains give 3-level, 4-level, ... HSUMMA (the
// SUMMA family in core/summa_family.hpp runs all of them on BcastChain).
#pragma once

#include <optional>
#include <vector>

#include "common/small_vector.hpp"
#include "core/spec.hpp"
#include "desim/task.hpp"
#include "mpc/collectives.hpp"

namespace hs::core {

/// One phase of a hierarchical broadcast on the calling rank: a plain
/// mpc::bcast on `comm` rooted at `root`. `level` is the position in the
/// factor chain (0 = outermost); the trailing "whatever remains" phase
/// carries level = number of factors consumed before it.
struct BcastStage {
  mpc::Comm comm;
  int root = 0;
  int level = 0;
};

/// One level of a BcastChain on the calling rank: the representatives'
/// communicator the rank belongs to (one rank per block, at the rank's own
/// offset within its block), or — with block 0 — the rank's innermost
/// block, where every member joins.
struct ChainLevel {
  mpc::Comm comm;
  int block = 0;   // ranks per block below this level; 0: innermost block
  int offset = 0;  // this rank's offset within its block
  int level = 0;   // BcastStage::level

  /// Whether this rank joins this level's stage of a broadcast whose root
  /// is `root` within the level's enclosing block. Sets `stage_root` to the
  /// stage's root on `comm` and moves `root` into the next level's block.
  bool joins(int& root, int& stage_root) const {
    if (block == 0) {
      stage_root = root;
      return true;
    }
    stage_root = root / block;
    const bool joined = root % block == offset;
    root %= block;
    return joined;
  }
};

/// One rank's communicators for hierarchical broadcasts over `comm`, built
/// once: one ChainLevel per applied factor plus the innermost block. Only
/// *which* levels a broadcast uses, and their roots, depend on the root —
/// so a kernel builds the chain once and re-roots it per step instead of
/// creating communicators.
///
/// Without `keep_trivial` degenerate levels are dropped (hier_bcast's
/// decomposition): factor-1 levels keep their level number but yield no
/// stage, and a block that shrinks to one rank ends the chain. With it
/// every level yields a stage even on a size-1 communicator — the
/// convention of the two-level HSUMMA grid ({J} along rows, {I} along
/// columns) and of flat SUMMA (no factors: one stage over `comm`).
class BcastChain {
 public:
  BcastChain() = default;
  /// Every factor must divide the remaining block size; factors need not
  /// multiply to comm.size() (the innermost block is "whatever remains").
  BcastChain(const mpc::Comm& comm, const std::vector<int>& factors,
             bool keep_trivial = false);

  /// The levels, outermost first (two inline: the HSUMMA chain).
  const SmallVector<ChainLevel, 2>& levels() const noexcept {
    return levels_;
  }

  /// This rank's stages of a broadcast rooted at `root` (a rank of the
  /// chain's communicator), outermost first. Awaiting mpc::bcast on each in
  /// order is the hierarchical broadcast.
  std::vector<BcastStage> stages(int root) const;

 private:
  int size_ = 0;
  SmallVector<ChainLevel, 2> levels_;
};

/// Hierarchical broadcast. Every element of `level_factors` must divide the
/// remaining block size; factors need not multiply to exactly comm.size()
/// (a trailing factor of "whatever remains" is implied).
desim::Task<void> hier_bcast(mpc::Comm comm, int root, mpc::Buf buf,
                             std::vector<int> level_factors,
                             std::optional<net::BcastAlgo> algo);

/// Balanced factor chain for a multilevel hierarchy over `extent` ranks
/// with `levels` levels. Contract (pinned by tests/core/test_multilevel.cpp):
///   * returns at most levels-1 factors, each >= 2 and dividing the
///     remaining extent; their product divides `extent` and the implied
///     trailing factor is extent / product (>= 1);
///   * extent = 1 (or levels = 1) -> empty chain (nothing to split);
///   * each factor is the divisor of the remaining extent nearest the
///     balanced ideal remaining^(1/levels_left) — for prime extents that
///     is the extent itself, so the chain collapses to {extent} and the
///     deeper levels degenerate;
///   * once the remaining extent reaches 1 the chain stops, so levels >
///     log2(extent) never produces factors of 1.
/// (e.g. extent=64, levels=3 -> {4, 4} leaving blocks of 4.)
std::vector<int> balanced_levels(int extent, int levels);

}  // namespace hs::core
