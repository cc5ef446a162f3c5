#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "desim/engine.hpp"

namespace {

using hs::desim::Async;
using hs::desim::DeadlockError;
using hs::desim::Engine;
using hs::desim::Gate;
using hs::desim::Task;

/// Counts its own destruction; moving disarms the source. Passed by value
/// into a coroutine, the frame's copy dies exactly when the frame does.
class FrameProbe {
 public:
  explicit FrameProbe(int* destroyed) : destroyed_(destroyed) {}
  FrameProbe(FrameProbe&& other) noexcept
      : destroyed_(std::exchange(other.destroyed_, nullptr)) {}
  FrameProbe& operator=(FrameProbe&&) = delete;
  ~FrameProbe() {
    if (destroyed_ != nullptr) ++*destroyed_;
  }

 private:
  int* destroyed_;
};

TEST(Async, ForkedTaskRunsConcurrentlyWithParent) {
  Engine engine;
  std::vector<std::pair<char, double>> log;
  auto child = [&]() -> Task<void> {
    co_await engine.sleep(1.0);
    log.emplace_back('c', engine.now());
  };
  auto parent = [&]() -> Task<void> {
    Async forked = Async::start(engine, child());
    co_await engine.sleep(3.0);  // parent "computes" while child runs
    log.emplace_back('p', engine.now());
    co_await forked.wait();
    log.emplace_back('j', engine.now());
  };
  engine.spawn(parent());
  engine.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], std::make_pair('c', 1.0));  // child finished first
  EXPECT_EQ(log[1], std::make_pair('p', 3.0));
  EXPECT_EQ(log[2], std::make_pair('j', 3.0));  // join was free
}

TEST(Async, JoinBlocksUntilChildFinishes) {
  Engine engine;
  double join_time = 0.0;
  auto child = [&]() -> Task<void> { co_await engine.sleep(5.0); };
  auto parent = [&]() -> Task<void> {
    Async forked = Async::start(engine, child());
    co_await engine.sleep(1.0);
    co_await forked.wait();
    join_time = engine.now();
  };
  engine.spawn(parent());
  engine.run();
  EXPECT_DOUBLE_EQ(join_time, 5.0);
}

TEST(Async, OverlapHidesCommBehindCompute) {
  // The overlap pattern: total = max(comm, comp) + epsilon, not comm + comp.
  Engine engine;
  auto comm_like = [&]() -> Task<void> { co_await engine.sleep(2.0); };
  auto rank = [&]() -> Task<void> {
    Async transfer = Async::start(engine, comm_like());
    co_await engine.sleep(3.0);  // compute
    co_await transfer.wait();
  };
  engine.spawn(rank());
  engine.run();
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

TEST(Async, MultipleForksJoinInAnyOrder) {
  Engine engine;
  auto child = [&](double t) -> Task<void> { co_await engine.sleep(t); };
  auto parent = [&]() -> Task<void> {
    Async a = Async::start(engine, child(4.0));
    Async b = Async::start(engine, child(1.0));
    co_await a.wait();
    co_await b.wait();  // already done
  };
  engine.spawn(parent());
  engine.run();
  EXPECT_DOUBLE_EQ(engine.now(), 4.0);
}

TEST(Async, EmptyAsyncThrowsOnWait) {
  Async empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_THROW(empty.wait(), hs::PreconditionError);
}

TEST(Async, CompleteReflectsChildState) {
  Engine engine;
  Async forked;
  auto child = [&]() -> Task<void> { co_await engine.sleep(1.0); };
  auto parent = [&]() -> Task<void> {
    forked = Async::start(engine, child());
    EXPECT_FALSE(forked.complete());
    co_await engine.sleep(2.0);
    EXPECT_TRUE(forked.complete());
    co_await forked.wait();
  };
  engine.spawn(parent());
  engine.run();
}

TEST(Async, ChildExceptionSurfacesFromRun) {
  Engine engine;
  auto child = [&]() -> Task<void> {
    co_await engine.sleep(1.0);
    throw std::runtime_error("child failed");
  };
  auto parent = [&]() -> Task<void> {
    Async forked = Async::start(engine, child());
    co_await engine.sleep(10.0);
    co_await forked.wait();
  };
  engine.spawn(parent());
  EXPECT_THROW(engine.run(), std::runtime_error);
}

TEST(Async, FinishedChildFrameIsDestroyedBeforeJoin) {
  Engine engine;
  int destroyed = 0;
  int destroyed_at_join = -1;
  auto child = [&](FrameProbe) -> Task<void> { co_await engine.sleep(1.0); };
  auto parent = [&]() -> Task<void> {
    Async forked = Async::start(engine, child(FrameProbe(&destroyed)));
    co_await engine.sleep(3.0);
    destroyed_at_join = destroyed;
    co_await forked.wait();
  };
  engine.spawn(parent());
  engine.run();
  EXPECT_EQ(destroyed_at_join, 1);  // freed at t=1, not at engine teardown
  EXPECT_EQ(destroyed, 1);
}

TEST(Async, SuspendedForkDeadlocksAndDiesWithTheEngine) {
  // The parent blocks joining a fork that waits on a gate nobody fires:
  // the deadlock names the joining process, and the fork's frame chain
  // lives until the engine is destroyed.
  int destroyed = 0;
  {
    Engine engine;
    Gate never(engine);
    auto child = [&](FrameProbe) -> Task<void> { co_await never.wait(); };
    auto parent = [&]() -> Task<void> {
      Async forked = Async::start(engine, child(FrameProbe(&destroyed)));
      co_await forked.wait();
    };
    engine.spawn(parent(), "joining-rank");
    try {
      engine.run();
      FAIL() << "expected DeadlockError";
    } catch (const DeadlockError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("joining-rank"), std::string::npos) << what;
      EXPECT_NE(what.find("1 fork(s)"), std::string::npos) << what;
    }
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(Async, UnjoinedSuspendedForkStillDeadlocks) {
  // No process is left waiting, but a fork is: still a deadlock.
  int destroyed = 0;
  {
    Engine engine;
    Gate never(engine);
    Async forked;
    auto child = [&](FrameProbe) -> Task<void> { co_await never.wait(); };
    auto parent = [&]() -> Task<void> {
      forked = Async::start(engine, child(FrameProbe(&destroyed)));
      co_return;
    };
    engine.spawn(parent());
    EXPECT_THROW(engine.run(), DeadlockError);
    EXPECT_FALSE(forked.complete());
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(Async, ForkCostsOneEventAtTheCurrentTime) {
  // A fork takes one event to start, like the process it replaced; the
  // child's own sleep and the join wake-up add one each.
  Engine engine;
  auto child = [&]() -> Task<void> { co_await engine.sleep(1.0); };
  auto parent = [&]() -> Task<void> {
    Async forked = Async::start(engine, child());
    co_await forked.wait();
  };
  engine.spawn(parent());
  engine.run();
  EXPECT_EQ(engine.events_processed(), 4u);  // parent, fork, sleep, join
}

}  // namespace
