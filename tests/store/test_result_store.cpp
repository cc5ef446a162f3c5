// The content-addressed on-disk result store: durability across instances
// (process restarts), fingerprint namespace isolation, atomic publishes,
// corruption tolerance and the objects-only on-disk layout.
#include "store/result_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "store/fingerprint.hpp"

namespace {

namespace fs = std::filesystem;
using hs::core::RunResult;
using hs::store::ResultStore;
using hs::store::StoreOptions;

RunResult result_with(double total_time) {
  RunResult result;
  result.timing.total_time = total_time;
  result.timing.max_comm_time = total_time / 2;
  result.messages = static_cast<std::uint64_t>(total_time * 1000);
  return result;
}

class ResultStoreTest : public testing::Test {
 protected:
  void SetUp() override {
    root_ = testing::TempDir() + "/store_" +
            testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string root_;
};

TEST_F(ResultStoreTest, SaveThenLoadRoundTrips) {
  ResultStore store({.root = root_});
  EXPECT_FALSE(store.load("key-a").has_value());
  store.save("key-a", result_with(1.5));
  const auto back = store.load("key-a");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->timing.total_time, 1.5);
  const auto stats = store.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST_F(ResultStoreTest, SurvivesProcessRestart) {
  // A second instance on the same root (what a new bench process with the
  // same --cache-dir does) sees the first instance's objects.
  {
    ResultStore store({.root = root_});
    store.save("key-a", result_with(2.5));
    store.save("key-b", result_with(3.5));
  }
  ResultStore reopened({.root = root_});
  const auto a = reopened.load("key-a");
  const auto b = reopened.load("key-b");
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->timing.total_time, 2.5);
  EXPECT_EQ(b->timing.total_time, 3.5);
  EXPECT_EQ(reopened.stats().entries, 2u);
}

TEST_F(ResultStoreTest, FingerprintNamespacesAreInvisibleToEachOther) {
  // A simulator whose physics changed writes to a different namespace; old
  // results are never consulted (invalidation by invisibility).
  ResultStore v1({.root = root_, .fingerprint = "simv1"});
  v1.save("key-a", result_with(1.0));
  ResultStore v2({.root = root_, .fingerprint = "simv2"});
  EXPECT_FALSE(v2.load("key-a").has_value());
  ASSERT_TRUE(v1.load("key-a").has_value());
  EXPECT_NE(v1.namespace_dir(), v2.namespace_dir());
}

TEST_F(ResultStoreTest, DefaultFingerprintIsStable) {
  EXPECT_EQ(hs::store::simulator_fingerprint(),
            hs::store::simulator_fingerprint());
  EXPECT_EQ(hs::store::simulator_fingerprint().size(), 16u);
  ResultStore store({.root = root_});
  EXPECT_EQ(store.fingerprint(), hs::store::simulator_fingerprint());
}

// The salt is bumped by hand whenever stored RunResults change without a
// cache-key change; pinning it here makes every bump a visible test edit.
// v2: hsumma-cyclic fills its outer/inner comm split (it runs the SUMMA
// family's schedule), so its stored RunResults changed.
TEST_F(ResultStoreTest, SimulatorSaltIsPinned) {
  EXPECT_EQ(hs::store::kSimulatorSalt, "hsumma-sim-v2");
}

TEST_F(ResultStoreTest, PublishesLeaveNoTempFiles) {
  std::string namespace_dir;
  {
    ResultStore store({.root = root_});
    for (int i = 0; i < 8; ++i)
      store.save("key-" + std::to_string(i), result_with(i));
    namespace_dir = store.namespace_dir();
  }  // closing the store must not write anything either
  // Every regular file under the root is an object at its content address:
  // no temp files, no side files.
  const fs::path objects = fs::path(namespace_dir) / "objects";
  std::size_t count = 0;
  for (const auto& entry : fs::recursive_directory_iterator(root_)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& path = entry.path();
    const std::string name = path.stem().string();
    EXPECT_EQ(path, objects / name.substr(0, 2) / (name + ".json"))
        << "stray file: " << path;
    ++count;
  }
  EXPECT_EQ(count, 8u);
}

TEST_F(ResultStoreTest, LeftoverIndexFromOlderStoreIsIgnored) {
  // Older versions kept an LRU clock index.json beside the objects. A
  // --cache-dir they wrote must keep serving its objects, and the index is
  // neither read nor rewritten.
  const fs::path index = [&] {
    ResultStore store({.root = root_});
    store.save("key-a", result_with(1.0));
    store.save("key-b", result_with(2.0));
    return fs::path(store.namespace_dir()) / "index.json";
  }();
  const std::string stale = "{\"clock\":\"7\",\"entries\":{\"" +
                            ResultStore::object_name("key-a") +
                            "\":\"3\",\"00000000deadbeef\":\"5\"}}";
  std::ofstream(index) << stale;
  {
    ResultStore reopened({.root = root_});
    EXPECT_EQ(reopened.stats().entries, 2u);
    const auto a = reopened.load("key-a");
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->timing.total_time, 1.0);
    EXPECT_TRUE(reopened.load("key-b").has_value());
    reopened.save("key-c", result_with(3.0));
    EXPECT_EQ(reopened.stats().bad_entries, 0u);
  }
  std::ostringstream after;
  after << std::ifstream(index).rdbuf();
  EXPECT_EQ(after.str(), stale) << "the stale index must be left untouched";
}

TEST_F(ResultStoreTest, CorruptObjectIsDroppedAndCounted) {
  ResultStore store({.root = root_});
  store.save("key-a", result_with(1.0));
  const std::string name = ResultStore::object_name("key-a");
  const fs::path path = fs::path(store.namespace_dir()) / "objects" /
                        name.substr(0, 2) / (name + ".json");
  ASSERT_TRUE(fs::exists(path));
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"key\":\"key-a\",\"result\":\"garbage\"}";
  }
  EXPECT_FALSE(store.load("key-a").has_value());
  EXPECT_EQ(store.stats().bad_entries, 1u);
  EXPECT_FALSE(fs::exists(path)) << "corrupt object should be removed";
  // Republishing heals the slot.
  store.save("key-a", result_with(4.0));
  ASSERT_TRUE(store.load("key-a").has_value());
}

TEST_F(ResultStoreTest, KeyMismatchIsAMissNeverAWrongResult) {
  // Model a 64-bit hash collision: an object whose embedded key differs
  // from the requested one must not be served.
  ResultStore store({.root = root_});
  store.save("key-a", result_with(1.0));
  const std::string name_a = ResultStore::object_name("key-a");
  const std::string name_b = ResultStore::object_name("key-b");
  const fs::path dir = fs::path(store.namespace_dir()) / "objects";
  fs::create_directories(dir / name_b.substr(0, 2));
  fs::copy_file(dir / name_a.substr(0, 2) / (name_a + ".json"),
                dir / name_b.substr(0, 2) / (name_b + ".json"));
  ResultStore reopened({.root = root_});
  EXPECT_FALSE(reopened.load("key-b").has_value());
  EXPECT_EQ(reopened.stats().bad_entries, 1u);
  EXPECT_TRUE(reopened.load("key-a").has_value());
}

TEST_F(ResultStoreTest, CollectMetricsExportsCountersAndFootprint) {
  ResultStore store({.root = root_});
  store.save("key-a", result_with(1.0));
  ASSERT_TRUE(store.load("key-a").has_value());
  EXPECT_FALSE(store.load("key-b").has_value());
  hs::trace::MetricsRegistry metrics;
  store.collect_metrics(metrics);
  EXPECT_EQ(metrics.counter("store.hits"), 1u);
  EXPECT_EQ(metrics.counter("store.misses"), 1u);
  EXPECT_EQ(metrics.counter("store.writes"), 1u);
  EXPECT_EQ(metrics.gauge("store.entries"), 1.0);
  EXPECT_GT(metrics.gauge("store.bytes"), 0.0);
}

}  // namespace
