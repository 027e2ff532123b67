// Tests for the caching module: LRU semantics and the semantic prefetching
// application of Sections 1.1 / 5.3.
#include "cache/lru.h"
#include "cache/semantic_cache.h"

#include <gtest/gtest.h>

#include "trace/synth.h"

namespace smartstore::cache {
namespace {

TEST(LruCache, HitMissAccounting) {
  LruCache c(2);
  EXPECT_FALSE(c.access(1));  // miss, admitted
  EXPECT_TRUE(c.access(1));   // hit
  EXPECT_FALSE(c.access(2));
  EXPECT_TRUE(c.access(2));
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().misses, 2u);
  EXPECT_DOUBLE_EQ(c.stats().hit_rate(), 0.5);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache c(2);
  c.access(1);
  c.access(2);
  c.access(1);   // 1 is now MRU
  c.access(3);   // evicts 2
  EXPECT_TRUE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
  EXPECT_TRUE(c.contains(3));
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(LruCache, PrefetchDoesNotCountAsAccess) {
  LruCache c(4);
  EXPECT_TRUE(c.prefetch(9));
  EXPECT_FALSE(c.prefetch(9));  // already present
  EXPECT_EQ(c.stats().hits, 0u);
  EXPECT_EQ(c.stats().misses, 0u);
  EXPECT_EQ(c.stats().prefetches, 1u);
  EXPECT_TRUE(c.access(9));  // prefetched item now hits
}

TEST(LruCache, CapacityRespected) {
  LruCache c(3);
  for (std::uint64_t i = 0; i < 100; ++i) c.access(i);
  EXPECT_EQ(c.size(), 3u);
}

TEST(LruCache, ResetStats) {
  LruCache c(2);
  c.access(1);
  c.reset_stats();
  EXPECT_EQ(c.stats().misses, 0u);
}

class SemanticCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace_ = trace::SyntheticTrace::generate(trace::msn_profile(), 1, 5,
                                             /*downscale=*/10);
    core::Config cfg;
    cfg.num_units = 12;
    cfg.fanout = 4;
    store_ = std::make_unique<core::SmartStore>(cfg);
    store_->build(trace_.files());
    for (const auto& f : trace_.files()) by_id_[f.id] = &f;
  }

  trace::SyntheticTrace trace_{};
  std::unique_ptr<core::SmartStore> store_;
  std::unordered_map<metadata::FileId, const metadata::FileMetadata*> by_id_;
};

TEST_F(SemanticCacheTest, PrefetchingImprovesHitRateOverLru) {
  const std::size_t capacity = trace_.files().size() / 20;
  LruCache lru(capacity);
  SemanticPrefetchCache sem(*store_, capacity, /*k=*/8);

  const std::size_t n_ops = std::min<std::size_t>(trace_.ops().size(), 3000);
  for (std::size_t i = 0; i < n_ops; ++i) {
    const auto& op = trace_.ops()[i];
    lru.access(op.file);
    sem.access(*by_id_.at(op.file), op.time);
  }
  // Correlated files are co-accessed in the synthetic workload, so
  // semantic prefetching must beat pure recency.
  EXPECT_GT(sem.stats().hit_rate(), lru.stats().hit_rate());
}

TEST_F(SemanticCacheTest, PrefetchCostsAreAccounted) {
  store_->simulate();  // prefetch latency is virtual time
  SemanticPrefetchCache sem(*store_, 64, 4);
  sem.access(trace_.files()[0], 0.0);
  EXPECT_GT(sem.prefetch_latency_total(), 0.0);
  EXPECT_GT(sem.prefetch_messages_total(), 0u);
}

TEST_F(SemanticCacheTest, PrefetchedNeighborsAreCorrelated) {
  SemanticPrefetchCache sem(*store_, 256, 8);
  const auto& f = trace_.files()[17];
  sem.access(f, 0.0);
  // A second access to the same file must hit.
  EXPECT_TRUE(sem.access(f, 1.0));
}

}  // namespace
}  // namespace smartstore::cache
