// Runtime lock-order validator (util/lock_rank.h + util/annotated_mutex.h
// + core/striped_locks.h): the dynamic half of the lock-discipline
// machinery. The positive cases drive full descending-rank chains; the
// violation cases are death tests keyed on the "lock-rank violation"
// diagnostic the validator prints before aborting (it aborts BEFORE
// blocking, so an ordering bug dies loudly instead of deadlocking).
#include <gtest/gtest.h>

#include "core/striped_locks.h"
#include "util/annotated_mutex.h"
#include "util/lock_rank.h"

namespace {

using smartstore::core::StripedMutexPool;
using smartstore::core::maybe_lock;
using smartstore::util::LockRank;
using smartstore::util::Mutex;
using smartstore::util::MutexLock;
using smartstore::util::ReaderLock;
using smartstore::util::SharedMutex;
using smartstore::util::WriterLock;

#ifndef SMARTSTORE_LOCK_RANK_ACTIVE

TEST(LockRankTest, ValidatorCompiledOut) {
  GTEST_SKIP() << "lock-rank validator inactive (release build without "
                  "SMARTSTORE_LOCK_RANK_CHECKS)";
}

#else  // SMARTSTORE_LOCK_RANK_ACTIVE

using smartstore::util::LockOrderValidator;

// The store's full descending chain, shared_mutex levels included, in the
// documented global order: every acquire strictly above everything held.
TEST(LockRankTest, InOrderChainPasses) {
  SharedMutex lifecycle{LockRank::kLifecycle};
  Mutex ckpt{LockRank::kDbCheckpoint};
  SharedMutex shape{LockRank::kShape};
  Mutex unit{LockRank::kUnit};
  StripedMutexPool summaries{LockRank::kSummaryStripe};
  Mutex freeze{LockRank::kFreeze};
  Mutex wal_shard{LockRank::kWalShard};
  int dummy = 0;

  const ReaderLock lk(lifecycle);
  const MutexLock ck(ckpt);
  const ReaderLock shared(shape);
  const MutexLock ul(unit);
  const auto stripe = maybe_lock(&summaries, &dummy);
  const MutexLock fz(freeze);
  const MutexLock ws(wal_shard);
  EXPECT_EQ(LockOrderValidator::held_count(), 7);  // a kLeaf would not count
}

TEST(LockRankTest, ReleaseUnwindsStack) {
  Mutex shape_level{LockRank::kShape};
  {
    const MutexLock lock(shape_level);
    EXPECT_EQ(LockOrderValidator::held_count(), 1);
    EXPECT_TRUE(LockOrderValidator::holds(&shape_level));
  }
  EXPECT_EQ(LockOrderValidator::held_count(), 0);
  EXPECT_FALSE(LockOrderValidator::holds(&shape_level));
  // Re-acquiring after release is not "recursive": the stack is clean.
  const MutexLock again(shape_level);
  EXPECT_EQ(LockOrderValidator::held_count(), 1);
}

// The striping discipline: a walker locks a child stripe, releases, then
// locks the parent's — sequential same-rank acquisition is legal.
TEST(LockRankTest, StripeClimbOneAtATimePasses) {
  StripedMutexPool pool{LockRank::kSummaryStripe};
  int child = 0, parent = 0;
  {
    const auto child_guard = maybe_lock(&pool, &child);
    EXPECT_EQ(LockOrderValidator::held_count(), 1);
  }
  {
    const auto parent_guard = maybe_lock(&pool, &parent);
    EXPECT_EQ(LockOrderValidator::held_count(), 1);
  }
  EXPECT_EQ(LockOrderValidator::held_count(), 0);
}

TEST(LockRankTest, NullPoolGuardIsEmpty) {
  int obj = 0;
  const auto guard = maybe_lock(nullptr, &obj);
  EXPECT_EQ(LockOrderValidator::held_count(), 0);
}

TEST(LockRankTest, LeafLocksAreUntracked) {
  Mutex leaf;  // default rank: kLeaf
  Mutex shape_level{LockRank::kShape};
  const MutexLock a(shape_level);
  const MutexLock b(leaf);  // leaf under anything: fine, and untracked
  EXPECT_EQ(LockOrderValidator::held_count(), 1);
  EXPECT_FALSE(LockOrderValidator::holds(&leaf));
}

TEST(LockRankTest, AssertHeldPassesWhenHeld) {
  Mutex unit{LockRank::kUnit};
  const MutexLock lock(unit);
  unit.assert_held();  // must not abort

  StripedMutexPool pool{LockRank::kSyncStripe};
  int obj = 0;
  const auto guard = maybe_lock(&pool, &obj);
  pool.assert_held(&obj);  // must not abort
}

TEST(LockRankTest, SharedAssertHeldPassesUnderWriter) {
  SharedMutex unit{LockRank::kUnit};
  const WriterLock lock(unit);
  unit.assert_held();  // must not abort
}

TEST(LockRankDeathTest, InvertedOrderDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex unit{LockRank::kUnit};
  SharedMutex shape{LockRank::kShape};
  EXPECT_DEATH(
      {
        const MutexLock ul(unit);
        const WriterLock ex(shape);  // shape ABOVE unit: climbing back up
      },
      "lock-rank violation");
}

TEST(LockRankDeathTest, SharedAcquisitionsAreOrderedToo) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SharedMutex lifecycle{LockRank::kLifecycle};
  SharedMutex shape{LockRank::kShape};
  EXPECT_DEATH(
      {
        const ReaderLock inner(shape);
        const ReaderLock outer(lifecycle);  // readers follow the order too
      },
      "lock-rank violation");
}

TEST(LockRankDeathTest, TwoStripesHeldTogetherDie) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  StripedMutexPool pool{LockRank::kSummaryStripe};
  int child = 0, parent = 0;
  EXPECT_DEATH(
      {
        const auto child_guard = maybe_lock(&pool, &child);
        const auto parent_guard = maybe_lock(&pool, &parent);  // held pair
      },
      "lock-rank violation");
}

TEST(LockRankDeathTest, CrossPoolStripePairDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  StripedMutexPool summaries{LockRank::kSummaryStripe};
  StripedMutexPool sync{LockRank::kSyncStripe};
  int a = 0, b = 0;
  EXPECT_DEATH(
      {
        const auto sync_guard = maybe_lock(&sync, &a);
        const auto node_guard = maybe_lock(&summaries, &b);  // 30 under 40
      },
      "lock-rank violation");
}

TEST(LockRankDeathTest, RecursiveAcquisitionDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex unit{LockRank::kUnit};
  EXPECT_DEATH(
      {
        const MutexLock outer(unit);
        unit.lock();  // same mutex again: rejected before it deadlocks
      },
      "lock-rank violation");
}

TEST(LockRankDeathTest, AssertHeldWithoutLockDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex unit{LockRank::kUnit};
  EXPECT_DEATH(unit.assert_held(), "lock-rank violation");

  StripedMutexPool pool{LockRank::kSyncStripe};
  int obj = 0;
  EXPECT_DEATH(pool.assert_held(&obj), "lock-rank violation");
}

TEST(LockRankDeathTest, SharedAssertHeldNeedsTheWriterSide) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SharedMutex unit{LockRank::kUnit};
  EXPECT_DEATH(unit.assert_held(), "lock-rank violation");
  EXPECT_DEATH(
      {
        const ReaderLock shared(unit);
        unit.assert_held();  // a reader hold may not mutate
      },
      "lock-rank violation");
}

#endif  // SMARTSTORE_LOCK_RANK_ACTIVE

}  // namespace
