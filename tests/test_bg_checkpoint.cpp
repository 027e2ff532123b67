// Background checkpointing under live traffic.
//
// A writer thread streams WAL-logged inserts (the shard hooks db::Store
// wires) while the BackgroundCheckpointer's one slot runs delta cuts and
// budget folds on a pool worker; the suite asserts the paper-level
// contract — checkpoints taken while a writer streams inserts leave a
// base + delta chain + WAL tail from which recover() restores every
// acknowledged write — plus the slot's single-flight rule, the cut's fence
// accounting, the logged-reconfiguration replay and the frozen view's
// copy-on-write semantics. This suite is a ThreadSanitizer target for the
// concurrent checkpoint path.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "persist/bg_checkpoint.h"
#include "persist/delta_checkpoint.h"
#include "persist/recovery.h"
#include "persist/wal_shard.h"
#include "trace/synth.h"
#include "util/thread_pool.h"

namespace smartstore::persist {
namespace {

using core::Config;
using core::Routing;
using core::SmartStore;
using metadata::AttrSubset;
using metadata::FileMetadata;

std::string temp_dir(const char* tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("smartstore_bgckpt_") + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::set<std::string> unit_names(const SmartStore& s) {
  std::set<std::string> out;
  for (const auto& u : s.units())
    for (const auto& f : u.files()) out.insert(f.name);
  return out;
}

/// A built store with its shard logs and engine over a temp directory.
struct Deployment {
  trace::SyntheticTrace trace;
  std::string dir;
  SmartStore store;
  ShardedWal wal;
  DeltaEngine engine;

  Deployment(const char* tag, std::size_t units, unsigned downscale)
      : trace(trace::SyntheticTrace::generate(trace::msn_profile(), 1, 42,
                                              downscale)),
        dir(temp_dir(tag)),
        store(make_config(units)),
        wal(dir, units),
        engine(store, wal, dir) {
    store.build(trace.files());
  }
  ~Deployment() { std::filesystem::remove_all(dir); }

  static Config make_config(std::size_t units) {
    Config cfg;
    cfg.num_units = units;
    cfg.seed = 7;
    return cfg;
  }

  void insert(const FileMetadata& f) {
    core::UnitId target = 0;
    store.insert_file(f, 0.0, [&](core::UnitId u) {
      target = u;
      return wal.append_insert(u, f);
    });
    wal.commit(target);
  }
};

TEST(BgCheckpoint, RestoresEveryAcknowledgedWriteUnderLiveInsertStream) {
  Deployment d("live", 8, /*downscale=*/20);
  d.engine.fold();
  util::ThreadPool pool(2);
  BackgroundCheckpointer bg(d.engine, pool, /*max_chain_len=*/2,
                            /*max_chain_bytes=*/0);

  const auto stream = d.trace.make_insert_stream(300, 77);
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::size_t i = 0; i < stream.size(); ++i) {
      // Halfway through, wait until a fold is actually in its frozen
      // window so the second half of the stream provably rides along with
      // one (main folds on every other round below, so this always
      // terminates; without the gate, a loaded machine can schedule the
      // whole stream before the first freeze).
      if (i == stream.size() / 2)
        while (!d.store.checkpoint_active()) std::this_thread::yield();
      d.insert(stream[i]);
    }
    done.store(true, std::memory_order_release);
  });

  // Checkpoint continuously while the stream runs — background cuts (with
  // their budget folds) alternating with explicit folds — then top up to
  // at least two completed slot runs.
  std::size_t triggered = 0;
  for (std::size_t round = 0; !done.load(std::memory_order_acquire);
       ++round) {
    if (round % 2 == 1) {
      bg.compact();
    } else if (bg.trigger()) {
      bg.wait();
      ++triggered;
    }
  }
  writer.join();
  while (triggered < 2) {
    ASSERT_TRUE(bg.trigger());
    bg.wait();
    ++triggered;
  }
  // The gated second half of the stream overlapped a frozen window, so
  // mutations demonstrably rode along with a fold.
  EXPECT_GT(bg.total_mutations_during(), 0u);

  // Every acknowledged write: the live store and the recovered one agree
  // exactly (inserts beyond the last fence replay from the rebased tail).
  d.wal.commit_all();
  const RecoveryResult rec = recover(d.dir);
  ASSERT_TRUE(rec.store);
  EXPECT_TRUE(rec.store->check_invariants());
  EXPECT_EQ(rec.store->total_files(), d.store.total_files());
  EXPECT_EQ(unit_names(*rec.store), unit_names(d.store));
  for (const auto& f : stream) {
    bool present = false;
    for (const auto& u : rec.store->units())
      if (u.find_by_name(f.name)) present = true;
    ASSERT_TRUE(present) << "acknowledged insert lost: " << f.name;
  }
}

TEST(BgCheckpoint, FrozenViewExcludesMidCheckpointMutations) {
  // Deterministic copy-on-write check: a mutation landing between the
  // freeze and the serialization must copy the pieces it touches, and the
  // written image must show the freeze-epoch state — without the mutation
  // — while the live store keeps it.
  Deployment d("frozen_view", 6, /*downscale=*/40);
  const std::size_t files_at_freeze = d.store.total_files();

  WalFence fence;
  std::vector<std::size_t> fence_bytes;
  d.store.begin_checkpoint([&] { fence = d.wal.frontier(&fence_bytes); });
  const auto extra = d.trace.make_insert_stream(3, 11);
  for (const auto& f : extra) d.insert(f);
  EXPECT_GT(d.store.checkpoint_cow_copies(), 0u);  // pieces were all pending

  save_snapshot_frozen(d.store, snapshot_path(d.dir), fence);
  d.wal.rebase_to(fence, fence_bytes);
  d.store.end_checkpoint();
  d.wal.commit_all();

  // The image alone is the freeze-epoch state...
  const auto frozen = load_snapshot(snapshot_path(d.dir));
  EXPECT_EQ(frozen->total_files(), files_at_freeze);
  for (const auto& f : extra) {
    for (const auto& u : frozen->units())
      EXPECT_EQ(u.find_by_name(f.name), nullptr);
  }
  // ...and image + WAL tail is the live state.
  const RecoveryResult rec = recover(d.dir);
  EXPECT_EQ(rec.wal_records, extra.size());
  EXPECT_EQ(rec.store->total_files(), d.store.total_files());
  EXPECT_EQ(unit_names(*rec.store), unit_names(d.store));
}

TEST(BgCheckpoint, ServesQueriesOnTheWritingThreadDuringCheckpoints) {
  Deployment d("queries", 6, /*downscale=*/40);
  d.engine.fold();
  util::ThreadPool pool(1);
  BackgroundCheckpointer bg(d.engine, pool, /*max_chain_len=*/1,
                            /*max_chain_bytes=*/0);

  const auto stream = d.trace.make_insert_stream(120, 5);
  std::atomic<bool> done{false};
  std::size_t found = 0;
  std::thread serving([&] {
    for (std::size_t i = 0; i < stream.size(); ++i) {
      d.insert(stream[i]);
      // Query the file just inserted: on-line routing is exact, so it
      // must be visible immediately, checkpoint or no checkpoint.
      const auto res =
          d.store.point_query({stream[i].name}, Routing::kOnline, 0.0);
      if (res.found) ++found;
    }
    done.store(true, std::memory_order_release);
  });

  std::size_t checkpoints = 0;
  while (!done.load(std::memory_order_acquire)) {
    if (bg.trigger()) {
      bg.wait();
      ++checkpoints;
    }
  }
  serving.join();
  while (checkpoints < 1) {
    ASSERT_TRUE(bg.trigger());
    bg.wait();
    ++checkpoints;
  }

  EXPECT_EQ(found, stream.size());
  EXPECT_GE(checkpoints, 1u);
}

TEST(BgCheckpoint, LoggedReconfigurationReplaysIntoNewTopology) {
  Deployment d("reconf", 6, /*downscale=*/40);
  d.engine.fold();
  const std::size_t base_units = d.store.units().size();
  SmartStore& store = d.store;

  // Reconfigure and mutate, never checkpointing afterwards: recovery must
  // replay the topology changes from the log alone.
  const core::UnitId added =
      store.add_storage_unit([&] { return d.wal.log_add_unit(); });
  EXPECT_EQ(added, base_units);
  const auto stream = d.trace.make_insert_stream(12, 9);
  for (const auto& f : stream) d.insert(f);
  store.remove_storage_unit(1, [&] { return d.wal.log_remove_unit(1); });
  const std::vector<AttrSubset> cands = {AttrSubset::from_mask(0x7u)};
  store.autoconfigure(cands, [&] { return d.wal.log_autoconfigure(cands); });
  d.wal.commit_all();

  // No index unit may stay hosted on the removed server: routing would
  // send every query crossing it to a dead node forever.
  auto hosts_on = [](const SmartStore& s, core::UnitId u) {
    std::size_t count = 0;
    std::vector<std::size_t> stack{s.tree().root_id()};
    while (!stack.empty()) {
      const auto& n = s.tree().node(stack.back());
      stack.pop_back();
      if (n.mapped_unit == u) ++count;
      if (n.level > 1)
        for (std::size_t c : n.children) stack.push_back(c);
    }
    return count;
  };
  EXPECT_EQ(hosts_on(store, 1), 0u);

  const RecoveryResult rec = recover(d.dir);
  ASSERT_TRUE(rec.store);
  EXPECT_TRUE(rec.store->check_invariants());
  EXPECT_EQ(rec.store->units().size(), base_units + 1);
  EXPECT_FALSE(rec.store->unit_active(1));
  EXPECT_EQ(hosts_on(*rec.store, 1), 0u);
  EXPECT_TRUE(rec.store->unit_active(added));
  EXPECT_EQ(rec.store->variants().size(), store.variants().size());
  EXPECT_EQ(rec.store->total_files(), store.total_files());
  EXPECT_EQ(unit_names(*rec.store), unit_names(store));
}

TEST(BgCheckpoint, SecondTriggerWhileRunningIsRejected) {
  Deployment d("reject", 6, /*downscale=*/30);
  util::ThreadPool pool(2);
  BackgroundCheckpointer bg(d.engine, pool, /*max_chain_len=*/4,
                            /*max_chain_bytes=*/0);

  ASSERT_TRUE(bg.trigger());
  // Only meaningful while the first is still in flight; the check is
  // skipped if the worker already finished (tiny stores fold fast).
  if (bg.running()) {
    EXPECT_FALSE(bg.trigger());
  }
  EXPECT_TRUE(bg.wait());
  EXPECT_EQ(bg.completed(), 1u);
  // Nothing to chain from yet: the first cut escalated to a fold.
  EXPECT_TRUE(bg.last_stats().folded);
  EXPECT_GT(bg.last_stats().base_bytes, 0u);

  // After completion a new run is accepted again (a cold no-op cut).
  ASSERT_TRUE(bg.trigger());
  EXPECT_TRUE(bg.wait());
  EXPECT_EQ(bg.completed(), 2u);
  EXPECT_TRUE(bg.last_stats().noop);
}

TEST(BgCheckpoint, FenceAccountingMatchesTheLog) {
  Deployment d("fence", 6, /*downscale=*/40);
  d.engine.fold();
  util::ThreadPool pool(1);
  BackgroundCheckpointer bg(d.engine, pool, /*max_chain_len=*/4,
                            /*max_chain_bytes=*/0);
  const auto stream = d.trace.make_insert_stream(10, 3);
  for (std::size_t i = 0; i < 6; ++i) d.insert(stream[i]);
  d.wal.commit_all();
  std::vector<std::uint64_t> before_gen(d.wal.num_shards());
  std::vector<std::uint64_t> before_records(d.wal.num_shards());
  for (std::size_t s = 0; s < d.wal.num_shards(); ++s) {
    before_gen[s] = d.wal.generation(s);
    before_records[s] = d.wal.committed_records(s);
  }

  ASSERT_TRUE(bg.trigger());
  bg.wait();
  const DeltaCutStats& st = bg.last_stats();
  EXPECT_FALSE(st.folded);
  EXPECT_EQ(st.delta_records, 6u);
  EXPECT_EQ(st.chain_len, 1u);
  // Each fenced prefix was rebased away under that shard's next
  // generation; shards with nothing to drop keep theirs.
  for (std::size_t s = 0; s < d.wal.num_shards(); ++s) {
    EXPECT_EQ(d.wal.committed_records(s), 0u) << "shard " << s;
    EXPECT_EQ(d.wal.generation(s),
              before_gen[s] + (before_records[s] > 0 ? 1 : 0))
        << "shard " << s;
  }

  // Post-cut inserts live only in the tail; recovery stitches base, the
  // one-cut chain and the tail together.
  for (std::size_t i = 6; i < stream.size(); ++i) d.insert(stream[i]);
  d.wal.commit_all();
  const RecoveryResult rec = recover(d.dir);
  EXPECT_EQ(rec.delta_cuts, 1u);
  EXPECT_EQ(rec.delta_records, 6u);
  EXPECT_EQ(rec.wal_fenced, 0u);  // generation changed: nothing to skip
  EXPECT_EQ(rec.wal_records, 4u);
  EXPECT_EQ(unit_names(*rec.store), unit_names(d.store));
}

TEST(BgCheckpoint, ExplicitCutReturnsPublishedAndBudgetFoldRunsInTheSlot) {
  Deployment d("budget", 6, /*downscale=*/40);
  d.engine.fold();
  util::ThreadPool pool(1);
  BackgroundCheckpointer bg(d.engine, pool, /*max_chain_len=*/1,
                            /*max_chain_bytes=*/0);
  const auto stream = d.trace.make_insert_stream(6, 21);

  for (std::size_t i = 0; i < 3; ++i) d.insert(stream[i]);
  const DeltaCutStats first = bg.checkpoint();
  // Published before checkpoint() returned: the chain already holds it.
  EXPECT_FALSE(first.folded);
  EXPECT_EQ(d.engine.chain_len(), 1u);
  EXPECT_EQ(bg.folds_scheduled(), 0u);  // at the budget, not past it

  for (std::size_t i = 3; i < 6; ++i) d.insert(stream[i]);
  bg.checkpoint();  // chain 2 > 1: a fold goes to the slot
  EXPECT_EQ(bg.folds_scheduled(), 1u);
  EXPECT_TRUE(bg.wait());
  EXPECT_EQ(d.engine.chain_len(), 0u);
  EXPECT_EQ(d.engine.folds(), 2u);
  EXPECT_TRUE(bg.last_stats().folded);

  const RecoveryResult rec = recover(d.dir);
  ASSERT_TRUE(rec.store);
  EXPECT_EQ(rec.delta_cuts, 0u);
  EXPECT_EQ(unit_names(*rec.store), unit_names(d.store));
}

}  // namespace
}  // namespace smartstore::persist
