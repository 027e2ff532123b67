// The checkpoint engine, end to end: delta cuts and recovery round trips
// at the persist layer (DeltaEngine over a sharded WAL), chain folds and
// pruning, offline reconstruction at the last cut, the background slot's
// budget policy — and the db::Store facade wiring (Checkpoint-as-cut,
// fold-only checkpoints without a WAL, Compact(), DumpSnapshot rerouting,
// the smartstore.ckpt.* and smartstore.snapshot.* properties, adaptive
// group commit, and the cadence-counter coalescing regression).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/smartstore.h"
#include "persist/bg_checkpoint.h"
#include "persist/delta_checkpoint.h"
#include "persist/recovery.h"
#include "persist/segment.h"
#include "persist/wal_shard.h"
#include "smartstore/smartstore.h"
#include "util/thread_pool.h"

namespace {

using namespace smartstore;
using namespace smartstore::persist;

std::filesystem::path temp_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("smartstore_test_delta_" + name);
  std::filesystem::remove_all(dir);
  return dir;
}

metadata::FileMetadata make_file(std::uint64_t id) {
  metadata::FileMetadata f;
  f.id = id;
  f.name = "file_" + std::to_string(id) + ".dat";
  for (std::size_t a = 0; a < metadata::kNumAttrs; ++a)
    f.attrs[a] = static_cast<double>((id * 31 + a * 7) % 1000);
  return f;
}

std::set<std::string> store_names(const core::SmartStore& s) {
  std::set<std::string> names;
  for (const auto& unit : s.units())
    for (const auto& f : unit.files()) names.insert(f.name);
  return names;
}

// ---- persist layer: DeltaEngine ---------------------------------------------

/// A SmartStore + ShardedWal + DeltaEngine triple over a temp directory,
/// with the WAL-hooked insert idiom the crash suite uses.
struct EngineRig {
  explicit EngineRig(const std::filesystem::path& dir_in)
      : dir(dir_in.string()), wal(dir, cfg().num_units) {
    store.build({});
  }
  static core::Config cfg() {
    core::Config c;
    c.num_units = 4;
    c.seed = 3;
    return c;
  }

  void insert(std::uint64_t id) {
    const auto f = make_file(id);
    core::UnitId target = 0;
    store.insert_file(f, 0.0, [&](core::UnitId u) {
      target = u;
      return wal.append_insert(u, f);
    });
    wal.commit(target);
    inserted.insert(f.name);
  }

  std::string dir;
  core::SmartStore store{cfg()};
  ShardedWal wal;
  std::set<std::string> inserted;
};

TEST(DeltaCkpt, FirstCutEscalatesToFoldThenChainsAndRecovers) {
  const auto dir = temp_dir("roundtrip");
  std::set<std::string> expect;
  {
    EngineRig rig(dir);
    DeltaEngine engine(rig.store, rig.wal, rig.dir);

    for (std::uint64_t i = 0; i < 8; ++i) rig.insert(i);
    // No base to chain from yet: the first cut must escalate to a fold.
    const DeltaCutStats first = engine.cut();
    EXPECT_TRUE(first.folded);
    EXPECT_EQ(engine.folds(), 1u);
    EXPECT_EQ(engine.chain_len(), 0u);

    for (std::uint64_t i = 8; i < 14; ++i) rig.insert(i);
    const DeltaCutStats second = engine.cut();
    EXPECT_FALSE(second.folded);
    EXPECT_FALSE(second.noop);
    EXPECT_EQ(second.delta_records, 6u);
    EXPECT_GT(second.delta_bytes, 0u);
    EXPECT_EQ(engine.chain_len(), 1u);
    EXPECT_EQ(engine.chain_bytes(), second.chain_bytes);

    for (std::uint64_t i = 14; i < 17; ++i) rig.insert(i);
    const DeltaCutStats third = engine.cut();
    EXPECT_EQ(third.chain_len, 2u);
    expect = rig.inserted;
  }
  // Recovery: base + two chained deltas, no WAL tail left to replay.
  RecoveryResult rec = recover(dir.string());
  ASSERT_TRUE(rec.store);
  EXPECT_TRUE(rec.used_manifest);
  EXPECT_EQ(rec.delta_cuts, 2u);
  EXPECT_EQ(rec.wal_records, 0u);
  EXPECT_TRUE(rec.store->check_invariants());
  EXPECT_EQ(store_names(*rec.store), expect);
  std::filesystem::remove_all(dir);
}

TEST(DeltaCkpt, ColdCutIsNoop) {
  const auto dir = temp_dir("cold");
  EngineRig rig(dir);
  DeltaEngine engine(rig.store, rig.wal, rig.dir);
  for (std::uint64_t i = 0; i < 5; ++i) rig.insert(i);
  engine.cut();
  const std::uint64_t chain_before = engine.chain_len();
  const std::uint64_t bytes_before = engine.total_delta_bytes();

  // Nothing mutated since: a cold store's cut must write nothing at all.
  const DeltaCutStats cold = engine.cut();
  EXPECT_TRUE(cold.noop);
  EXPECT_EQ(cold.delta_records, 0u);
  EXPECT_EQ(engine.chain_len(), chain_before);
  EXPECT_EQ(engine.total_delta_bytes(), bytes_before);
  std::filesystem::remove_all(dir);
}

TEST(DeltaCkpt, FoldCollapsesChainAndPrunesSupersededFiles) {
  const auto dir = temp_dir("fold");
  std::set<std::string> expect;
  {
    EngineRig rig(dir);
    DeltaEngine engine(rig.store, rig.wal, rig.dir);
    for (std::uint64_t i = 0; i < 6; ++i) rig.insert(i);
    engine.cut();  // fold #1 (no base yet)
    for (std::uint64_t i = 6; i < 10; ++i) rig.insert(i);
    engine.cut();
    for (std::uint64_t i = 10; i < 12; ++i) rig.insert(i);
    engine.cut();
    ASSERT_EQ(engine.chain_len(), 2u);

    const DeltaCutStats fold = engine.fold();
    EXPECT_TRUE(fold.folded);
    EXPECT_EQ(fold.chain_len, 0u);
    EXPECT_EQ(engine.chain_len(), 0u);
    EXPECT_EQ(engine.chain_bytes(), 0u);
    EXPECT_GT(fold.base_bytes, 0u);
    expect = rig.inserted;
  }
  // The superseded base image must be gone: exactly one base-<id>.bin
  // survives the fold's prune.
  std::size_t bases = 0;
  for (const auto& e :
       std::filesystem::directory_iterator(dir / "ckpt")) {
    const std::string name = e.path().filename().string();
    if (name.rfind("base-", 0) == 0) ++bases;
  }
  EXPECT_EQ(bases, 1u);

  RecoveryResult rec = recover(dir.string());
  ASSERT_TRUE(rec.store);
  EXPECT_TRUE(rec.used_manifest);
  EXPECT_EQ(rec.delta_cuts, 0u);
  EXPECT_EQ(store_names(*rec.store), expect);
  std::filesystem::remove_all(dir);
}

TEST(DeltaCkpt, ReconstructAtLastCutIgnoresRecordsAfterTheCut) {
  const auto dir = temp_dir("reconstruct");
  EngineRig rig(dir);
  DeltaEngine engine(rig.store, rig.wal, rig.dir);
  for (std::uint64_t i = 0; i < 7; ++i) rig.insert(i);
  engine.cut();
  const std::set<std::string> at_cut = rig.inserted;

  // Records after the cut live only in the WAL; the offline
  // reconstruction reads base + chain and must not see them.
  for (std::uint64_t i = 7; i < 11; ++i) rig.insert(i);
  rig.wal.commit_all();

  std::uint64_t seq = 0;
  auto rebuilt = engine.reconstruct_at_last_cut(&seq);
  ASSERT_TRUE(rebuilt);
  EXPECT_EQ(seq, engine.last_cut_seq());
  EXPECT_TRUE(rebuilt->check_invariants());
  EXPECT_EQ(store_names(*rebuilt), at_cut);
  std::filesystem::remove_all(dir);
}

TEST(DeltaCkpt, BudgetFoldFollowsTheCutThatPassesIt) {
  const auto dir = temp_dir("budget");
  EngineRig rig(dir);
  DeltaEngine engine(rig.store, rig.wal, rig.dir);
  util::ThreadPool pool(2);
  BackgroundCheckpointer bg(engine, pool, /*max_chain_len=*/2,
                            /*max_chain_bytes=*/0);

  std::uint64_t next = 0;
  auto churn_and_cut = [&] {
    for (int i = 0; i < 3; ++i) rig.insert(next++);
    ASSERT_TRUE(bg.trigger());
    bg.wait();
  };
  churn_and_cut();  // fold #1 (no base yet), chain 0
  churn_and_cut();  // chain 1 — under budget
  churn_and_cut();  // chain 2 — still not PAST the budget (strict >)
  EXPECT_EQ(bg.folds_scheduled(), 0u);
  EXPECT_EQ(engine.chain_len(), 2u);
  churn_and_cut();  // chain 3 — over budget: the same slot run folds
  EXPECT_EQ(bg.folds_scheduled(), 1u);
  EXPECT_EQ(engine.chain_len(), 0u);
  EXPECT_EQ(engine.folds(), 2u);

  RecoveryResult rec = recover(dir.string());
  ASSERT_TRUE(rec.store);
  EXPECT_EQ(store_names(*rec.store), rig.inserted);
  std::filesystem::remove_all(dir);
}

TEST(DeltaCkpt, EngineRefusesAWalOwningAnotherDirectory) {
  // Every fence and rebase pairs with <dir>/wal/: an engine over another
  // directory's log would fence records its checkpoint never contains.
  const auto dir = temp_dir("foreign_a");
  const auto other = temp_dir("foreign_b");
  EngineRig rig(dir);
  EXPECT_THROW(DeltaEngine(rig.store, rig.wal, other.string()), PersistError);
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(other);
}

// ---- db facade --------------------------------------------------------------

db::Options small_options() {
  db::Options o;
  o.num_units = 6;
  o.seed = 11;
  return o;
}

std::unique_ptr<db::Store> open_or_die(const db::Options& o,
                                       const std::string& path) {
  auto opened = db::Store::Open(o, path);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(opened).value();
}

TEST(DeltaDb, CheckpointCadenceCutsDeltasAndReopens) {
  const auto dir = temp_dir("db_roundtrip");
  {
    auto store = open_or_die(small_options(), dir.string());
    for (std::uint64_t i = 0; i < 30; ++i)
      ASSERT_TRUE(store->Put(make_file(i)).ok());
    ASSERT_TRUE(store->Checkpoint().ok());  // fold (fresh store)
    for (std::uint64_t i = 30; i < 40; ++i)
      ASSERT_TRUE(store->Put(make_file(i)).ok());
    ASSERT_TRUE(store->Checkpoint().ok());  // delta cut

    const db::CheckpointInfo info = store->GetCheckpointInfo();
    EXPECT_TRUE(info.last_was_delta);
    EXPECT_GE(info.delta_cuts, 1u);
    EXPECT_EQ(info.last_delta_records, 10u);
    EXPECT_GE(info.delta_chain_len, 1u);
    EXPECT_GT(info.delta_chain_bytes, 0u);

    std::string v;
    ASSERT_TRUE(store->GetProperty("smartstore.ckpt.delta-enabled", &v));
    EXPECT_EQ(v, "1");
    ASSERT_TRUE(store->GetProperty("smartstore.ckpt.delta-chain-len", &v));
    EXPECT_EQ(v, std::to_string(info.delta_chain_len));
    ASSERT_TRUE(store->GetProperty("smartstore.ckpt.delta-total-bytes", &v));
    EXPECT_NE(v, "0");
    ASSERT_TRUE(store->Close().ok());
  }
  {
    auto store = open_or_die(small_options(), dir.string());
    EXPECT_TRUE(store->recovery_info().recovered);
    std::string v;
    ASSERT_TRUE(store->GetProperty("smartstore.total-files", &v));
    EXPECT_EQ(v, "40");
    ASSERT_TRUE(store->Close().ok());
  }
  std::filesystem::remove_all(dir);
}

TEST(DeltaDb, CompactFoldsTheChainAndSurvivesReopen) {
  const auto dir = temp_dir("db_compact");
  {
    auto store = open_or_die(small_options(), dir.string());
    for (int round = 0; round < 3; ++round) {
      for (std::uint64_t i = 0; i < 10; ++i)
        ASSERT_TRUE(store->Put(make_file(round * 10 + i)).ok());
      ASSERT_TRUE(store->Checkpoint().ok());
    }
    ASSERT_TRUE(store->Compact().ok());
    const db::CheckpointInfo info = store->GetCheckpointInfo();
    EXPECT_GE(info.delta_folds, 1u);
    EXPECT_EQ(info.delta_chain_len, 0u);
    std::string v;
    ASSERT_TRUE(store->GetProperty("smartstore.ckpt.delta-folds", &v));
    EXPECT_NE(v, "0");
    ASSERT_TRUE(store->Close().ok());
  }
  {
    auto store = open_or_die(small_options(), dir.string());
    std::string v;
    ASSERT_TRUE(store->GetProperty("smartstore.total-files", &v));
    EXPECT_EQ(v, "30");
    ASSERT_TRUE(store->Close().ok());
  }
  std::filesystem::remove_all(dir);
}

TEST(DeltaDb, WalOffStoreCheckpointsByFold) {
  // Without a WAL a cut would see nothing: Checkpoint() folds instead, and
  // the fold must capture every unlogged mutation.
  const auto dir = temp_dir("db_wal_off");
  db::Options o = small_options();
  o.enable_wal = false;
  {
    auto store = open_or_die(o, dir.string());
    for (std::uint64_t i = 0; i < 5; ++i)
      ASSERT_TRUE(store->Put(make_file(i)).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
    ASSERT_TRUE(store->Put(make_file(5)).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
    std::string v;
    ASSERT_TRUE(store->GetProperty("smartstore.ckpt.delta-enabled", &v));
    EXPECT_EQ(v, "0");
    ASSERT_TRUE(store->GetProperty("smartstore.ckpt.delta-cuts", &v));
    EXPECT_EQ(v, "0");
    ASSERT_TRUE(store->GetProperty("smartstore.ckpt.delta-folds", &v));
    EXPECT_EQ(v, "2");
    EXPECT_TRUE(store->Compact().ok());
    ASSERT_TRUE(store->Close().ok());
  }
  auto reopened = open_or_die(o, dir.string());
  EXPECT_TRUE(reopened->recovery_info().used_manifest);
  std::string v;
  ASSERT_TRUE(reopened->GetProperty("smartstore.total-files", &v));
  EXPECT_EQ(v, "6");
  ASSERT_TRUE(reopened->Close().ok());
  std::filesystem::remove_all(dir);
}

TEST(DeltaDb, SnapshotPropertiesReportTheManifestBaseImage) {
  // The first cut of a fresh store escalates to a fold, which publishes
  // ckpt/base-<id>.bin and prunes snapshot.bin: the properties must name
  // the image the manifest reads, not the pruned legacy file.
  const auto dir = temp_dir("db_snapshot_props");
  auto store = open_or_die(small_options(), dir.string());
  auto check_base = [&](const char* when) {
    std::string path, bytes;
    ASSERT_TRUE(store->GetProperty("smartstore.snapshot.path", &path)) << when;
    ASSERT_TRUE(std::filesystem::exists(path)) << when << ": " << path;
    EXPECT_EQ(path, persist::base_image_path(dir.string(),
                                             persist::read_manifest(
                                                 dir.string())))
        << when;
    ASSERT_TRUE(store->GetProperty("smartstore.snapshot.bytes", &bytes))
        << when;
    EXPECT_EQ(std::stoull(bytes), std::filesystem::file_size(path)) << when;
  };
  std::string none;
  EXPECT_FALSE(store->GetProperty("smartstore.snapshot.path", &none))
      << "nothing checkpointed yet, got " << none;
  for (std::uint64_t i = 0; i < 30; ++i)
    ASSERT_TRUE(store->Put(make_file(i)).ok());
  ASSERT_TRUE(store->Checkpoint().ok());  // fold (fresh store)
  check_base("after the first checkpoint");
  for (std::uint64_t i = 30; i < 35; ++i)
    ASSERT_TRUE(store->Put(make_file(i)).ok());
  ASSERT_TRUE(store->Checkpoint().ok());  // delta cut on that base
  check_base("after a cut");
  ASSERT_TRUE(store->Compact().ok());  // a fresh base; the old one pruned
  check_base("after a compaction");
  ASSERT_TRUE(store->Close().ok());
  std::filesystem::remove_all(dir);
}

TEST(DeltaDb, DumpSnapshotThroughDeltaCutMatchesContents) {
  const auto dir = temp_dir("db_dump");
  auto store = open_or_die(small_options(), dir.string());
  std::set<std::string> expect;
  for (std::uint64_t i = 0; i < 25; ++i) {
    ASSERT_TRUE(store->Put(make_file(i)).ok());
    expect.insert(make_file(i).name);
  }
  std::uint64_t seq = 0;
  auto dump = store->DumpSnapshot(&seq);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  EXPECT_GT(seq, 0u);
  std::set<std::string> got;
  for (const auto& f : *dump) got.insert(f.name);
  EXPECT_EQ(got, expect);
  // The reroute cut a delta to reconstruct from: the engine's counters
  // must show it.
  std::string v;
  ASSERT_TRUE(store->GetProperty("smartstore.ckpt.delta-last-cut-seq", &v));
  EXPECT_EQ(v, std::to_string(seq));
  ASSERT_TRUE(store->Close().ok());
  std::filesystem::remove_all(dir);
}

// Regression for the cadence-counter thundering herd: note_mutations used
// to reset the counter only when trigger() accepted the request, so while
// a checkpoint was in flight EVERY subsequent mutation re-took the
// coalescing lock and re-poked the checkpointer. Post-fix the counter
// resets unconditionally once a trigger attempt is made — single-threaded
// with checkpoint_every=1 the pending counter must therefore read 0 after
// every Put (the uncontended try_lock always succeeds).
TEST(DeltaDb, CadenceCounterResetsEvenWhenCheckpointInFlight) {
  const auto dir = temp_dir("db_cadence");
  db::Options o = small_options();
  o.checkpoint_every = 1;
  auto store = open_or_die(o, dir.string());
  for (std::uint64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(store->Put(make_file(i)).ok());
    std::string v;
    ASSERT_TRUE(
        store->GetProperty("smartstore.checkpoints.cadence-pending", &v));
    EXPECT_EQ(v, "0") << "mutation " << i
                      << " left the cadence counter armed";
  }
  ASSERT_TRUE(store->Close().ok());
  std::filesystem::remove_all(dir);
}

}  // namespace
