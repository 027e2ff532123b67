// Read-side compatibility: every on-disk layout an earlier release left
// behind opens through db::Store with each record present exactly once.
// No writer in the library produces these layouts any more, so the tests
// build them by hand (tests/legacy_layout.h):
//
//   (a) snapshot.bin only;
//   (b) snapshot.bin + a live v01 or v02 wal.bin, whose fence covers a
//       prefix — Open replays the log once, folds, and removes it; a
//       wal.bin torn mid-commit folds only its committed prefix;
//   (c) a crash at each fault point of that adoption fold, then a reopen;
//   (d) a MANIFEST + a stale wal.bin its fence covers — never replayed;
//   (e) a WAL deployment abandoned with a shard tail, reopened with
//       enable_wal = false, checkpointed (a fold), and reopened again.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "legacy_layout.h"
#include "persist/delta_checkpoint.h"
#include "persist/fault.h"
#include "persist/recovery.h"
#include "persist/segment.h"
#include "persist/wal_shard.h"
#include "smartstore/smartstore.h"
#include "trace/synth.h"

namespace {

using namespace smartstore;
using persist::fixtures::insert_record;
using persist::fixtures::save_image;
using persist::fixtures::write_legacy_wal;

std::string temp_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("smartstore_test_compat_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

db::Options options() {
  db::Options o;
  o.num_units = 6;
  o.seed = 11;
  return o;
}

core::Config config() {
  core::Config cfg;
  cfg.num_units = options().num_units;
  cfg.seed = options().seed;
  return cfg;
}

/// A base population plus a stream of later inserts.
struct Population {
  trace::SyntheticTrace trace = trace::SyntheticTrace::generate(
      trace::msn_profile(), 1, 42, /*downscale=*/50);
  std::vector<metadata::FileMetadata> stream =
      trace.make_insert_stream(10, 77);

  std::set<std::string> names(std::size_t stream_prefix) const {
    std::set<std::string> out;
    for (const auto& f : trace.files()) out.insert(f.name);
    for (std::size_t i = 0; i < stream_prefix; ++i) out.insert(stream[i].name);
    return out;
  }
};

/// Every expected record is present (exact on-line routing) and no record
/// is there twice (the file count matches the expected set).
void expect_exactly_once(db::Store& store,
                         const std::set<std::string>& expected,
                         const std::string& when) {
  std::string v;
  ASSERT_TRUE(store.GetProperty("smartstore.total-files", &v)) << when;
  EXPECT_EQ(std::stoull(v), expected.size()) << when;
  for (const std::string& name : expected) {
    db::QueryRequest q = db::QueryRequest::Point(metadata::PointQuery{name});
    q.routing = db::Routing::kOnline;
    auto r = store.Query(q);
    ASSERT_TRUE(r.ok()) << when;
    EXPECT_TRUE(r->found) << name << " missing " << when;
  }
}

void reopen_and_expect(const std::string& dir,
                       const std::set<std::string>& expected,
                       const std::string& when,
                       const db::Options& o = options()) {
  auto opened = db::Store::Open(o, dir);
  ASSERT_TRUE(opened.ok()) << when << ": " << opened.status().ToString();
  expect_exactly_once(**opened, expected, when);
  ASSERT_TRUE((*opened)->Close().ok()) << when;
}

/// snapshot.bin holding the base plus the first `covered` stream records,
/// and a legacy wal.bin holding all of them: its fence skips the covered
/// prefix, the rest replays.
void make_legacy_dir(const std::string& dir, const Population& pop, bool v1,
                     std::size_t covered) {
  core::SmartStore store(config());
  store.build(pop.trace.files());
  std::vector<persist::WalRecord> records;
  for (std::size_t i = 0; i < pop.stream.size(); ++i) {
    if (i < covered) store.insert_file(pop.stream[i], 0.0);
    records.push_back(insert_record(pop.stream[i]));
  }
  const std::uint64_t generation = 4242;
  persist::WalFence fence;
  fence.present = true;
  fence.generation = generation;
  fence.records = covered;
  save_image(store, persist::snapshot_path(dir), fence);
  write_legacy_wal(persist::wal_path(dir), v1, generation, records);
}

TEST(LegacyCompat, SnapshotOnly) {
  const std::string dir = temp_dir("snapshot_only");
  Population pop;
  {
    core::SmartStore store(config());
    store.build(pop.trace.files());
    save_image(store, persist::snapshot_path(dir));
  }
  reopen_and_expect(dir, pop.names(0), "on the first open");
  // The first checkpoint adopts snapshot.bin as the chain's base.
  {
    auto store = db::Store::Open(options(), dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put(pop.stream[0]).ok());
    ASSERT_TRUE((*store)->Checkpoint().ok());
    ASSERT_TRUE((*store)->Close().ok());
  }
  EXPECT_TRUE(persist::manifest_exists(dir));
  reopen_and_expect(dir, pop.names(1), "after the first cut");
  std::filesystem::remove_all(dir);
}

TEST(LegacyCompat, LiveLegacyWalIsReplayedOnceFoldedAndRemoved) {
  for (const bool v1 : {true, false}) {
    const std::string tag = v1 ? "v1" : "v2";
    const std::string dir = temp_dir("live_" + tag);
    Population pop;
    make_legacy_dir(dir, pop, v1, /*covered=*/3);

    {
      auto store = db::Store::Open(options(), dir);
      ASSERT_TRUE(store.ok()) << tag << ": " << store.status().ToString();
      const db::RecoveryInfo& ri = (*store)->recovery_info();
      EXPECT_EQ(ri.wal_fenced, 3u) << tag;
      EXPECT_EQ(ri.wal_records, pop.stream.size() - 3) << tag;
      expect_exactly_once(**store, pop.names(pop.stream.size()),
                          tag + " after adoption");
      ASSERT_TRUE((*store)->Close().ok());
    }
    EXPECT_TRUE(persist::manifest_exists(dir)) << tag;
    EXPECT_FALSE(std::filesystem::exists(persist::wal_path(dir))) << tag;
    EXPECT_FALSE(std::filesystem::exists(persist::snapshot_path(dir))) << tag;
    reopen_and_expect(dir, pop.names(pop.stream.size()),
                      tag + " on the reopen after adoption");
    std::filesystem::remove_all(dir);
  }
}

TEST(LegacyCompat, TornLegacyWalFoldsExactlyTheCommittedPrefix) {
  // An old deployment that crashed mid-commit: its wal.bin ends in a torn
  // block. The adoption fold keeps the committed prefix and nothing else.
  const std::string dir = temp_dir("torn_legacy");
  Population pop;
  make_legacy_dir(dir, pop, /*v1=*/false, /*covered=*/3);
  // Ten records in blocks of four: tearing into the last block leaves the
  // first eight committed.
  const std::string wal = persist::wal_path(dir);
  std::filesystem::resize_file(wal, std::filesystem::file_size(wal) - 9);
  ASSERT_EQ(pop.stream.size(), 10u);
  {
    auto store = db::Store::Open(options(), dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    const db::RecoveryInfo& ri = (*store)->recovery_info();
    EXPECT_TRUE(ri.wal_tail_torn);
    EXPECT_EQ(ri.wal_fenced, 3u);
    EXPECT_EQ(ri.wal_records, 5u);
    expect_exactly_once(**store, pop.names(8), "after adoption");
    for (std::size_t i = 8; i < pop.stream.size(); ++i) {
      db::QueryRequest q =
          db::QueryRequest::Point(metadata::PointQuery{pop.stream[i].name});
      q.routing = db::Routing::kOnline;
      auto r = (*store)->Query(q);
      ASSERT_TRUE(r.ok());
      EXPECT_FALSE(r->found) << pop.stream[i].name << " was never committed";
    }
    ASSERT_TRUE((*store)->Close().ok());
  }
  EXPECT_TRUE(persist::manifest_exists(dir));
  EXPECT_FALSE(std::filesystem::exists(wal));
  reopen_and_expect(dir, pop.names(8), "on the reopen after adoption");
  std::filesystem::remove_all(dir);
}

TEST(LegacyCompat, CrashAtEveryAdoptionFaultPointRecovers) {
  Population pop;
  const std::set<std::string> expected = pop.names(pop.stream.size());
  std::set<std::string> fired;
  bool completed = false;
  for (std::size_t k = 1; k <= 200 && !completed; ++k) {
    const std::string dir = temp_dir("adopt_" + std::to_string(k));
    make_legacy_dir(dir, pop, /*v1=*/false, /*covered=*/3);
    db::Options armed = options();
    armed.crash_at = k;
    {
      auto store = db::Store::Open(armed, dir);
      if (store.ok()) {
        completed = true;  // the adoption crossed fewer than k points
        ASSERT_TRUE((*store)->Close().ok());
      } else {
        ASSERT_EQ(store.status().code(), db::StatusCode::kFaultInjected)
            << "point " << k << ": " << store.status().ToString();
        fired.insert(persist::fault_last_fired());
      }
    }
    reopen_and_expect(dir, expected,
                      "after a crash at adoption point " + std::to_string(k) +
                          " (" + persist::fault_last_fired() + ")");
    EXPECT_TRUE(persist::manifest_exists(dir)) << k;
    EXPECT_FALSE(std::filesystem::exists(persist::wal_path(dir))) << k;
    std::filesystem::remove_all(dir);
  }
  EXPECT_TRUE(completed) << "the adoption never completed";
  // The adoption is one fold: its image, manifest and prune stages.
  for (const char* point :
       {"snapshot:section:config", "snapshot:write:pre-rename",
        "ckpt:manifest:torn-temp", "ckpt:manifest:pre-dirsync",
        "compact:pre-rebase", "compact:pre-prune"}) {
    EXPECT_TRUE(fired.count(point)) << "sweep never crossed " << point;
  }
}

TEST(LegacyCompat, ManifestWithCoveredWalBinNeverReplaysIt) {
  // What an incremental deployment could leave behind: a manifest whose
  // base already holds every record of a leftover wal.bin it fences.
  const std::string dir = temp_dir("manifest_covered");
  Population pop;
  {
    core::SmartStore store(config());
    store.build(pop.trace.files());
    std::vector<persist::WalRecord> records;
    for (const auto& f : pop.stream) {
      store.insert_file(f, 0.0);
      records.push_back(insert_record(f));
    }
    persist::ShardedWal wal(dir, store.units().size());
    persist::DeltaEngine engine(store, wal, dir);
    engine.fold();
    write_legacy_wal(persist::wal_path(dir), /*v1=*/false, 99, records);
    persist::DeltaManifest m = persist::read_manifest(dir);
    m.fence.generation = 99;
    m.fence.records = records.size();
    persist::write_manifest(dir, m);
  }
  {
    auto store = db::Store::Open(options(), dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_TRUE((*store)->recovery_info().used_manifest);
    EXPECT_EQ((*store)->recovery_info().wal_records, 0u);
    expect_exactly_once(**store, pop.names(pop.stream.size()),
                        "on the first open");
    ASSERT_TRUE((*store)->Close().ok());
  }
  EXPECT_FALSE(std::filesystem::exists(persist::wal_path(dir)));
  reopen_and_expect(dir, pop.names(pop.stream.size()), "on the reopen");
  std::filesystem::remove_all(dir);
}

TEST(LegacyCompat, AbandonedShardTailReopenedWithoutWalFoldsIt) {
  const std::string dir = temp_dir("tail_wal_off");
  Population pop;
  {
    auto store = db::Store::Open(options(), dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Bulkload(pop.trace.files()).ok());
    for (std::size_t i = 0; i < 4; ++i)
      ASSERT_TRUE((*store)->Put(pop.stream[i]).ok());
    ASSERT_TRUE((*store)->Checkpoint().ok());
    for (std::size_t i = 4; i < 8; ++i)
      ASSERT_TRUE((*store)->Put(pop.stream[i]).ok());
    ASSERT_TRUE((*store)->Flush().ok());
    (*store)->Abandon();  // crash with four records in the shard tail
  }
  db::Options wal_off = options();
  wal_off.enable_wal = false;
  {
    auto store = db::Store::Open(wal_off, dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ((*store)->recovery_info().wal_records, 4u);
    expect_exactly_once(**store, pop.names(8), "with the tail replayed");
    // Unlogged from here on: only the fold below makes these durable.
    for (std::size_t i = 8; i < 10; ++i)
      ASSERT_TRUE((*store)->Put(pop.stream[i]).ok());
    ASSERT_TRUE((*store)->Checkpoint().ok());
    ASSERT_TRUE((*store)->Close().ok());
  }
  // The fold fenced and rebased the tail it contains: nothing replays.
  {
    auto store = db::Store::Open(wal_off, dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ((*store)->recovery_info().wal_records, 0u);
    expect_exactly_once(**store, pop.names(10), "after the fold");
    ASSERT_TRUE((*store)->Close().ok());
  }
  reopen_and_expect(dir, pop.names(10), "with the WAL back on");
  std::filesystem::remove_all(dir);
}

}  // namespace
