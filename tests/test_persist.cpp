// The crash-consistent persistence layer: binary io bounds checking, CRC32
// vectors, snapshot round-trip fidelity (identical query results on an
// HP-profile deployment), corruption detection, WAL group commit, torn-tail
// recovery to the last commit boundary, the read-only legacy WAL layouts,
// and recovery from a snapshot image plus logs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "core/ground_truth.h"
#include "legacy_layout.h"
#include "persist/fault.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "persist/wal_shard.h"
#include "trace/query_gen.h"
#include "trace/synth.h"
#include "util/binary_io.h"
#include "util/crc32.h"

namespace smartstore::persist {
namespace {

using core::Config;
using core::Routing;
using core::SmartStore;
using metadata::AttrSubset;
using metadata::FileId;
using metadata::FileMetadata;
using fixtures::insert_record;
using fixtures::remove_record;
using fixtures::save_image;
using fixtures::write_legacy_wal;

std::string temp_dir(const char* tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("smartstore_persist_") + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// ---- binary io --------------------------------------------------------------

TEST(BinaryIo, PrimitivesRoundTrip) {
  util::BinaryWriter w;
  w.write_u8(0xAB);
  w.write_u32(0xDEADBEEF);
  w.write_u64(0x0123456789ABCDEFULL);
  w.write_f64(-1234.5678);
  w.write_bool(true);
  w.write_string("hello, store");
  w.write_vec_f64({1.0, -2.5, 1e300});
  w.write_vec_size({0, 42, static_cast<std::size_t>(-1)});

  util::BinaryReader r(w.buffer());
  EXPECT_EQ(r.read_u8(), 0xAB);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_u64(), 0x0123456789ABCDEFULL);
  EXPECT_DOUBLE_EQ(r.read_f64(), -1234.5678);
  EXPECT_TRUE(r.read_bool());
  EXPECT_EQ(r.read_string(), "hello, store");
  EXPECT_EQ(r.read_vec_f64(), (std::vector<double>{1.0, -2.5, 1e300}));
  EXPECT_EQ(r.read_vec_size(),
            (std::vector<std::size_t>{0, 42, static_cast<std::size_t>(-1)}));
  EXPECT_TRUE(r.at_end());
}

TEST(BinaryIo, ReadPastEndThrows) {
  util::BinaryWriter w;
  w.write_u32(7);
  util::BinaryReader r(w.buffer());
  EXPECT_EQ(r.read_u32(), 7u);
  EXPECT_THROW(r.read_u8(), util::BinaryIoError);
}

TEST(BinaryIo, GarbageLengthPrefixRejectedBeforeAllocation) {
  util::BinaryWriter w;
  w.write_u64(static_cast<std::uint64_t>(-1));  // absurd element count
  util::BinaryReader r(w.buffer());
  EXPECT_THROW(r.read_vec_f64(), util::BinaryIoError);
}

TEST(BinaryIo, TruncatedStringThrows) {
  util::BinaryWriter w;
  w.write_string("0123456789");
  std::vector<std::uint8_t> cut(w.buffer().begin(), w.buffer().end() - 4);
  util::BinaryReader r(cut);
  EXPECT_THROW(r.read_string(), util::BinaryIoError);
}

TEST(Crc32, KnownVectors) {
  // The canonical CRC-32 check value.
  EXPECT_EQ(util::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(util::crc32("", 0), 0x00000000u);
  // Incremental == one-shot.
  std::uint32_t st = util::crc32_init();
  st = util::crc32_update(st, "1234", 4);
  st = util::crc32_update(st, "56789", 5);
  EXPECT_EQ(util::crc32_final(st), 0xCBF43926u);
}

// ---- snapshot ---------------------------------------------------------------

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // HP-profile deployment, per the acceptance criterion.
    trace_ = trace::SyntheticTrace::generate(trace::hp_profile(), /*tif=*/1,
                                             /*seed=*/42, /*downscale=*/10);
    Config cfg;
    cfg.num_units = 16;
    cfg.fanout = 5;
    cfg.seed = 7;
    store_ = std::make_unique<SmartStore>(cfg);
    store_->build(trace_.files());
  }

  trace::SyntheticTrace trace_{};
  std::unique_ptr<SmartStore> store_;
};

TEST_F(SnapshotTest, RoundTripPreservesStructure) {
  const std::string dir = temp_dir("structure");
  const std::string path = snapshot_path(dir);
  save_image(*store_, path);

  auto loaded = load_snapshot(path);
  ASSERT_TRUE(loaded);
  EXPECT_TRUE(loaded->check_invariants());
  EXPECT_EQ(loaded->total_files(), store_->total_files());
  ASSERT_EQ(loaded->units().size(), store_->units().size());
  for (std::size_t u = 0; u < store_->units().size(); ++u) {
    EXPECT_EQ(loaded->units()[u].file_count(), store_->units()[u].file_count());
  }
  EXPECT_EQ(loaded->tree().num_nodes(), store_->tree().num_nodes());
  EXPECT_EQ(loaded->tree().height(), store_->tree().height());
  EXPECT_EQ(loaded->tree().groups(), store_->tree().groups());
  EXPECT_EQ(loaded->tree().root_replicas(), store_->tree().root_replicas());
  EXPECT_EQ(loaded->config().version_ratio, store_->config().version_ratio);
}

TEST_F(SnapshotTest, RoundTripYieldsIdenticalQueryResults) {
  const std::string dir = temp_dir("queries");
  const std::string path = snapshot_path(dir);
  save_image(*store_, path);
  auto loaded = load_snapshot(path);

  // Pre-generate the batches so both stores see the same query stream;
  // both stores start from the same persisted rng state, so routing draws
  // coincide too.
  trace::QueryGenerator gen(trace_, trace::QueryDistribution::kZipf, 99);
  const auto dims = AttrSubset::all();
  std::vector<metadata::PointQuery> points;
  std::vector<metadata::RangeQuery> ranges;
  std::vector<metadata::TopKQuery> topks;
  for (int i = 0; i < 120; ++i) points.push_back(gen.gen_point());
  for (int i = 0; i < 40; ++i) ranges.push_back(gen.gen_range(dims));
  for (int i = 0; i < 40; ++i) topks.push_back(gen.gen_topk(dims, 8));

  for (const auto& q : points) {
    const auto a = store_->point_query(q, Routing::kOffline, 0.0);
    const auto b = loaded->point_query(q, Routing::kOffline, 0.0);
    EXPECT_EQ(a.found, b.found) << "point query diverged on " << q.filename;
    if (a.found && b.found) {
      EXPECT_EQ(a.id, b.id);
    }
  }
  double recall_a = 0, recall_b = 0;
  for (const auto& q : ranges) {
    auto a = store_->range_query(q, Routing::kOffline, 0.0).ids;
    auto b = loaded->range_query(q, Routing::kOffline, 0.0).ids;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
    const auto truth = core::brute_force_range(trace_.files(), q);
    recall_a += core::recall(truth, a);
    recall_b += core::recall(truth, b);
  }
  EXPECT_DOUBLE_EQ(recall_a, recall_b);
  for (const auto& q : topks) {
    auto a = store_->topk_query(q, Routing::kOffline, 0.0).ids();
    auto b = loaded->topk_query(q, Routing::kOffline, 0.0).ids();
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
  }
}

TEST_F(SnapshotTest, SurvivesPostBuildMutations) {
  // Insert + delete before snapshotting so pending deltas, sealed versions
  // and conservative (unshrunk) MBRs all hit the codec.
  const auto extra = trace_.make_insert_stream(25, 1234);
  for (const auto& f : extra) store_->insert_file(f, 0.0);
  for (int i = 0; i < 5; ++i)
    store_->delete_file(trace_.files()[i * 31].name, 0.0);
  ASSERT_TRUE(store_->check_invariants());

  const std::string dir = temp_dir("mutated");
  save_image(*store_, snapshot_path(dir));
  auto loaded = load_snapshot(snapshot_path(dir));
  EXPECT_TRUE(loaded->check_invariants());
  EXPECT_EQ(loaded->total_files(), store_->total_files());
  // The deleted files stay gone; the inserted ones stay present.
  for (const auto& f : extra) {
    const auto res = loaded->point_query({f.name}, Routing::kOnline, 0.0);
    EXPECT_TRUE(res.found) << f.name;
  }
}

TEST_F(SnapshotTest, CorruptedSectionFailsLoad) {
  const std::string dir = temp_dir("corrupt");
  const std::string path = snapshot_path(dir);
  save_image(*store_, path);

  auto bytes = util::read_file_bytes(path);
  bytes[bytes.size() / 2] ^= 0x40;  // flip one bit mid-file
  util::write_file_atomic(path, bytes);
  EXPECT_THROW(load_snapshot(path), PersistError);
}

TEST_F(SnapshotTest, TruncatedFileFailsLoad) {
  const std::string dir = temp_dir("truncated");
  const std::string path = snapshot_path(dir);
  save_image(*store_, path);

  auto bytes = util::read_file_bytes(path);
  bytes.resize(bytes.size() * 3 / 4);
  util::write_file_atomic(path, bytes);
  EXPECT_THROW(load_snapshot(path), PersistError);
}

TEST_F(SnapshotTest, BadMagicFailsLoad) {
  const std::string dir = temp_dir("magic");
  const std::string path = snapshot_path(dir);
  util::write_file_atomic(path, {'n', 'o', 't', 'a', 's', 'n', 'a', 'p',
                                 0, 0, 0, 0});
  EXPECT_THROW(load_snapshot(path), PersistError);
}

// ---- WAL --------------------------------------------------------------------

/// A v03 log path (the layout every shard log uses).
std::string log_path(const std::string& dir) {
  return (std::filesystem::path(dir) / "0.log").string();
}

/// Appends `stream` as inserts stamped first_seq, first_seq + 1, ...,
/// committing every `block` records; a shorter tail stays pending.
void log_inserts(WalWriter& wal, const std::vector<FileMetadata>& stream,
                 std::size_t block, std::uint64_t first_seq = 1) {
  for (std::size_t i = 0; i < stream.size(); ++i) {
    wal.append(insert_record(stream[i], first_seq + i));
    if (wal.pending_records() == block) wal.commit();
  }
}

TEST(Wal, GroupCommitBatchesRecords) {
  const std::string dir = temp_dir("wal_batch");
  const std::string path = log_path(dir);
  trace::SyntheticTrace tr = trace::SyntheticTrace::generate(
      trace::msn_profile(), 1, 42, /*downscale=*/50);
  const auto stream = tr.make_insert_stream(10, 5);

  {
    WalWriter wal(path);
    log_inserts(wal, stream, /*block=*/4);
    // 10 records at block 4: blocks of 4+4 committed, 2 still pending.
    EXPECT_EQ(wal.committed_records(), 8u);
    EXPECT_EQ(wal.pending_records(), 2u);
  }  // destructor commits the tail batch

  const WalScan scan = scan_wal(path);
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_TRUE(scan.v3_magic);
  EXPECT_EQ(scan.blocks, 3u);
  EXPECT_EQ(scan.max_seq, 10u);
  ASSERT_EQ(scan.records.size(), 10u);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(scan.records[i].type, WalRecordType::kInsert);
    EXPECT_EQ(scan.records[i].seq, i + 1);
    EXPECT_EQ(scan.records[i].file.id, stream[i].id);
    EXPECT_EQ(scan.records[i].file.name, stream[i].name);
  }
}

TEST(Wal, RemoveRecordsRoundTrip) {
  const std::string dir = temp_dir("wal_remove");
  const std::string path = log_path(dir);
  {
    WalWriter wal(path);
    wal.append(remove_record("some/file.txt", 1));
    wal.append(remove_record("other/file.bin", 2));
    wal.commit();
  }
  const WalScan scan = scan_wal(path);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0].type, WalRecordType::kRemove);
  EXPECT_EQ(scan.records[0].name, "some/file.txt");
  EXPECT_EQ(scan.records[1].name, "other/file.bin");
}

TEST(Wal, TornTailRecoversToLastCommitBoundary) {
  const std::string dir = temp_dir("wal_torn");
  const std::string path = log_path(dir);
  trace::SyntheticTrace tr = trace::SyntheticTrace::generate(
      trace::msn_profile(), 1, 42, /*downscale=*/50);
  const auto stream = tr.make_insert_stream(12, 5);

  {
    WalWriter wal(path);
    log_inserts(wal, stream, /*block=*/4);
  }  // 3 complete blocks of 4

  // Crash mid-append: chop into the last block's payload.
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 17);

  const WalScan scan = scan_wal(path);
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.blocks, 2u);
  EXPECT_EQ(scan.records.size(), 8u);  // the last commit is the cutoff

  // Reopening for append truncates the tear; new records land after the
  // valid prefix and the log scans clean again.
  {
    WalWriter wal(path);
    EXPECT_EQ(wal.committed_records(), 8u);
    wal.append(insert_record(stream[8], 9));
    wal.commit();
  }
  const WalScan rescan = scan_wal(path);
  EXPECT_FALSE(rescan.torn_tail);
  EXPECT_EQ(rescan.records.size(), 9u);
}

TEST(Wal, CorruptedBlockChecksumStopsScan) {
  const std::string dir = temp_dir("wal_crc");
  const std::string path = log_path(dir);
  trace::SyntheticTrace tr = trace::SyntheticTrace::generate(
      trace::msn_profile(), 1, 42, /*downscale=*/50);
  const auto stream = tr.make_insert_stream(8, 5);
  {
    WalWriter wal(path);
    log_inserts(wal, stream, /*block=*/4);
  }
  auto bytes = util::read_file_bytes(path);
  bytes[bytes.size() - 10] ^= 0x01;  // corrupt the second block's payload
  util::write_file_atomic(path, bytes);

  const WalScan scan = scan_wal(path);
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.blocks, 1u);
  EXPECT_EQ(scan.records.size(), 4u);
}

TEST(Wal, MissingFileScansEmpty) {
  const std::string dir = temp_dir("wal_missing");
  const WalScan scan = scan_wal(log_path(dir));
  EXPECT_EQ(scan.records.size(), 0u);
  EXPECT_FALSE(scan.torn_tail);
}

TEST(Wal, CraftedHugeRecordCountIsCorruptionNotAllocation) {
  // A block whose header claims 2^32-1 records over a 1-byte payload, with
  // a *valid* checksum: must be treated as a corrupt block (prefix kept),
  // not turned into a multi-gigabyte reserve.
  const std::string dir = temp_dir("wal_hugecount");
  const std::string path = wal_path(dir);
  util::BinaryWriter w;
  w.write_bytes(kWalMagicV2, sizeof(kWalMagicV2));
  w.write_u64(12345);  // log generation
  w.write_u32(kWalBlockMagic);
  w.write_u32(0xFFFFFFFFu);  // absurd record count
  w.write_u64(1);            // one payload byte
  const std::uint8_t payload = 0x01;
  w.write_u8(payload);
  w.write_u32(util::crc32(&payload, 1));
  util::write_file_atomic(path, w.buffer());

  const WalScan scan = scan_wal(path);
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.blocks, 0u);
  EXPECT_EQ(scan.records.size(), 0u);
}

TEST(Wal, RebaseDropsFencedPrefixKeepsTailUnderNextGeneration) {
  const std::string dir = temp_dir("wal_rebase");
  const std::string path = log_path(dir);
  trace::SyntheticTrace tr = trace::SyntheticTrace::generate(
      trace::msn_profile(), 1, 42, /*downscale=*/50);
  const auto stream = tr.make_insert_stream(7, 5);

  WalWriter wal(path);
  log_inserts(wal, stream, /*block=*/2);
  wal.commit();
  const std::uint64_t gen = wal.generation();
  ASSERT_EQ(wal.committed_records(), 7u);

  wal.rebase(4);  // a checkpoint fenced the first four records
  EXPECT_EQ(wal.generation(), gen + 1);
  EXPECT_EQ(wal.committed_records(), 3u);

  const WalScan scan = scan_wal(path);
  EXPECT_EQ(scan.generation, gen + 1);
  ASSERT_EQ(scan.records.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(scan.records[i].file.name, stream[4 + i].name);

  // Appends keep working through the swapped handle.
  wal.append(remove_record(stream[0].name, 8));
  wal.commit();
  EXPECT_EQ(scan_wal(path).records.size(), 4u);
}

TEST(Wal, CommitBehindADeadHandleThrows) {
  // A commit killed mid-block leaves its records pending behind a dead
  // handle. A later commit — say, a second writer on the same shard whose
  // record joined that batch — must fail instead of reporting them
  // durable.
  const std::string dir = temp_dir("wal_dead");
  const std::string path = log_path(dir);
  trace::SyntheticTrace tr = trace::SyntheticTrace::generate(
      trace::msn_profile(), 1, 42, /*downscale=*/50);
  const auto stream = tr.make_insert_stream(2, 5);

  WalWriter wal(path);
  wal.append(insert_record(stream[0], 1));
  wal.append(insert_record(stream[1], 2));
  fault_arm(1);  // "wal:commit:torn-block": half the block reaches disk
  EXPECT_THROW(wal.commit(), FaultInjected);
  fault_disarm();
  EXPECT_THROW(wal.commit(), PersistError);

  const WalScan scan = scan_wal(path);
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.records.size(), 0u);
}

TEST(Wal, LegacyLogsAreReadOnly) {
  // v01/v02 logs still scan (Open replays a legacy wal.bin once), but the
  // writer refuses them: appending v03 records behind a legacy header
  // would make every reader truncate them as a torn tail.
  trace::SyntheticTrace tr = trace::SyntheticTrace::generate(
      trace::msn_profile(), 1, 42, /*downscale=*/50);
  const auto stream = tr.make_insert_stream(3, 5);
  std::vector<WalRecord> records;
  for (const auto& f : stream) records.push_back(insert_record(f));

  for (const bool v1 : {true, false}) {
    const std::string dir = temp_dir(v1 ? "wal_v1" : "wal_v2");
    const std::string path = wal_path(dir);
    write_legacy_wal(path, v1, /*generation=*/77, records, /*block=*/2);
    const auto before = util::read_file_bytes(path);

    const WalScan scan = scan_wal(path);
    EXPECT_EQ(scan.v1_magic, v1);
    EXPECT_FALSE(scan.v3_magic);
    EXPECT_FALSE(scan.torn_tail);
    EXPECT_EQ(scan.generation, 77u);
    ASSERT_EQ(scan.records.size(), 3u);
    EXPECT_EQ(scan.records[2].file.name, stream[2].name);

    EXPECT_THROW(WalWriter{path}, PersistError);
    EXPECT_EQ(util::read_file_bytes(path), before);  // untouched
  }
}

// ---- recover ----------------------------------------------------------------

TEST(Recovery, SnapshotPlusWalRestoresAllCommittedMutations) {
  // The pre-sharding layout: snapshot.bin plus a legacy v02 wal.bin of the
  // mutations since, replayed through the store's mutation API.
  const std::string dir = temp_dir("recover");
  trace::SyntheticTrace tr = trace::SyntheticTrace::generate(
      trace::hp_profile(), 1, 42, /*downscale=*/20);
  Config cfg;
  cfg.num_units = 10;
  cfg.fanout = 5;
  cfg.seed = 7;
  SmartStore store(cfg);
  store.build(tr.files());
  save_image(store, snapshot_path(dir));

  const auto stream = tr.make_insert_stream(9, 77);
  std::vector<WalRecord> records;
  for (const auto& f : stream) {
    store.insert_file(f, 0.0);
    records.push_back(insert_record(f));
  }
  const std::string victim = tr.files()[3].name;
  store.delete_file(victim, 0.0);
  records.push_back(remove_record(victim));
  write_legacy_wal(wal_path(dir), /*v1=*/false, 5, records,
                   cfg.version_ratio);

  const RecoveryResult rec = recover(dir);
  ASSERT_TRUE(rec.store);
  EXPECT_FALSE(rec.wal_tail_torn);
  EXPECT_EQ(rec.wal_records, 10u);
  EXPECT_TRUE(rec.store->check_invariants());
  EXPECT_EQ(rec.store->total_files(), store.total_files());

  // Exact membership: every unit-resident file name matches.
  auto names = [](const SmartStore& s) {
    std::set<std::string> out;
    for (const auto& u : s.units())
      for (const auto& f : u.files()) out.insert(f.name);
    return out;
  };
  EXPECT_EQ(names(*rec.store), names(store));
}

TEST(Recovery, TornWalRecoversToCommitBoundary) {
  // A legacy v02 wal.bin an old deployment left torn mid-commit: replay
  // stops at the last commit boundary.
  const std::string dir = temp_dir("recover_torn_legacy");
  trace::SyntheticTrace tr = trace::SyntheticTrace::generate(
      trace::hp_profile(), 1, 42, /*downscale=*/20);
  Config cfg;
  cfg.num_units = 10;
  cfg.seed = 7;
  SmartStore store(cfg);
  store.build(tr.files());
  save_image(store, snapshot_path(dir));
  const std::size_t base_files = store.total_files();

  const auto stream = tr.make_insert_stream(8, 77);
  std::vector<WalRecord> records;
  for (const auto& f : stream) records.push_back(insert_record(f));
  write_legacy_wal(wal_path(dir), /*v1=*/false, 5, records, /*block=*/4);
  // Tear into the second block: only the first group commit must survive.
  std::filesystem::resize_file(wal_path(dir),
                               std::filesystem::file_size(wal_path(dir)) - 9);

  const RecoveryResult rec = recover(dir);
  EXPECT_TRUE(rec.wal_tail_torn);
  EXPECT_EQ(rec.wal_blocks, 1u);
  EXPECT_EQ(rec.wal_records, 4u);
  EXPECT_EQ(rec.store->total_files(), base_files + 4);
  EXPECT_TRUE(rec.store->check_invariants());
  for (std::size_t i = 0; i < 4; ++i) {
    bool present = false;
    for (const auto& u : rec.store->units())
      if (u.find_by_name(stream[i].name)) present = true;
    EXPECT_TRUE(present) << stream[i].name;
  }
  for (std::size_t i = 4; i < 8; ++i) {
    for (const auto& u : rec.store->units())
      EXPECT_EQ(u.find_by_name(stream[i].name), nullptr);
  }
}

TEST(Recovery, TornShardLogRecoversToCommitBoundary) {
  const std::string dir = temp_dir("recover_torn");
  trace::SyntheticTrace tr = trace::SyntheticTrace::generate(
      trace::hp_profile(), 1, 42, /*downscale=*/20);
  Config cfg;
  cfg.num_units = 10;
  cfg.seed = 7;
  SmartStore store(cfg);
  store.build(tr.files());
  save_image(store, snapshot_path(dir));
  const std::size_t base_files = store.total_files();

  const auto stream = tr.make_insert_stream(8, 77);
  const std::string shard0 = ShardedWal::shard_path(dir, 0);
  std::filesystem::create_directories(ShardedWal::shard_dir(dir));
  {
    WalWriter wal(shard0);
    log_inserts(wal, stream, /*block=*/4, store.last_commit_seq() + 1);
  }
  // Tear into the second block: only the first commit must survive.
  std::filesystem::resize_file(shard0, std::filesystem::file_size(shard0) - 9);

  const RecoveryResult rec = recover(dir);
  EXPECT_TRUE(rec.wal_tail_torn);
  EXPECT_EQ(rec.wal_records, 4u);
  EXPECT_EQ(rec.store->total_files(), base_files + 4);
  EXPECT_TRUE(rec.store->check_invariants());
  for (std::size_t i = 0; i < 4; ++i) {
    bool present = false;
    for (const auto& u : rec.store->units())
      if (u.find_by_name(stream[i].name)) present = true;
    EXPECT_TRUE(present) << stream[i].name;
  }
  for (std::size_t i = 4; i < 8; ++i) {
    for (const auto& u : rec.store->units())
      EXPECT_EQ(u.find_by_name(stream[i].name), nullptr);
  }
}

}  // namespace
}  // namespace smartstore::persist
