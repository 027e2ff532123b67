// Crash-injection suite for the checkpoint protocol.
//
// Four attack angles on the same contract — recovery always lands on a
// consistent prefix of the acknowledged history, with no acknowledged
// write lost and nothing applied twice:
//
//   1. deterministic fault-point sweeps: fixed workloads (WAL-logged
//      inserts over per-unit shards, a fuzzy image with inserts between
//      its phases, delta cuts, folds) are killed at *every* snapshot
//      section boundary, atomic-publish stage, WAL block boundary, segment
//      append stage and rebase stage they pass, and recovery is verified
//      from each crash state;
//   2. a coverage oracle: the union of the points those sweeps fired must
//      be exactly the fault points src/persist/ declares, so every publish
//      stage stays swept;
//   3. a randomized oracle fuzz: insert/delete/reconfigure/cut/fold/
//      crash/recover against an in-memory name-set oracle, with on-line
//      point-query recall checked after every recovery;
//   4. per-section snapshot corruption: one flipped bit in each
//      CRC-protected section (and in each stored CRC) must fail the load
//      cleanly with PersistError — no crash, no partially loaded store.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "legacy_layout.h"
#include "persist/delta_checkpoint.h"
#include "persist/fault.h"
#include "persist/recovery.h"
#include "persist/segment.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "persist/wal_shard.h"
#include "trace/synth.h"
#include "util/binary_io.h"
#include "util/rng.h"

namespace smartstore::persist {
namespace {

using core::Config;
using core::Routing;
using core::SmartStore;
using metadata::AttrSubset;
using metadata::FileMetadata;

std::string temp_dir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("smartstore_crash_" + tag);
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

// ---- 1. deterministic fault-point sweeps ------------------------------------

/// One logged insert: the shard it landed on, and whether a commit call
/// covering it returned before the crash (the acknowledgement).
struct ShardedInsert {
  std::string name;
  std::size_t shard = 0;
  bool acked = false;
};

struct ScenarioResult {
  std::vector<ShardedInsert> inserts;  ///< every attempted insert
  std::size_t multi_record_blocks = 0;  ///< commits sealing > 1 record
  std::set<std::string> base;
  bool completed = false;
};

/// The acknowledgement oracle, mirroring db::Store's contract: insert()
/// appends under the unit lock, commit() commits every shard appended to
/// since the previous commit — and only once that call returns are the
/// records it covered acked. A crash inside either leaves them unacked, so
/// no durable frontier needs tracking across rebases.
struct DurableTracker {
  ScenarioResult& res;
  ShardedWal& wal;
  std::size_t unacked = 0;  ///< first res.inserts entry not yet acked

  void insert(SmartStore& store, const FileMetadata& f) {
    store.insert_file(f, 0.0, [&](core::UnitId target) {
      res.inserts.push_back({f.name, target, false});
      return wal.append_insert(target, f);
    });
  }

  void commit() {
    std::set<std::size_t> shards;
    for (std::size_t i = unacked; i < res.inserts.size(); ++i)
      shards.insert(res.inserts[i].shard);
    for (std::size_t s : shards) {
      if (wal.pending_records(s) > 1) ++res.multi_record_blocks;
      wal.commit(s);
    }
    for (; unacked < res.inserts.size(); ++unacked)
      res.inserts[unacked].acked = true;
  }
};

ScenarioResult start_scenario(SmartStore& store) {
  ScenarioResult res;
  store.build(trace::SyntheticTrace::generate(trace::msn_profile(), 1, 42,
                                              /*downscale=*/50)
                  .files());
  res.base = unit_names(store);
  return res;
}

Config scenario_config() {
  Config cfg;
  cfg.num_units = 6;
  cfg.seed = 7;
  return cfg;
}

std::vector<FileMetadata> scenario_stream(std::size_t n) {
  return trace::SyntheticTrace::generate(trace::msn_profile(), 1, 42,
                                         /*downscale=*/50)
      .make_insert_stream(n, 77);
}

/// A legacy-layout workload: WAL-hooked inserts over per-unit shards (committed
/// every few appends) on a snapshot.bin base, a fuzzy image driven through the
/// store's frozen section with inserts and commits between its phases
/// (per-shard frontier fence, concurrent-protocol rebase) — the image a
/// pre-manifest deployment left — then the engine's fold adopting that
/// directory, and a trailing batch. Single-threaded so the fault-point sequence
/// is deterministic — the multi-writer interleavings are test_concurrent's job;
/// every crash boundary is the same either way. The durable baseline is written
/// with faults disarmed (a crash before any checkpoint ever completed has
/// nothing to recover from, by design); `arm_at` then arms the injector for the
/// workload (0 = stay disarmed and reset the pass counter, for enumeration). An
/// injected fault abandons the WAL handles, freezing the on-disk bytes exactly
/// as the crash left them, and returns completed = false.
ScenarioResult run_sharded_crash_scenario(const std::string& dir,
                                          std::uint64_t arm_at) {
  fault_disarm();
  const Config cfg = scenario_config();
  SmartStore store(cfg);
  ScenarioResult res = start_scenario(store);
  const auto stream = scenario_stream(13);
  auto wal = std::make_unique<ShardedWal>(dir, cfg.num_units);
  fixtures::save_image(store, snapshot_path(dir), wal->frontier());
  DeltaEngine engine(store, *wal, dir);
  DurableTracker t{res, *wal};

  if (arm_at > 0) {
    fault_arm(arm_at);
  } else {
    fault_disarm();
  }
  try {
    for (int i = 0; i < 4; ++i) t.insert(store, stream[i]);
    t.commit();

    // Fuzzy image, phase by phase: frontier fence inside the frozen
    // section, mutations and commits in the gaps, per-shard rebase at the
    // end.
    WalFence fence;
    std::vector<std::size_t> fence_bytes;
    store.begin_checkpoint([&] { fence = wal->frontier(&fence_bytes); });
    t.insert(store, stream[4]);
    t.insert(store, stream[5]);
    t.commit();
    save_snapshot_frozen(store, snapshot_path(dir), fence);
    t.insert(store, stream[6]);
    wal->rebase_to(fence, fence_bytes);
    t.commit();
    store.end_checkpoint();

    t.insert(store, stream[7]);
    t.insert(store, stream[8]);
    engine.fold();  // adopts the directory: base-1 + manifest, prunes
    t.commit();
    for (int i = 9; i < 13; ++i) t.insert(store, stream[i]);
    t.commit();
    res.completed = true;
  } catch (const FaultInjected&) {
    wal->abandon();  // the process died: nothing may touch the files now
  }
  return res;
}

/// The delta-engine workload: WAL-hooked inserts over per-unit shards, two
/// delta cuts growing a chain on the baseline fold's base image, a
/// compaction fold over that chain, a third cut onto the fresh base, and a
/// trailing batch — so the sweep crosses every segment-append,
/// manifest-publish, cut-rebase, fold-rebase and prune boundary. The
/// disarmed baseline fold gives every crash state a manifest to recover
/// from.
ScenarioResult run_delta_crash_scenario(const std::string& dir,
                                        std::uint64_t arm_at) {
  fault_disarm();
  const Config cfg = scenario_config();
  SmartStore store(cfg);
  ScenarioResult res = start_scenario(store);
  const auto stream = scenario_stream(13);
  auto wal = std::make_unique<ShardedWal>(dir, cfg.num_units);
  DeltaEngine engine(store, *wal, dir);
  engine.fold();  // baseline: ckpt/base-1.bin + an empty-chain manifest
  DurableTracker t{res, *wal};

  if (arm_at > 0) {
    fault_arm(arm_at);
  } else {
    fault_disarm();
  }
  try {
    for (int i = 0; i < 4; ++i) t.insert(store, stream[i]);
    t.commit();
    t.insert(store, stream[4]);
    engine.cut();  // cut #1: segment appends + manifest + rebase
    t.commit();

    for (int i = 5; i < 8; ++i) t.insert(store, stream[i]);
    t.commit();
    engine.cut();  // cut #2: the chain grows

    t.insert(store, stream[8]);
    engine.fold();  // compaction: fresh base, empty chain, prune
    t.commit();

    for (int i = 9; i < 11; ++i) t.insert(store, stream[i]);
    engine.cut();  // cut #3: first cut onto the folded base
    t.commit();

    for (int i = 11; i < 13; ++i) t.insert(store, stream[i]);
    t.commit();
    res.completed = true;
  } catch (const FaultInjected&) {
    wal->abandon();  // the process died: nothing may touch the files now
  }
  return res;
}

using Scenario = ScenarioResult (*)(const std::string&, std::uint64_t);

/// Dry-runs `run` to enumerate its fault points, then crashes it at each
/// one and checks recovery: no acknowledged write lost, nothing applied
/// twice, nothing invented, survivors a prefix of each shard's log order.
/// Collects the name of every point that fired into `fired`.
void sweep(const std::string& tag, Scenario run, std::uint64_t min_points,
           std::set<std::string>* fired) {
  std::uint64_t total = 0;
  {
    const std::string dir = temp_dir(tag + "_dry");
    const ScenarioResult dry = run(dir, 0);
    ASSERT_TRUE(dry.completed);
    ASSERT_GT(dry.multi_record_blocks, 0u)
        << "the " << tag << " workload should seal several records into "
                            "one commit block";
    total = fault_points_passed();
    std::filesystem::remove_all(dir);
  }
  ASSERT_GT(total, min_points) << "the " << tag << " workload should cross "
                                  "many publish/commit/rebase boundaries";

  for (std::uint64_t k = 1; k <= total; ++k) {
    const std::string dir = temp_dir(tag + "_" + std::to_string(k));
    const ScenarioResult r = run(dir, k);
    const std::string where = fault_last_fired();
    fault_disarm();
    ASSERT_FALSE(r.completed) << "fault " << k << " never fired";
    fired->insert(where);

    RecoveryResult rec;
    ASSERT_NO_THROW(rec = recover(dir))
        << "recovery failed after crash at point " << k << " (" << where
        << ")";
    ASSERT_TRUE(rec.store) << where;
    EXPECT_TRUE(rec.store->check_invariants()) << where;
    const std::set<std::string> got = unit_names(*rec.store);

    // 1. No acknowledged write lost: every record whose commit call
    //    returned before the crash must survive base + delta chain + tail.
    for (const ShardedInsert& ins : r.inserts) {
      if (ins.acked) {
        EXPECT_TRUE(got.count(ins.name))
            << "lost acked write " << ins.name << " (shard " << ins.shard
            << ") at point " << k << " (" << where << ")";
      }
    }
    // 2. Nothing applied twice: a record replayed over an image that
    //    already contains it would duplicate it — total_files() counts
    //    records, unit_names() dedups, so equality proves single-apply.
    EXPECT_EQ(rec.store->total_files(), got.size())
        << "double-applied record at point " << k << " (" << where << ")";
    // 3. Nothing invented.
    std::set<std::string> attempted;
    for (const ShardedInsert& ins : r.inserts) attempted.insert(ins.name);
    for (const auto& name : got) {
      EXPECT_TRUE(r.base.count(name) || attempted.count(name))
          << "unexpected survivor " << name << " at point " << k << " ("
          << where << ")";
    }
    // 4. Per-shard prefix: survivors form a prefix of each shard's order
    //    (a torn tail only ever drops a suffix).
    std::map<std::size_t, std::vector<const ShardedInsert*>> by_shard;
    for (const ShardedInsert& ins : r.inserts)
      by_shard[ins.shard].push_back(&ins);
    for (const auto& [shard, list] : by_shard) {
      bool missing_seen = false;
      for (const ShardedInsert* ins : list) {
        const bool present = got.count(ins->name) > 0;
        if (!present) missing_seen = true;
        EXPECT_FALSE(present && missing_seen)
            << "non-prefix survivor " << ins->name << " in shard " << shard
            << " at point " << k << " (" << where << ")";
      }
    }
    std::filesystem::remove_all(dir);
  }
}

// Each sweep runs once per process; the coverage oracle reuses its result.
const std::set<std::string>& sharded_sweep() {
  static const std::set<std::string> fired = [] {
    std::set<std::string> f;
    sweep("shard", run_sharded_crash_scenario, 25, &f);
    return f;
  }();
  return fired;
}

const std::set<std::string>& delta_sweep() {
  static const std::set<std::string> fired = [] {
    std::set<std::string> f;
    sweep("delta", run_delta_crash_scenario, 40, &f);
    return f;
  }();
  return fired;
}

TEST(CrashInjection, ShardedRecoveryLosesNoAckedWriteAtAnyFaultPoint) {
  EXPECT_FALSE(sharded_sweep().empty());
}

TEST(CrashInjection, DeltaCheckpointLosesNoAckedWriteAtAnyFaultPoint) {
  EXPECT_FALSE(delta_sweep().empty());
}

// ---- 2. fault-point coverage oracle -----------------------------------------

TEST(CrashInjection, SweepsCrossEveryFaultPointInPersist) {
  // Every fault_point() and write_file_atomic_faulted() prefix left in
  // src/persist/, each publish prefix with its three stages. A point added
  // there must join a sweep and this list; a point no sweep reaches is a
  // publish stage whose crash window nothing checks.
  std::set<std::string> expected = {
      "snapshot:section:config",   "snapshot:section:standardizer",
      "snapshot:section:units",    "snapshot:section:tree",
      "snapshot:section:variants", "snapshot:section:sync",
      "snapshot:section:walfence", "delta:seg:pre-truncate",
      "delta:seg:pre-append",      "delta:seg:pre-sync",
      "delta:pre-rebase",          "compact:pre-rebase",
      "compact:pre-prune",         "wal:commit:torn-block",
      "wal:commit:pre-sync",       "wal:rebase:begin"};
  for (const char* prefix : {"snapshot:write", "ckpt:manifest", "wal:rebase"})
    for (const char* stage : {":torn-temp", ":pre-rename", ":pre-dirsync"})
      expected.insert(std::string(prefix) + stage);

  std::set<std::string> fired = sharded_sweep();
  fired.insert(delta_sweep().begin(), delta_sweep().end());
  EXPECT_EQ(fired, expected);
}

// ---- 3. randomized oracle fuzz ----------------------------------------------

TEST(CrashOracle, RandomizedMutationsCrashesAndRecoveriesMatchOracle) {
  fault_disarm();
  const std::string dir = temp_dir("oracle");
  const auto tr = trace::SyntheticTrace::generate(trace::msn_profile(), 1, 42,
                                                  /*downscale=*/50);
  Config cfg;
  cfg.num_units = 8;
  cfg.seed = 7;
  auto store = std::make_unique<SmartStore>(cfg);
  store->build(tr.files());

  std::set<std::string> oracle = unit_names(*store);
  std::vector<std::string> live_names(oracle.begin(), oracle.end());

  std::unique_ptr<ShardedWal> wal;
  std::unique_ptr<DeltaEngine> engine;
  // (Re)attaches the log and the engine the way Store::Open does.
  auto attach = [&] {
    wal = std::make_unique<ShardedWal>(dir, store->units().size());
    wal->ensure_seq_at_least(store->last_commit_seq() + 1);
    engine = std::make_unique<DeltaEngine>(*store, *wal, dir);
  };
  attach();
  engine->fold();

  const auto pool = tr.make_insert_stream(400, 123);
  std::size_t cursor = 0;
  util::Rng rng(2024);
  std::size_t crashes = 0, cuts = 0, folds = 0;

  auto verify_against_oracle = [&](const SmartStore& s) {
    ASSERT_EQ(unit_names(s), oracle);
    ASSERT_TRUE(s.check_invariants());
    ASSERT_EQ(s.total_files(), oracle.size());
  };

  for (int step = 0; step < 240; ++step) {
    const double r = rng.uniform();
    if (r < 0.55 && cursor < pool.size()) {
      const FileMetadata& f = pool[cursor++];
      core::UnitId target = 0;
      store->insert_file(f, 0.0, [&](core::UnitId u) {
        target = u;
        return wal->append_insert(u, f);
      });
      wal->commit(target);
      oracle.insert(f.name);
      live_names.push_back(f.name);
    } else if (r < 0.72 && !live_names.empty()) {
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform_u64(live_names.size()));
      const std::string name = live_names[pick];
      live_names.erase(live_names.begin() +
                       static_cast<std::ptrdiff_t>(pick));
      if (oracle.count(name)) {
        core::UnitId located = 0;
        ASSERT_TRUE(store->erase_file(name, [&](core::UnitId u) {
          located = u;
          return wal->append_remove(u, name);
        })) << name;
        wal->commit(located);
        oracle.erase(name);
      }
    } else if (r < 0.77) {
      store->add_storage_unit([&] { return wal->log_add_unit(); });
    } else if (r < 0.80) {
      // Remove a random active unit, keeping a quorum alive.
      std::vector<core::UnitId> active;
      for (core::UnitId u = 0; u < store->units().size(); ++u)
        if (store->unit_active(u)) active.push_back(u);
      if (active.size() > 5) {
        const core::UnitId u = active[static_cast<std::size_t>(
            rng.uniform_u64(active.size()))];
        store->remove_storage_unit(u, [&] { return wal->log_remove_unit(u); });
      }
    } else if (r < 0.84) {
      const std::vector<AttrSubset> cands = {
          AttrSubset::from_mask(0x7u), AttrSubset::from_mask(0x1Fu)};
      store->autoconfigure(cands,
                           [&] { return wal->log_autoconfigure(cands); });
    } else if (r < 0.92) {
      // Every third checkpoint folds the chain; the rest cut deltas.
      if ((cuts + folds) % 3 == 2) {
        engine->fold();
        ++folds;
      } else {
        engine->cut();
        ++cuts;
      }
    } else {
      // Simulated crash at a commit boundary, then recovery.
      wal->commit_all();
      engine.reset();
      wal.reset();
      store.reset();
      RecoveryResult rec = recover(dir);
      store = std::move(rec.store);
      attach();
      ++crashes;
      verify_against_oracle(*store);

      // On-line point routing is exact: every oracle member must resolve.
      std::size_t probes = 0;
      for (const auto& name : oracle) {
        if (++probes > 15) break;
        const auto res = store->point_query({name}, Routing::kOnline, 0.0);
        EXPECT_TRUE(res.found) << name << " lost after crash " << crashes;
      }
    }
  }

  // Final crash + recovery + full comparison.
  wal->commit_all();
  engine.reset();
  wal.reset();
  store.reset();
  RecoveryResult rec = recover(dir);
  ASSERT_TRUE(rec.store);
  verify_against_oracle(*rec.store);
  EXPECT_GE(crashes, 1u);
  EXPECT_GE(cuts, 1u);
  EXPECT_GE(folds, 1u);
  std::filesystem::remove_all(dir);
}

// ---- 4. per-section snapshot corruption -------------------------------------

struct SectionSpan {
  std::uint32_t id = 0;
  std::size_t payload_off = 0;
  std::size_t payload_len = 0;
  std::size_t crc_off = 0;
};

std::vector<SectionSpan> parse_sections(const std::vector<std::uint8_t>& b) {
  util::BinaryReader r(b);
  r.skip(sizeof(kSnapshotMagic));
  r.read_u32();  // format version
  const std::uint32_t nsections = r.read_u32();
  std::vector<SectionSpan> out;
  for (std::uint32_t i = 0; i < nsections; ++i) {
    SectionSpan s;
    s.id = r.read_u32();
    s.payload_len = static_cast<std::size_t>(r.read_u64());
    s.payload_off = r.position();
    r.skip(s.payload_len);
    s.crc_off = r.position();
    r.read_u32();
    out.push_back(s);
  }
  return out;
}

TEST(SnapshotCorruption, OneFlippedBitInAnySectionFailsLoadCleanly) {
  fault_disarm();
  const std::string dir = temp_dir("corrupt_sections");
  const auto tr = trace::SyntheticTrace::generate(trace::hp_profile(), 1, 42,
                                                  /*downscale=*/20);
  Config cfg;
  cfg.num_units = 8;
  cfg.seed = 7;
  SmartStore store(cfg);
  store.build(tr.files());
  // Variants + a fence so the VARIANTS and WALFENCE sections are
  // non-trivial too.
  store.autoconfigure({AttrSubset::from_mask(0x7u)});
  const std::string path = snapshot_path(dir);
  fixtures::save_image(store, path, WalFence{99, 3, true, {}});

  const auto pristine = util::read_file_bytes(path);
  ASSERT_NO_THROW(load_snapshot(path));
  const auto sections = parse_sections(pristine);
  ASSERT_EQ(sections.size(), 7u);  // 6 mandatory + WALFENCE

  for (const SectionSpan& s : sections) {
    // A flipped payload bit must trip the section checksum.
    if (s.payload_len > 0) {
      auto bytes = pristine;
      bytes[s.payload_off + s.payload_len / 2] ^= 0x10;
      util::write_file_atomic(path, bytes);
      EXPECT_THROW(load_snapshot(path), PersistError)
          << "payload flip in section " << s.id;
    }
    // A flipped bit in the stored CRC itself must fail identically.
    auto bytes = pristine;
    bytes[s.crc_off] ^= 0x01;
    util::write_file_atomic(path, bytes);
    EXPECT_THROW(load_snapshot(path), PersistError)
        << "crc flip in section " << s.id;
  }

  // The pristine bytes still load: corruption detection has no side
  // effects on the on-disk image.
  util::write_file_atomic(path, pristine);
  EXPECT_NO_THROW(load_snapshot(path));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace smartstore::persist
