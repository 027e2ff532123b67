// Multi-writer serving: the striped mutation path under real threads.
//
// The contract under test (the PR's tentpole): any number of writer
// threads may insert/erase concurrently — routing under the shared
// structure lock, the mutation under the target unit's stripe — while
// background checkpoints freeze, serialize and rebase the sharded WAL
// underneath, and queries keep running throughout. Assertions run against
// a map oracle after the threads join (every insert landed exactly once,
// invariants hold, recovery reproduces the live state, every call the
// db::Store facade acknowledged survives a crash); the data-race half of
// the contract is what the ThreadSanitizer build of this suite checks
// (CMakePresets' tsan preset includes it).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/ground_truth.h"
#include "persist/bg_checkpoint.h"
#include "persist/delta_checkpoint.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "persist/wal_shard.h"
#include "smartstore/smartstore.h"
#include "trace/query_gen.h"
#include "trace/synth.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace smartstore::persist {
namespace {

using core::Config;
using core::Routing;
using core::SmartStore;
using metadata::FileMetadata;

std::string temp_dir(const char* tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("smartstore_conc_") + tag);
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

struct Deployment {
  trace::SyntheticTrace trace;
  SmartStore store;
  explicit Deployment(std::size_t units, unsigned downscale)
      : trace(trace::SyntheticTrace::generate(trace::msn_profile(), 1, 42,
                                              downscale)),
        store([&] {
          Config cfg;
          cfg.num_units = units;
          cfg.seed = 7;
          return cfg;
        }()) {
    store.build(trace.files());
  }
};

/// The write-ahead discipline db::Store wires: the append fires under the
/// routed unit's lock, the commit after the core call returned.
void logged_insert(SmartStore& store, ShardedWal& wal,
                   const FileMetadata& f) {
  core::UnitId target = 0;
  store.insert_file(f, 0.0, [&](core::UnitId u) {
    target = u;
    return wal.append_insert(u, f);
  });
  wal.commit(target);
}

bool logged_erase(SmartStore& store, ShardedWal& wal,
                  const std::string& name) {
  core::UnitId located = 0;
  const bool existed = store.erase_file(name, [&](core::UnitId u) {
    located = u;
    return wal.append_remove(u, name);
  });
  if (existed) wal.commit(located);
  return existed;
}

/// Splits [0, n) into `parts` contiguous ranges.
std::vector<std::pair<std::size_t, std::size_t>> split(std::size_t n,
                                                       std::size_t parts) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  const std::size_t chunk = (n + parts - 1) / parts;
  for (std::size_t b = 0; b < n; b += chunk)
    out.emplace_back(b, std::min(b + chunk, n));
  return out;
}

TEST(MultiWriter, ConcurrentInsertsAllLandExactlyOnce) {
  Deployment d(8, /*downscale=*/20);
  SmartStore& store = d.store;
  const std::set<std::string> base = unit_names(store);
  const std::size_t base_count = store.total_files();

  const auto stream = d.trace.make_insert_stream(600, 77);
  const auto ranges = split(stream.size(), 4);
  std::vector<std::thread> writers;
  for (const auto& [b, e] : ranges) {
    writers.emplace_back([&, b = b, e = e] {
      const std::vector<FileMetadata> chunk(
          stream.begin() + static_cast<std::ptrdiff_t>(b),
          stream.begin() + static_cast<std::ptrdiff_t>(e));
      store.insert_batch(chunk, 0.0);
    });
  }
  for (auto& t : writers) t.join();

  // Oracle: base ∪ stream, every insert exactly once.
  EXPECT_EQ(store.total_files(), base_count + stream.size());
  EXPECT_TRUE(store.check_invariants());
  std::set<std::string> expect = base;
  for (const auto& f : stream) expect.insert(f.name);
  EXPECT_EQ(unit_names(store), expect);

  // On-line point routing is exact: every inserted file must resolve.
  std::size_t probes = 0;
  for (const auto& f : stream) {
    if (++probes > 40) break;
    EXPECT_TRUE(store.point_query({f.name}, Routing::kOnline, 0.0).found)
        << f.name;
  }
}

TEST(MultiWriter, ConcurrentInsertAndEraseMatchOracle) {
  Deployment d(8, /*downscale=*/20);
  SmartStore& store = d.store;
  const std::set<std::string> base = unit_names(store);

  // Each thread inserts its own slice and erases every third of its own
  // files — disjoint names, so the per-thread oracles compose.
  const auto stream = d.trace.make_insert_stream(480, 99);
  const auto ranges = split(stream.size(), 4);
  std::vector<std::thread> writers;
  for (const auto& [b, e] : ranges) {
    writers.emplace_back([&, b = b, e = e] {
      for (std::size_t i = b; i < e; ++i) {
        store.insert_file(stream[i], 0.0);
        if ((i - b) % 3 == 2) {
          EXPECT_TRUE(store.erase_file(stream[i].name)) << stream[i].name;
        }
      }
    });
  }
  for (auto& t : writers) t.join();

  std::set<std::string> expect = base;
  for (const auto& [b, e] : ranges)
    for (std::size_t i = b; i < e; ++i)
      if ((i - b) % 3 != 2) expect.insert(stream[i].name);
  EXPECT_TRUE(store.check_invariants());
  EXPECT_EQ(unit_names(store), expect);
  EXPECT_EQ(store.total_files(), expect.size());
}

TEST(MultiWriter, QueriesRunConcurrentlyWithWriters) {
  Deployment d(8, /*downscale=*/20);
  SmartStore& store = d.store;
  const auto stream = d.trace.make_insert_stream(400, 55);
  const auto dims = metadata::AttrSubset::all();

  std::atomic<bool> done{false};
  std::atomic<std::size_t> found{0};
  // Two reader threads hammer all three query kinds in both routing modes
  // while two writers insert; TSan is the judge, the counters just keep
  // the work from being optimized away.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      std::size_t i = 0;
      while (!done.load(std::memory_order_acquire)) {
        const auto& f = stream[(i * 13 + static_cast<std::size_t>(r)) %
                               stream.size()];
        const Routing routing = i % 2 == 0 ? Routing::kOnline
                                           : Routing::kOffline;
        if (store.point_query({f.name}, routing, 0.0).found)
          found.fetch_add(1, std::memory_order_relaxed);
        metadata::RangeQuery rq;
        rq.dims = dims;
        for (std::size_t a = 0; a < metadata::kNumAttrs; ++a) {
          rq.lo.push_back(f.attr(static_cast<metadata::Attr>(a)) * 0.9 - 1);
          rq.hi.push_back(f.attr(static_cast<metadata::Attr>(a)) * 1.1 + 1);
        }
        found.fetch_add(store.range_query(rq, routing, 0.0).ids.size(),
                        std::memory_order_relaxed);
        metadata::TopKQuery tq;
        tq.dims = dims;
        tq.k = 4;
        for (std::size_t a = 0; a < metadata::kNumAttrs; ++a)
          tq.point.push_back(f.attr(static_cast<metadata::Attr>(a)));
        found.fetch_add(store.topk_query(tq, routing, 0.0).hits.size(),
                        std::memory_order_relaxed);
        ++i;
      }
    });
  }
  const auto ranges = split(stream.size(), 2);
  std::vector<std::thread> writers;
  for (const auto& [b, e] : ranges) {
    writers.emplace_back([&, b = b, e = e] {
      for (std::size_t i = b; i < e; ++i) store.insert_file(stream[i], 0.0);
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_TRUE(store.check_invariants());
  EXPECT_GT(found.load(), 0u);
  // Every inserted file is visible to exact on-line routing afterwards.
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_TRUE(
        store.point_query({stream[i].name}, Routing::kOnline, 0.0).found);
  }
}

/// One acknowledged mutation and the commit seq the store stamped on it.
struct Acked {
  std::uint64_t seq = 0;
  bool insert = false;
  FileMetadata file;
};

/// One pinned read: the seq it pinned, its queries and their answers.
struct PinnedSample {
  std::uint64_t seq = 0;
  metadata::RangeQuery range;
  std::vector<metadata::FileId> range_ids;
  metadata::TopKQuery topk;
  std::vector<std::pair<double, metadata::FileId>> hits;
};

TEST(MultiWriter, PinnedScansMatchBruteForceAtTheirSeq) {
  // Writers insert and erase while readers pin a seq, run a range and a
  // top-k scan at it, and release. Afterwards every answer must equal
  // core::brute_force_range / brute_force_topk over the records visible at
  // its seq, rebuilt from the writers' acked log. The stamps come from one
  // counter through the write-ahead hook, as the sharded WAL issues them,
  // so each acked mutation knows its seq.
  Deployment d(8, /*downscale=*/10);
  SmartStore& store = d.store;
  const std::vector<FileMetadata>& base = d.trace.files();
  const auto fresh = d.trace.make_insert_stream(600, 77);
  {
    std::set<std::string> names;
    std::set<metadata::FileId> ids;
    for (const auto* pop : {&base, &fresh}) {
      for (const FileMetadata& f : *pop) {
        ASSERT_TRUE(names.insert(f.name).second) << f.name;
        ASSERT_TRUE(ids.insert(f.id).second) << f.id;
      }
    }
  }
  constexpr std::size_t kWriters = 3;
  constexpr std::size_t kReaders = 2;
  constexpr std::size_t kMaxSamples = 150;  // per reader

  const metadata::AttrSubset dims({metadata::Attr::kModificationTime,
                                   metadata::Attr::kReadBytes,
                                   metadata::Attr::kWriteBytes});
  std::atomic<bool> done{false};
  std::atomic<std::size_t> readers_started{0};
  std::vector<std::vector<PinnedSample>> samples(kReaders);
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      trace::QueryGenerator gen(d.trace, trace::QueryDistribution::kZipf,
                                200 + r);
      do {
        PinnedSample s;
        auto pin = store.pin_snapshot(&s.seq);
        s.range = gen.gen_range(dims, 0.1);
        s.range_ids = store.snapshot_range_query(s.range, s.seq).ids;
        s.topk = gen.gen_topk(
            samples[r].size() % 2 ? dims : metadata::AttrSubset::all(), 8);
        s.hits = store.snapshot_topk_query(s.topk, s.seq).hits;
        pin.reset();
        samples[r].push_back(std::move(s));
        if (samples[r].size() == 1) readers_started.fetch_add(1);
      } while (!done.load(std::memory_order_acquire) &&
               samples[r].size() < kMaxSamples);
    });
  }
  std::atomic<std::uint64_t> next_seq{store.last_commit_seq()};
  std::vector<std::vector<Acked>> logs(kWriters);
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      // Writes start once every reader holds a first answer, so pins
      // land before, among and after them.
      while (readers_started.load() < kReaders) std::this_thread::yield();
      util::Rng rng(100 + w);
      // Writer w owns every kWriters-th base and fresh file: no name is
      // touched by two writers, so each key's ops are ordered by one thread.
      std::vector<FileMetadata> live;
      for (std::size_t i = w; i < base.size(); i += kWriters)
        live.push_back(base[i]);
      std::size_t next_fresh = w;
      for (int op = 0; op < 300; ++op) {
        std::uint64_t seq = 0;
        auto stamp = [&](core::UnitId) {
          seq = next_seq.fetch_add(1, std::memory_order_relaxed) + 1;
          return seq;
        };
        if (rng.uniform_u64(2) == 0 && next_fresh < fresh.size()) {
          const FileMetadata& f = fresh[next_fresh];
          next_fresh += kWriters;
          store.insert_file(f, 0.0, stamp);
          logs[w].push_back({seq, true, f});
          live.push_back(f);
        } else if (!live.empty()) {
          const std::size_t pick =
              static_cast<std::size_t>(rng.uniform_u64(live.size()));
          const FileMetadata f = live[pick];
          EXPECT_TRUE(store.erase_file(f.name, stamp)) << f.name;
          logs[w].push_back({seq, false, f});
          live[pick] = live.back();
          live.pop_back();
        }
      }
    });
  }

  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_TRUE(store.check_invariants());

  // Replay the acked log in seq order up to each sample's seq.
  std::vector<Acked> log;
  for (const auto& mine : logs) log.insert(log.end(), mine.begin(), mine.end());
  std::sort(log.begin(), log.end(),
            [](const Acked& a, const Acked& b) { return a.seq < b.seq; });
  for (std::size_t i = 0; i < log.size(); ++i)
    ASSERT_EQ(log[i].seq, i + 1) << "every stamp belongs to one acked op";
  std::vector<const PinnedSample*> order;
  for (const auto& mine : samples)
    for (const PinnedSample& s : mine) order.push_back(&s);
  std::sort(order.begin(), order.end(),
            [](const PinnedSample* a, const PinnedSample* b) {
              return a->seq < b->seq;
            });
  ASSERT_GT(order.size(), 0u);

  std::map<std::string, FileMetadata> visible;
  for (const FileMetadata& f : base) visible.emplace(f.name, f);
  std::size_t applied = 0;
  std::size_t nonempty = 0;
  for (const PinnedSample* s : order) {
    for (; applied < log.size() && log[applied].seq <= s->seq; ++applied) {
      const Acked& a = log[applied];
      if (a.insert) {
        visible.emplace(a.file.name, a.file);
      } else {
        visible.erase(a.file.name);
      }
    }
    std::vector<FileMetadata> pop;
    pop.reserve(visible.size());
    for (const auto& [name, f] : visible) pop.push_back(f);
    auto want_ids = core::brute_force_range(pop, s->range);
    std::sort(want_ids.begin(), want_ids.end());
    EXPECT_EQ(s->range_ids, want_ids) << "range at seq " << s->seq;
    EXPECT_EQ(s->hits, core::brute_force_topk(pop, store.standardizer(),
                                               s->topk))
        << "top-k at seq " << s->seq;
    if (!want_ids.empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, 0u) << "no range sample had a hit to check";
}

TEST(MultiWriter, ReloadedTombstonesOutsideTheUnitBoxStayVisible) {
  // A unit rebuilt from a checkpoint boxes its live records only, so a
  // tombstone restored beside them can lie outside the box. A pinned range
  // scan at the tombstone's old seq must still return it: scans may skip a
  // unit's live records by the box, never its tombstones.
  const std::string dir = temp_dir("tomb_box");
  Deployment d(8, /*downscale=*/10);
  SmartStore& store = d.store;
  constexpr metadata::Attr kDim = metadata::Attr::kFileSize;
  constexpr std::size_t kD = static_cast<std::size_t>(kDim);

  // The victim: unit 0's strictly largest file, so the box rebuilt without
  // it ends below the victim on kDim.
  const std::vector<FileMetadata>& unit0 = store.units()[0].files();
  ASSERT_GE(unit0.size(), 2u);
  std::size_t top = 0;
  for (std::size_t i = 1; i < unit0.size(); ++i)
    if (unit0[i].attr(kDim) > unit0[top].attr(kDim)) top = i;
  const FileMetadata victim = unit0[top];
  for (std::size_t i = 0; i < unit0.size(); ++i)
    if (i != top) ASSERT_LT(unit0[i].attr(kDim), victim.attr(kDim));

  std::uint64_t seq = 0;
  auto pin = store.pin_snapshot(&seq);
  ASSERT_TRUE(store.erase_file(victim.name));
  const std::string path = dir + "/snapshot.bin";
  store.begin_checkpoint();
  save_snapshot_frozen(store, path, WalFence{});
  store.end_checkpoint();
  pin.reset();
  const auto loaded = load_snapshot(path);

  // The case this test is for: the victim is a tombstone of unit 0 and
  // lies outside unit 0's rebuilt box.
  ASSERT_EQ(loaded->units()[0].tombstones().size(), 1u);
  ASSERT_EQ(loaded->units()[0].tombstones()[0].file.id, victim.id);
  ASSERT_LT(loaded->units()[0].box().hi()[kD],
            loaded->std_coords(victim)[kD]);

  metadata::RangeQuery q;
  q.dims = metadata::AttrSubset({kDim});
  q.lo = {victim.attr(kDim)};
  q.hi = {victim.attr(kDim)};
  auto want = core::brute_force_range(d.trace.files(), q);
  std::sort(want.begin(), want.end());
  ASSERT_NE(std::find(want.begin(), want.end(), victim.id), want.end());
  EXPECT_EQ(loaded->snapshot_range_query(q, seq).ids, want);
  const auto now =
      loaded->snapshot_range_query(q, loaded->last_commit_seq()).ids;
  EXPECT_EQ(std::count(now.begin(), now.end(), victim.id), 0);
  std::filesystem::remove_all(dir);
}

TEST(MultiWriter, ShardedWalBackgroundCheckpointsRecoverEverything) {
  const std::string dir = temp_dir("bg");
  Deployment d(8, /*downscale=*/20);
  SmartStore& store = d.store;

  ShardedWal wal(dir, store.units().size());
  DeltaEngine engine(store, wal, dir);
  engine.fold();

  util::ThreadPool pool(2);
  // A budget of one chained cut: the background slot alternates cuts and
  // folds, so both run against the writers.
  BackgroundCheckpointer bg(engine, pool, /*max_chain_len=*/1,
                            /*max_chain_bytes=*/0);

  const auto stream = d.trace.make_insert_stream(600, 31);
  const auto ranges = split(stream.size(), 4);
  std::atomic<std::size_t> done_writers{0};
  std::vector<std::thread> writers;
  for (const auto& [b, e] : ranges) {
    writers.emplace_back([&, b = b, e = e] {
      for (std::size_t i = b; i < e; ++i) {
        logged_insert(store, wal, stream[i]);
        // A third of each thread's files are erased again, through the
        // same sharded write-ahead discipline.
        if ((i - b) % 3 == 2) {
          EXPECT_TRUE(logged_erase(store, wal, stream[i].name));
        }
      }
      done_writers.fetch_add(1, std::memory_order_release);
    });
  }

  // Checkpoint continuously while the writers stream.
  std::size_t checkpoints = 0;
  while (done_writers.load(std::memory_order_acquire) < writers.size()) {
    if (bg.trigger()) {
      bg.wait();
      ++checkpoints;
    } else {
      std::this_thread::yield();
    }
  }
  for (auto& t : writers) t.join();
  while (checkpoints < 2) {
    ASSERT_TRUE(bg.trigger());
    bg.wait();
    ++checkpoints;
  }
  EXPECT_GE(checkpoints, 2u);

  // Every call committed its own records, so recovery must reproduce the
  // live store exactly: base + delta chain + merged shard tails.
  const RecoveryResult rec = recover(dir);
  ASSERT_TRUE(rec.store);
  EXPECT_TRUE(rec.store->check_invariants());
  EXPECT_GT(rec.wal_shards, 0u);
  EXPECT_EQ(rec.store->total_files(), store.total_files());
  EXPECT_EQ(unit_names(*rec.store), unit_names(store));
  std::filesystem::remove_all(dir);
}

TEST(MultiWriter, StructuralOpsBarrierAgainstConcurrentWriters) {
  const std::string dir = temp_dir("structural");
  Deployment d(6, /*downscale=*/30);
  SmartStore& store = d.store;

  ShardedWal wal(dir, store.units().size());
  DeltaEngine engine(store, wal, dir);
  engine.fold();

  const auto stream = d.trace.make_insert_stream(300, 13);
  const auto ranges = split(stream.size(), 3);
  std::vector<std::thread> writers;
  for (const auto& [b, e] : ranges) {
    writers.emplace_back([&, b = b, e = e] {
      for (std::size_t i = b; i < e; ++i) logged_insert(store, wal, stream[i]);
    });
  }
  // Topology changes race the writers: the structural barrier (commit all
  // shards, then log + commit the structural record) keeps the merged
  // replay order exact.
  const core::UnitId added =
      store.add_storage_unit([&] { return wal.log_add_unit(); });
  const std::vector<metadata::AttrSubset> cands = {
      metadata::AttrSubset::from_mask(0x7u)};
  store.autoconfigure(cands, [&] { return wal.log_autoconfigure(cands); });
  for (auto& t : writers) t.join();
  EXPECT_GE(added, 6u);

  wal.commit_all();
  const RecoveryResult rec = recover(dir);
  ASSERT_TRUE(rec.store);
  EXPECT_TRUE(rec.store->check_invariants());
  EXPECT_EQ(rec.store->units().size(), store.units().size());
  EXPECT_EQ(rec.store->variants().size(), store.variants().size());
  EXPECT_EQ(rec.store->total_files(), store.total_files());
  EXPECT_EQ(unit_names(*rec.store), unit_names(store));
  std::filesystem::remove_all(dir);
}

// ---- the facade's durability contract --------------------------------------

/// Every call that returns OK is durable: eight writers run mixed Put /
/// Delete / small Write batches against a WAL-logged db::Store with no
/// Flush, the store is abandoned (the process dies), and the reopened
/// directory must reflect every acknowledged call exactly.
TEST(MultiWriter, EveryAckedMutationSurvivesAbandon) {
  const std::string dir = temp_dir("acked");
  const auto tr = trace::SyntheticTrace::generate(trace::msn_profile(), 1, 42,
                                                  /*downscale=*/50);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 48;
  const auto stream = tr.make_insert_stream(kThreads * kPerThread, 91);
  db::Options o;
  o.num_units = 6;
  o.seed = 11;
  auto opened = db::Store::Open(o, dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<db::Store> store = std::move(opened).value();

  // Per-thread oracle over disjoint names: expected presence after the
  // last acknowledged call that touched each name.
  std::vector<std::map<std::string, bool>> expect(kThreads);
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      std::map<std::string, bool>& mine = expect[t];
      const std::size_t base = t * kPerThread;
      for (std::size_t i = base; i + 2 < base + kPerThread; i += 3) {
        const FileMetadata& a = stream[i];
        const FileMetadata& b = stream[i + 1];
        const FileMetadata& c = stream[i + 2];
        db::Status s = store->Put(a);
        EXPECT_TRUE(s.ok()) << s.ToString();
        if (s.ok()) mine[a.name] = true;

        db::WriteBatch batch;
        batch.Put(b);
        batch.Put(c);
        batch.Delete(a.name);
        s = store->Write(std::move(batch));
        EXPECT_TRUE(s.ok()) << s.ToString();
        if (s.ok()) {
          mine[b.name] = true;
          mine[c.name] = true;
          mine[a.name] = false;
        }

        if ((i - base) % 2 == 0) {
          s = store->Delete(b.name);
          EXPECT_TRUE(s.ok()) << s.ToString();
          if (s.ok()) mine[b.name] = false;
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  store->Abandon();  // no Flush, no Close: pending batches are dropped
  store.reset();

  auto reopened = db::Store::Open(o, dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::uint64_t seq = 0;
  auto dump = (*reopened)->DumpSnapshot(&seq);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  std::set<std::string> got;
  for (const FileMetadata& f : *dump) got.insert(f.name);
  std::set<std::string> want;
  for (const auto& mine : expect)
    for (const auto& [name, present] : mine)
      if (present) want.insert(name);
  ASSERT_FALSE(want.empty());
  std::vector<std::string> lost, resurrected;
  std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                      std::back_inserter(lost));
  std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                      std::back_inserter(resurrected));
  EXPECT_TRUE(lost.empty()) << lost.size() << " acked puts lost, e.g. "
                            << lost.front();
  EXPECT_TRUE(resurrected.empty())
      << resurrected.size() << " acked deletes undone, e.g. "
      << resurrected.front();
  ASSERT_TRUE((*reopened)->Close().ok());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace smartstore::persist
