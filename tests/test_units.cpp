// Tests for storage units, group replicas and version deltas.
#include "core/units.h"

#include <gtest/gtest.h>

#include <optional>
#include <unordered_map>

#include "core/ground_truth.h"
#include "metadata/schema.h"
#include "util/rng.h"

namespace smartstore::core {
namespace {

using metadata::Attr;
using metadata::FileMetadata;
using metadata::kNumAttrs;

FileMetadata make_file(metadata::FileId id, double size, double ctime) {
  FileMetadata f;
  f.id = id;
  f.name = "/t/f" + std::to_string(id);
  f.set_attr(Attr::kFileSize, size);
  f.set_attr(Attr::kCreationTime, ctime);
  return f;
}

la::Vector coords(const FileMetadata& f) {
  return f.full_vector();  // identity "standardization" for unit tests
}

TEST(StorageUnit, AddAndFind) {
  StorageUnit u(3, 1024, 7);
  EXPECT_EQ(u.id(), 3u);
  EXPECT_TRUE(u.empty());
  const auto f = make_file(1, 100, 5);
  u.add_file(f, coords(f), bloom::hash_item(f.name));
  EXPECT_EQ(u.file_count(), 1u);
  ASSERT_NE(u.find_by_name(f.name), nullptr);
  EXPECT_EQ(u.find_by_name(f.name)->id, 1u);
  ASSERT_NE(u.find_by_id(1), nullptr);
  EXPECT_EQ(u.find_by_id(1)->name, f.name);
  EXPECT_EQ(u.find_by_name("/missing"), nullptr);
}

TEST(StorageUnit, BloomTracksMembership) {
  StorageUnit u(0, 1024, 7);
  const auto f = make_file(7, 10, 1);
  u.add_file(f, coords(f), bloom::hash_item(f.name));
  EXPECT_TRUE(u.name_filter().may_contain(f.name));
  u.remove_file(7, bloom::hash_item(f.name));
  EXPECT_FALSE(u.name_filter().may_contain(f.name));
}

TEST(StorageUnit, RemoveSwapsIndexesCorrectly) {
  StorageUnit u(0, 1024, 7);
  for (int i = 1; i <= 5; ++i) {
    const auto f = make_file(i, 10.0 * i, i);
    u.add_file(f, coords(f), bloom::hash_item(f.name));
  }
  auto removed = u.remove_file(2, bloom::hash_item("/t/f2"));
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->id, 2u);
  EXPECT_EQ(u.file_count(), 4u);
  // Every remaining file must still be findable by name and id.
  for (int i : {1, 3, 4, 5}) {
    ASSERT_NE(u.find_by_id(i), nullptr) << i;
    EXPECT_EQ(u.find_by_id(i)->id, static_cast<metadata::FileId>(i));
    EXPECT_NE(u.find_by_name("/t/f" + std::to_string(i)), nullptr);
  }
  EXPECT_FALSE(u.remove_file(2, bloom::hash_item("/t/f2")).has_value());
}

TEST(StorageUnit, BoxCoversAllCoords) {
  // Records keep raw attrs only: each record's z-scores are derived the way
  // the store's scans derive them, from a standardizer fitted over the
  // population, and the unit box must cover every one.
  std::vector<FileMetadata> files;
  for (int i = 1; i <= 10; ++i)
    files.push_back(make_file(i, 10.0 * i, 100.0 - i));
  const la::RowStandardizer st = fit_standardizer(files);
  StorageUnit u(0, 1024, 7);
  for (const auto& f : files)
    u.add_file(f, st.transform(f.full_vector()), bloom::hash_item(f.name));
  ASSERT_EQ(u.file_count(), files.size());
  for (const auto& f : u.files())
    EXPECT_TRUE(u.box().contains(st.transform(f.full_vector()))) << f.id;
}

TEST(StorageUnit, CentroidIsMeanAndUpdatesOnRemove) {
  StorageUnit u(0, 1024, 7);
  const auto f1 = make_file(1, 10, 0);
  const auto f2 = make_file(2, 30, 0);
  u.add_file(f1, coords(f1), bloom::hash_item(f1.name));
  u.add_file(f2, coords(f2), bloom::hash_item(f2.name));
  EXPECT_DOUBLE_EQ(u.centroid_raw()[static_cast<std::size_t>(Attr::kFileSize)],
                   20.0);
  u.remove_file(1, bloom::hash_item(f1.name));
  EXPECT_DOUBLE_EQ(u.centroid_raw()[static_cast<std::size_t>(Attr::kFileSize)],
                   30.0);
}

TEST(StorageUnit, ByteSizeGrows) {
  StorageUnit u(0, 1024, 7);
  const std::size_t before = u.byte_size();
  for (int i = 0; i < 100; ++i) {
    const auto f = make_file(i + 1, i, i);
    u.add_file(f, coords(f), bloom::hash_item(f.name));
  }
  EXPECT_GT(u.byte_size(), before);
}

// The index semantics the unit has always had, written with node-based
// maps: a key maps to the position it was last added or moved to, and
// removing a record drops its name's entry even when another record shares
// the name.
struct ReferenceUnit {
  std::vector<FileMetadata> files;
  std::vector<la::Vector> coords;  // the z-scores each record was added with
  std::vector<std::uint64_t> seqs;
  std::vector<TombstoneRecord> tombstones;
  std::unordered_map<std::string, std::size_t> by_name;
  std::unordered_map<metadata::FileId, std::size_t> by_id;

  void add(const FileMetadata& f, const la::Vector& c, std::uint64_t seq) {
    by_name[f.name] = files.size();
    by_id[f.id] = files.size();
    files.push_back(f);
    coords.push_back(c);
    seqs.push_back(seq);
  }

  std::optional<FileMetadata> remove(metadata::FileId id,
                                     std::uint64_t deleted_seq) {
    auto it = by_id.find(id);
    if (it == by_id.end()) return std::nullopt;
    const std::size_t pos = it->second;
    FileMetadata removed = files[pos];
    if (deleted_seq > 0)
      tombstones.push_back({removed, seqs[pos], deleted_seq});
    by_name.erase(removed.name);
    by_id.erase(it);
    const std::size_t last = files.size() - 1;
    if (pos != last) {
      files[pos] = files[last];
      coords[pos] = coords[last];
      seqs[pos] = seqs[last];
      by_name[files[pos].name] = pos;
      by_id[files[pos].id] = pos;
    }
    files.pop_back();
    coords.pop_back();
    seqs.pop_back();
    return removed;
  }
};

void expect_same(const StorageUnit& u, const ReferenceUnit& ref,
                 const la::RowStandardizer& st,
                 const std::vector<std::string>& names,
                 const std::vector<metadata::FileId>& ids) {
  ASSERT_EQ(u.file_count(), ref.files.size());
  for (std::size_t i = 0; i < ref.files.size(); ++i) {
    ASSERT_EQ(u.files()[i].id, ref.files[i].id) << i;
    ASSERT_EQ(u.files()[i].name, ref.files[i].name) << i;
    ASSERT_EQ(u.added_seqs()[i], ref.seqs[i]) << i;
    // The z-scores derived from the stored attrs are the ones the record
    // was added with, and the box covers them.
    const la::Vector c = st.transform(u.files()[i].full_vector());
    ASSERT_EQ(c, ref.coords[i]) << i;
    ASSERT_TRUE(u.box().contains(c)) << i;
  }
  for (const auto& n : names) {
    const auto it = ref.by_name.find(n);
    const FileMetadata* f = u.find_by_name(n);
    if (it == ref.by_name.end()) {
      ASSERT_EQ(f, nullptr) << n;
    } else {
      ASSERT_EQ(f, &u.files()[it->second]) << n;
    }
  }
  for (const auto id : ids) {
    const auto it = ref.by_id.find(id);
    const FileMetadata* f = u.find_by_id(id);
    if (it == ref.by_id.end()) {
      ASSERT_EQ(f, nullptr) << id;
    } else {
      ASSERT_EQ(f, &u.files()[it->second]) << id;
    }
  }
  ASSERT_EQ(u.tombstones().size(), ref.tombstones.size());
  for (std::size_t i = 0; i < ref.tombstones.size(); ++i) {
    ASSERT_EQ(u.tombstones()[i].file.id, ref.tombstones[i].file.id);
    ASSERT_EQ(u.tombstones()[i].file.attrs, ref.tombstones[i].file.attrs);
    ASSERT_EQ(u.tombstones()[i].added_seq, ref.tombstones[i].added_seq);
    ASSERT_EQ(u.tombstones()[i].deleted_seq, ref.tombstones[i].deleted_seq);
  }
  for (const auto& f : ref.files)
    ASSERT_TRUE(u.name_filter().may_contain(bloom::hash_item(f.name)));
}

// Randomized churn — adds, removes of present and absent ids, swap-removes,
// duplicate names and ids, tombstones — against the reference semantics,
// including a copied unit (the copy-on-write path) mutated on its own.
TEST(StorageUnit, ChurnMatchesReferenceIndexes) {
  util::Rng rng(2024);
  // Records carry random attrs on every dim; their z-scores come from a
  // standardizer fitted over a sample of the same distribution.
  auto random_file = [&rng](metadata::FileId id) {
    FileMetadata f = make_file(id, 0, 0);
    for (auto& a : f.attrs) a = rng.uniform(-50, 150);
    return f;
  };
  std::vector<FileMetadata> sample;
  for (int i = 0; i < 200; ++i) sample.push_back(random_file(i + 1));
  const la::RowStandardizer st = fit_standardizer(sample);
  StorageUnit u(0, 1024, 7);
  ReferenceUnit ref;
  std::vector<std::string> names;
  std::vector<metadata::FileId> ids;
  std::optional<StorageUnit> frozen;
  ReferenceUnit frozen_ref;
  std::uint64_t seq = 0;
  for (int step = 0; step < 6000; ++step) {
    const std::uint64_t op = rng.uniform_u64(100);
    if (op < 55 || ref.files.empty()) {
      FileMetadata f = random_file(1000 + step);
      if (!names.empty() && rng.uniform_u64(10) == 0)
        f.name = names[rng.uniform_u64(names.size())];  // duplicate name
      if (!ids.empty() && rng.uniform_u64(50) == 0)
        f.id = ids[rng.uniform_u64(ids.size())];  // duplicate id
      const la::Vector c = st.transform(f.full_vector());
      const std::uint64_t s = rng.uniform_u64(2) ? ++seq : 0;
      u.add_file(f, c, bloom::hash_item(f.name), s);
      ref.add(f, c, s);
      names.push_back(f.name);
      ids.push_back(f.id);
    } else if (op < 95) {
      const bool absent = rng.uniform_u64(10) == 0;
      const metadata::FileId id =
          absent ? 999999 : ids[rng.uniform_u64(ids.size())];
      const auto it = ref.by_id.find(id);
      const std::string name =
          it == ref.by_id.end() ? "/absent" : ref.files[it->second].name;
      const std::uint64_t dseq = rng.uniform_u64(2) ? ++seq : 0;
      const auto got = u.remove_file(id, bloom::hash_item(name), dseq);
      const auto want = ref.remove(id, dseq);
      ASSERT_EQ(got.has_value(), want.has_value()) << step;
      if (want) {
        ASSERT_EQ(got->name, want->name) << step;
      }
    } else if (!frozen) {
      frozen.emplace(u);  // copy, then keep mutating the original
      frozen_ref = ref;
    } else {
      u = StorageUnit(*frozen);  // continue from the copy
      ref = frozen_ref;
      frozen.reset();
    }
    if (step % 97 == 0) expect_same(u, ref, st, names, ids);
  }
  expect_same(u, ref, st, names, ids);
  if (frozen) expect_same(*frozen, frozen_ref, st, names, ids);
}

TEST(VersionDelta, EmptyAndByteSize) {
  VersionDelta v;
  v.added_names = bloom::SparseBloomFilter(1024, 7);
  v.added_attr_sum.assign(kNumAttrs, 0.0);
  EXPECT_TRUE(v.empty());
  v.deleted.push_back(4);
  EXPECT_FALSE(v.empty());
  EXPECT_GT(v.byte_size(), 0u);
  // Reported in the dense form: inserts do not change it.
  const std::size_t before = v.byte_size();
  for (int i = 0; i < 4; ++i)
    v.added_names.insert(bloom::hash_item("/v/" + std::to_string(i)));
  EXPECT_EQ(v.byte_size(), before);
}

GroupReplica make_replica() {
  GroupReplica r;
  r.centroid_raw.assign(kNumAttrs, 0.0);
  r.attr_sum.assign(kNumAttrs, 0.0);
  r.centroid_raw[0] = 100;
  r.attr_sum[0] = 1000;
  r.file_count = 10;
  r.box = rtree::Mbr(la::Vector(kNumAttrs, 0.0), la::Vector(kNumAttrs, 1.0));
  r.name_filter = bloom::BloomFilter(1024, 7);
  r.name_filter.insert("/base/file");
  return r;
}

VersionDelta make_delta(double coord, const std::string& name, double sum0) {
  VersionDelta v;
  v.added_box = rtree::Mbr(la::Vector(kNumAttrs, coord));
  v.added_names = bloom::SparseBloomFilter(1024, 7);
  v.added_names.insert(bloom::hash_item(name));
  v.added_attr_sum.assign(kNumAttrs, 0.0);
  v.added_attr_sum[0] = sum0;
  v.added_count = 1;
  return v;
}

TEST(GroupReplica, EffectiveBoxUnionsVersions) {
  GroupReplica r = make_replica();
  r.versions.push_back(make_delta(5.0, "/new/a", 10));
  const rtree::Mbr without = r.effective_box(false);
  const rtree::Mbr with = r.effective_box(true);
  EXPECT_FALSE(without.contains(la::Vector(kNumAttrs, 5.0)));
  EXPECT_TRUE(with.contains(la::Vector(kNumAttrs, 5.0)));
}

TEST(GroupReplica, EffectiveCentroidBlendsVersions) {
  GroupReplica r = make_replica();  // sum0=1000, count=10 -> mean 100
  r.versions.push_back(make_delta(1.0, "/new/a", 100));  // +1 file at 100
  const la::Vector with = r.effective_centroid(true);
  EXPECT_DOUBLE_EQ(with[0], 1100.0 / 11.0);
  const la::Vector without = r.effective_centroid(false);
  EXPECT_DOUBLE_EQ(without[0], 100.0);
}

TEST(GroupReplica, NameMayContainChecksVersionsRollingBackward) {
  GroupReplica r = make_replica();
  const bloom::ItemHash base = bloom::hash_item("/base/file");
  const bloom::ItemHash added = bloom::hash_item("/new/x");
  EXPECT_TRUE(r.name_may_contain(base, true));
  EXPECT_FALSE(r.name_may_contain(added, true));
  r.versions.push_back(make_delta(1.0, "/new/x", 1));
  EXPECT_TRUE(r.name_may_contain(added, true));
  EXPECT_FALSE(r.name_may_contain(added, false));  // versions disabled
}

TEST(GroupReplica, ByteSizeIncludesVersions) {
  GroupReplica r = make_replica();
  const std::size_t base = r.byte_size();
  r.versions.push_back(make_delta(1.0, "/new/x", 1));
  EXPECT_GT(r.byte_size(), base);
  EXPECT_GT(r.versions_byte_size(), 0u);
}

}  // namespace
}  // namespace smartstore::core
