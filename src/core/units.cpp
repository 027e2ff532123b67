#include "core/units.h"

#include <algorithm>
#include <cassert>
#include <functional>

namespace smartstore::core {

using metadata::FileId;
using metadata::FileMetadata;
using metadata::kNumAttrs;

namespace {

std::uint32_t name_key(const std::string& name) {
  return static_cast<std::uint32_t>(std::hash<std::string>{}(name));
}

std::uint32_t id_key(FileId id) {
  // splitmix64 finalizer: sequential ids spread over the whole table.
  std::uint64_t z = id + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return static_cast<std::uint32_t>((z ^ (z >> 31)) >> 32);
}

}  // namespace

void PositionIndex::place(Slot slot) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t s = slot.hash & mask;
  while (slots_[s].pos != kFree) s = (s + 1) & mask;
  slots_[s] = slot;
}

void PositionIndex::erase_slot(std::size_t s) {
  // Backward shift: pull later entries of the probe run into the hole when
  // the hole lies between their home slot and where they sit.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t j = (s + 1) & mask; slots_[j].pos != kFree;
       j = (j + 1) & mask) {
    const std::size_t home = slots_[j].hash & mask;
    if (((j - home) & mask) >= ((j - s) & mask)) {
      slots_[s] = slots_[j];
      s = j;
    }
  }
  slots_[s].pos = kFree;
}

void PositionIndex::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{kFree, 0});
  for (const Slot& slot : old)
    if (slot.pos != kFree) place(slot);
}

StorageUnit::StorageUnit(UnitId id, std::size_t bloom_bits,
                         unsigned bloom_hashes)
    : id_(id), name_filter_(bloom_bits, bloom_hashes),
      attr_sums_(kNumAttrs, 0.0) {}

void StorageUnit::add_file(const FileMetadata& f, const la::Vector& std_coords,
                           const bloom::ItemHash& name_hash,
                           std::uint64_t added_seq) {
  assert(std_coords.size() == kNumAttrs);
  const std::size_t pos = files_.size();
  assert(pos < static_cast<std::uint32_t>(-1));
  files_.push_back(f);
  added_seqs_.push_back(added_seq);
  const FileMetadata& added = files_.back();
  by_name_.assign(name_key(added.name), pos, name_is(added.name));
  by_id_.assign(id_key(added.id), pos, id_is(added.id));
  name_filter_.insert(name_hash);
  box_.expand(std_coords);
  for (std::size_t d = 0; d < kNumAttrs; ++d) attr_sums_[d] += f.attrs[d];
}

std::optional<FileMetadata> StorageUnit::remove_file(
    FileId id, const bloom::ItemHash& name_hash, std::uint64_t deleted_seq) {
  const auto found = by_id_.find(id_key(id), id_is(id));
  if (!found) return std::nullopt;
  const std::size_t pos = *found;
  FileMetadata removed = files_[pos];

  if (deleted_seq > 0) {
    // Version chain: snapshots pinned before the delete still see this
    // record. The caller prunes against the GC watermark.
    tombstones_.push_back({removed, added_seqs_[pos], deleted_seq});
  }

  name_filter_.remove(name_hash);
  by_name_.erase(name_key(removed.name), name_is(removed.name));
  by_id_.erase(id_key(id), id_is(id));
  for (std::size_t d = 0; d < kNumAttrs; ++d)
    attr_sums_[d] -= removed.attrs[d];

  // Swap-remove: re-point the last record's keys at `pos` (while it still
  // sits at `last`, where the index entries find it), then move it there.
  const std::size_t last = files_.size() - 1;
  if (pos != last) {
    const FileMetadata& moved = files_[last];
    by_name_.assign(name_key(moved.name), pos, name_is(moved.name));
    by_id_.assign(id_key(moved.id), pos, id_is(moved.id));
    files_[pos] = std::move(files_[last]);
    added_seqs_[pos] = added_seqs_[last];
  }
  files_.pop_back();
  added_seqs_.pop_back();
  return removed;
}

std::size_t StorageUnit::prune_tombstones(std::uint64_t watermark) {
  if (tombstones_.empty()) return 0;
  const std::size_t before = tombstones_.size();
  tombstones_.erase(
      std::remove_if(tombstones_.begin(), tombstones_.end(),
                     [watermark](const TombstoneRecord& t) {
                       return t.deleted_seq <= watermark;
                     }),
      tombstones_.end());
  return before - tombstones_.size();
}

const FileMetadata* StorageUnit::find_by_name(const std::string& name) const {
  const auto pos = by_name_.find(name_key(name), name_is(name));
  return pos ? &files_[*pos] : nullptr;
}

const FileMetadata* StorageUnit::find_by_id(FileId id) const {
  const auto pos = by_id_.find(id_key(id), id_is(id));
  return pos ? &files_[*pos] : nullptr;
}

la::Vector StorageUnit::centroid_raw() const {
  la::Vector c = attr_sums_;
  if (!files_.empty()) {
    const double inv = 1.0 / static_cast<double>(files_.size());
    for (auto& x : c) x *= inv;
  }
  return c;
}

std::size_t StorageUnit::byte_size() const {
  // Modeled coordinates, charged though not held: a flat array (header +
  // kNumAttrs doubles per record) and a kNumAttrs-double vector per
  // tombstone, so the paper's space figures keep their record model.
  constexpr std::size_t kCoordBytes = kNumAttrs * sizeof(double);
  std::size_t b = sizeof(*this) + sizeof(std::vector<double>);
  for (const auto& f : files_) b += f.byte_size();
  b += files_.size() * kCoordBytes;
  b += by_name_.byte_size() + by_id_.byte_size();
  b += added_seqs_.size() * sizeof(std::uint64_t);
  for (const auto& t : tombstones_) {
    b += sizeof(TombstoneRecord) + sizeof(la::Vector) + t.file.byte_size() +
         kCoordBytes;
  }
  b += name_filter_.byte_size();
  b += box_.byte_size();
  return b;
}

std::size_t VersionDelta::byte_size() const {
  // Counts the name filter in its dense encoding — the form a snapshot
  // writes and the paper models a version as — not the sparse one held.
  return sizeof(*this) - sizeof(added_names) + sizeof(bloom::BloomFilter) +
         added_box.byte_size() + added_names.dense_byte_size() +
         added_attr_sum.capacity() * sizeof(double) +
         deleted.capacity() * sizeof(metadata::FileId);
}

rtree::Mbr GroupReplica::effective_box(bool with_versions) const {
  rtree::Mbr b = box;
  if (with_versions) {
    for (const auto& v : versions) b.expand(v.added_box);
  }
  return b;
}

la::Vector GroupReplica::effective_centroid(bool with_versions) const {
  if (!with_versions || versions.empty()) return centroid_raw;
  la::Vector sum = attr_sum;
  std::size_t count = file_count;
  for (const auto& v : versions) {
    if (v.added_count == 0) continue;
    for (std::size_t d = 0; d < sum.size(); ++d) sum[d] += v.added_attr_sum[d];
    count += v.added_count;
  }
  if (count == 0) return centroid_raw;
  for (auto& x : sum) x /= static_cast<double>(count);
  return sum;
}

bool GroupReplica::name_may_contain(const bloom::ItemHash& h,
                                    bool with_versions) const {
  if (with_versions) {
    // Rolling backward: newest version first (Section 4.4). The versions
    // share one filter geometry, so the probe positions are computed once.
    bloom::ProbeCache probes(h);
    for (auto it = versions.rbegin(); it != versions.rend(); ++it) {
      if (it->added_names.may_contain(probes)) return true;
    }
  }
  return name_filter.may_contain(h);
}

std::size_t GroupReplica::byte_size() const {
  return sizeof(*this) + centroid_raw.capacity() * sizeof(double) +
         attr_sum.capacity() * sizeof(double) + box.byte_size() +
         name_filter.byte_size() + versions_byte_size();
}

std::size_t GroupReplica::versions_byte_size() const {
  std::size_t b = 0;
  for (const auto& v : versions) b += v.byte_size();
  return b;
}

}  // namespace smartstore::core
