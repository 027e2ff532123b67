// Storage units, replicated group summaries and version deltas.
//
// A storage unit is a metadata server — a leaf of the semantic R-tree
// (Section 2.3). It holds file metadata records, a local filename index, a
// counting Bloom filter for point queries, the unit's MBR in standardized
// attribute space and its raw-attribute centroid (its semantic vector).
//
// Record layout: position i of a unit is files()[i] and added_seqs()[i].
// Records keep their raw attrs only: no z-scores are stored, and scans
// derive them per query, on the query's dims, from the store's
// standardizer. The unit box is still in standardized space (add_file is
// handed each record's z-scores to widen it). The name and id indexes are
// open-addressing tables of 8-byte slots (position + 32-bit key hash); the
// keys themselves live only in files().
//
// GroupReplica is the unit of the off-line pre-processing scheme (Section
// 3.4): every storage unit keeps replicas of the *first-level index
// units'* summaries and routes queries by checking them locally. Replicas
// go stale as files are inserted/deleted; consistency is restored either
// by lazy full refreshes (when accumulated changes exceed a threshold) or
// incrementally by the versioning scheme of Section 4.4 — sealed
// VersionDelta objects multicast to all units and consulted
// rolling-backward at query time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bloom/bloom_filter.h"
#include "la/matrix.h"
#include "metadata/file_metadata.h"
#include "rtree/mbr.h"

namespace smartstore::core {

using UnitId = std::size_t;
inline constexpr std::size_t kInvalidIndex = static_cast<std::size_t>(-1);

/// Sentinel GC watermark when no snapshot is pinned: every tombstone is
/// immediately reclaimable.
inline constexpr std::uint64_t kNoWatermark =
    static_cast<std::uint64_t>(-1);

/// Sentinel "no forced seq" for insert paths: stamp a fresh commit seq
/// instead of re-homing under a preserved one.
inline constexpr std::uint64_t kAssignSeq = static_cast<std::uint64_t>(-1);

/// A record version that has been deleted but is still visible to some
/// pinned snapshot: visible at snapshot S iff added_seq <= S < deleted_seq.
/// Like live records, a tombstone keeps raw attrs only. The unit box need
/// not cover it (a unit rebuilt from a snapshot boxes its live records
/// alone), so scans check tombstones whatever the box says.
struct TombstoneRecord {
  metadata::FileMetadata file;
  std::uint64_t added_seq = 0;
  std::uint64_t deleted_seq = 0;
};

/// Open-addressing index from a key to a record position. Slots hold the
/// position and a 32-bit hash of the key, not the key: the caller's
/// `eq(pos)` decides whether the record at a candidate position carries the
/// key. Linear probing over a power-of-two table, backward-shift deletion
/// (no tombstones), at most 3/4 full.
class PositionIndex {
 public:
  /// Position of the entry whose key matches, if any.
  template <class Eq>
  std::optional<std::size_t> find(std::uint32_t hash, Eq eq) const {
    const std::size_t s = find_slot(hash, eq);
    if (s == kNone) return std::nullopt;
    return slots_[s].pos;
  }

  /// Points the key at `pos`: overwrites the matching entry, else adds one.
  template <class Eq>
  void assign(std::uint32_t hash, std::size_t pos, Eq eq) {
    const std::size_t s = find_slot(hash, eq);
    if (s != kNone) {
      slots_[s].pos = static_cast<std::uint32_t>(pos);
      return;
    }
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();
    place({static_cast<std::uint32_t>(pos), hash});
    ++size_;
  }

  /// Drops the matching entry, if any.
  template <class Eq>
  void erase(std::uint32_t hash, Eq eq) {
    const std::size_t s = find_slot(hash, eq);
    if (s == kNone) return;
    erase_slot(s);
    --size_;
  }

  std::size_t byte_size() const { return slots_.capacity() * sizeof(Slot); }

 private:
  struct Slot {
    std::uint32_t pos;
    std::uint32_t hash;
  };
  static constexpr std::uint32_t kFree = static_cast<std::uint32_t>(-1);
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  template <class Eq>
  std::size_t find_slot(std::uint32_t hash, Eq& eq) const {
    if (slots_.empty()) return kNone;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = hash & mask;; s = (s + 1) & mask) {
      const Slot& slot = slots_[s];
      if (slot.pos == kFree) return kNone;
      if (slot.hash == hash && eq(slot.pos)) return s;
    }
  }
  void place(Slot slot);
  void erase_slot(std::size_t s);
  void grow();

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

/// One metadata server (semantic R-tree leaf).
class StorageUnit {
 public:
  StorageUnit(UnitId id, std::size_t bloom_bits, unsigned bloom_hashes);

  UnitId id() const { return id_; }
  std::size_t file_count() const { return files_.size(); }
  bool empty() const { return files_.empty(); }

  /// Adds a record. `std_coords` is the file's standardized full-D vector
  /// (the geometry every MBR in the store is expressed in); it widens the
  /// unit box and is not kept. `name_hash` is the digest of f.name
  /// (bloom::hash_item), which callers have already computed for the tree
  /// and replica filters. `added_seq` is the commit
  /// sequence stamped on the mutation (0 = pre-history: bulk builds and
  /// legacy snapshots, visible to every snapshot).
  void add_file(const metadata::FileMetadata& f, const la::Vector& std_coords,
                const bloom::ItemHash& name_hash, std::uint64_t added_seq = 0);

  /// Removes by id; returns the removed record. `name_hash` must be the
  /// digest of that record's name. MBRs are not shrunk on delete (standard
  /// R-tree practice; bounds stay conservative until the next
  /// reconfiguration). With `deleted_seq` > 0 the removed version is kept on
  /// the unit's tombstone chain so pinned snapshots older than the delete
  /// can still see it; `deleted_seq` == 0 drops it outright (bulk moves that
  /// re-home a record under its original added_seq).
  std::optional<metadata::FileMetadata> remove_file(
      metadata::FileId id, const bloom::ItemHash& name_hash,
      std::uint64_t deleted_seq = 0);

  /// Local filename lookup (exact).
  const metadata::FileMetadata* find_by_name(const std::string& name) const;
  const metadata::FileMetadata* find_by_id(metadata::FileId id) const;

  const std::vector<metadata::FileMetadata>& files() const { return files_; }

  /// Commit sequence of each live record, parallel to files(). 0 means
  /// pre-history (always visible).
  const std::vector<std::uint64_t>& added_seqs() const { return added_seqs_; }

  /// Deleted-but-pinned record versions, oldest deletes first.
  const std::vector<TombstoneRecord>& tombstones() const {
    return tombstones_;
  }

  /// Re-attaches a tombstone loaded from a snapshot image.
  void restore_tombstone(TombstoneRecord t) {
    tombstones_.push_back(std::move(t));
  }

  /// Drops every tombstone no pinned snapshot can still see (deleted at or
  /// before `watermark`, the oldest pinned snapshot seq — kNoWatermark
  /// reclaims everything). Returns how many were reclaimed. This is what
  /// keeps the per-unit version chain bounded: chain length is at most the
  /// number of deletes since the oldest live pin.
  std::size_t prune_tombstones(std::uint64_t watermark);

  /// Membership filter over local filenames (counting, so deletions work);
  /// the plain view is what gets unioned into index units.
  const bloom::CountingBloomFilter& name_filter() const { return name_filter_; }
  bloom::BloomFilter name_filter_view() const {
    return name_filter_.to_bloom_filter();
  }

  /// MBR over standardized coordinates of local files. It only widens
  /// (add_file) until the unit is rebuilt, so it covers every live record.
  const rtree::Mbr& box() const { return box_; }

  /// Raw-attribute centroid (the unit's semantic vector source).
  la::Vector centroid_raw() const;

  /// Approximate memory footprint of everything this unit stores locally
  /// for itself (records + indexes), excluding hosted index units. Each
  /// record and tombstone is charged its kNumAttrs standardized coordinates
  /// as well: that is the modeled size of the paper's records (Figures 7
  /// and 14), though scans derive the coordinates instead of holding them.
  std::size_t byte_size() const;

 private:
  UnitId id_;
  std::vector<metadata::FileMetadata> files_;
  std::vector<std::uint64_t> added_seqs_;  // parallel to files_
  std::vector<TombstoneRecord> tombstones_;  // MVCC version chain
  PositionIndex by_name_;  // name -> position
  PositionIndex by_id_;    // id -> position
  bloom::CountingBloomFilter name_filter_;
  rtree::Mbr box_;
  la::Vector attr_sums_;  // running sums for the centroid

  /// Index key matchers: does the record at a position carry this key?
  auto name_is(const std::string& name) const {
    return [this, &name](std::size_t pos) { return files_[pos].name == name; };
  }
  auto id_is(metadata::FileId id) const {
    return [this, id](std::size_t pos) { return files_[pos].id == id; };
  }
};

/// Aggregated changes between two replica synchronization points
/// (Section 4.4). Small by construction: only summaries of the changed
/// files, kept in memory. The name filter is held sparse (its set-bit
/// positions); byte_size() reports the dense form a snapshot writes.
struct VersionDelta {
  rtree::Mbr added_box;             ///< MBR of inserted files (standardized)
  bloom::SparseBloomFilter added_names;  ///< filenames inserted in this window
  la::Vector added_attr_sum;        ///< raw-attribute sum of inserted files
  std::size_t added_count = 0;
  std::vector<metadata::FileId> deleted;
  double sealed_at = 0;             ///< simulated seal time t_i

  bool empty() const { return added_count == 0 && deleted.empty(); }
  std::size_t byte_size() const;
};

/// Replica of a first-level index unit's summary, as held by every storage
/// unit for off-line query routing. `versions` are the sealed deltas
/// received since the last full synchronization, newest last; queries scan
/// them rolling backward (newest first, Section 4.4).
struct GroupReplica {
  la::Vector centroid_raw;         ///< as of last full sync
  la::Vector attr_sum;             ///< sum form, for incremental centroids
  std::size_t file_count = 0;
  rtree::Mbr box;
  bloom::BloomFilter name_filter;
  std::vector<VersionDelta> versions;

  /// Effective MBR: the base box unioned with version deltas (when
  /// `with_versions`), i.e. what a remote unit can know about the group.
  rtree::Mbr effective_box(bool with_versions) const;

  /// Effective centroid including version deltas.
  la::Vector effective_centroid(bool with_versions) const;

  /// Filename may-contain check for the name whose digest is `h`: versions
  /// newest-first (rolling backward), then the base filter. One digest
  /// serves every filter consulted.
  bool name_may_contain(const bloom::ItemHash& h, bool with_versions) const;

  std::size_t byte_size() const;
  std::size_t versions_byte_size() const;
};

}  // namespace smartstore::core
