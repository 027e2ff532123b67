// Binary snapshots of a full SmartStore deployment.
//
// A snapshot is the durable image of everything build() computes — file
// records and their storage-unit membership, the semantic R-tree (MBRs,
// Bloom filters, centroid sums, index-unit mapping), the fitted LSI model,
// auto-configured tree variants, and the per-group replica/version sync
// state — so a process restart resumes serving without re-running
// SVD, balanced k-means or bottom-up tree construction.
//
// On-disk layout (all integers little-endian):
//
//   [8B magic "SSNAPv01"] [u32 format version] [u32 section count]
//   then per section:
//   [u32 section id] [u64 payload length] [payload] [u32 CRC-32 of payload]
//
// Sections: CONFIG (Config + rng state + active flags), STANDARDIZER,
// UNITS (records per storage unit), TREE, VARIANTS, SYNC (group replicas,
// sealed versions, pending deltas), and an optional WALFENCE — the WAL
// frontier (per shard) whose effects this image already contains, so
// recovery never replays them twice. Images are written only from a
// frozen view (save_snapshot_frozen) by the delta engine's fold
// (persist/delta_checkpoint.h); <dir>/snapshot.bin is the pre-manifest
// layout, read and adopted but never written.
// Every section is independently checksummed; a flipped bit or truncation
// anywhere fails the load with a PersistError instead of resurrecting a
// corrupt deployment.
//
// What is deliberately NOT persisted: the virtual-time cluster's queue
// occupancy (a restart begins at simulated time zero with idle queues) and
// derived per-unit structures (counting Bloom filters, name/id indexes,
// standardized coordinates), which are rebuilt from the records on load.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>

#include "core/smartstore.h"

namespace smartstore::persist {

/// Raised on any malformed snapshot or WAL: bad magic, unsupported version,
/// checksum mismatch, truncation, or cross-section inconsistency. Each
/// error carries a coarse code so exception-free surfaces (the db facade's
/// Status boundary, recover(dir, out)) can type the failure instead of
/// string-matching messages: kCorruption is the default (malformed bytes),
/// kNotFound marks a missing snapshot, kIo an OS-level open/write/stat
/// failure on otherwise well-formed state.
class PersistError : public std::runtime_error {
 public:
  enum class Code { kCorruption, kNotFound, kIo };

  explicit PersistError(const std::string& msg,
                        Code code = Code::kCorruption)
      : std::runtime_error(msg), code_(code) {}

  Code code() const { return code_; }

 private:
  Code code_;
};

inline constexpr char kSnapshotMagic[8] = {'S', 'S', 'N', 'A',
                                           'P', 'v', '0', '1'};
/// Version 2 adds MVCC state: the CONFIG section appends the commit seq,
/// and each UNITS entry appends per-record added_seqs plus the tombstone
/// chain still visible above the GC watermark at save time. The loader
/// accepts version 1 (every record loads as pre-history, seq 0).
inline constexpr std::uint32_t kSnapshotFormatVersion = 2;

/// One shard's slice of a sharded-WAL fence: records [0, records) of
/// wal/<shard>.log under `generation` are reflected in the snapshot.
struct ShardFence {
  std::uint64_t shard = 0;
  std::uint64_t generation = 0;
  std::uint64_t records = 0;
};

/// The WAL prefix a snapshot subsumes: `shards` carries one (generation,
/// records) frontier entry per WAL shard. The legacy pair covers records
/// [0, records) of a pre-sharding <dir>/wal.bin whose header generation is
/// `generation`; it is only ever read (from an old snapshot.bin) and is
/// zero in everything written now. `present` is false when the snapshot
/// carries no fence. The WALFENCE section encodes the legacy pair first
/// and appends the shard vector, so pre-sharding snapshots decode with
/// `shards` empty.
struct WalFence {
  std::uint64_t generation = 0;
  std::uint64_t records = 0;
  bool present = false;
  std::vector<ShardFence> shards;
};

/// Serializes the frozen view of a store whose begin_checkpoint() is
/// active, while serving threads keep mutating it. Pieces are resolved
/// one at a time under the store's freeze lock — a copy made by the first
/// post-freeze write where one exists, the untouched live object where
/// not — so the written image is exactly the state at the freeze epoch.
/// Serialized pieces are marked done (their frozen copies are released and
/// later writes stop copying), which is why the store reference is
/// non-const. Publication is atomic (temp file + rename + directory
/// fsync); a present `fence` is recorded in the WALFENCE section.
void save_snapshot_frozen(core::SmartStore& store, const std::string& path,
                          const WalFence& fence);

/// Loads and verifies a snapshot, reassembling a ready-to-serve deployment.
/// Throws PersistError (or util::BinaryIoError) on any corruption; the
/// returned store has passed check_invariants(). When `fence_out` is given
/// it receives the snapshot's WAL fence (present = false if none).
std::unique_ptr<core::SmartStore> load_snapshot(const std::string& path,
                                                WalFence* fence_out = nullptr);

/// Reads ONLY the WALFENCE section of a snapshot (checksum-verified),
/// without assembling the store — the incremental-checkpoint engine uses
/// it to adopt an existing full image as a delta chain's base, where the
/// fence says which WAL prefix that base already covers. Returns a fence
/// with `present == false` when the snapshot carries none. Throws
/// PersistError on a missing or malformed file, like load_snapshot.
WalFence read_snapshot_fence(const std::string& path);

}  // namespace smartstore::persist
