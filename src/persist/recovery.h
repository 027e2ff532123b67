// Deployment-directory recovery: base image + delta chain + WAL tail.
//
//   <dir>/ckpt/MANIFEST  the checkpoint: a base image plus a chain of
//                        delta cuts (persist/segment.h), written only by
//                        the delta engine (persist/delta_checkpoint.h)
//   <dir>/wal/<u>.log    one v03 log per storage unit (persist/wal_shard.h)
//   <dir>/snapshot.bin   legacy full image (pre-manifest layout, read-only)
//   <dir>/wal.bin        legacy single log, v01/v02 (read-only)
//
// recover() loads whatever base the directory holds and replays the valid
// prefix of its logs through the store's own mutation API, skipping each
// log's fenced prefix when generations match; shard records are merged
// across shards by their store-wide sequence number first, reconstructing
// one mutation order. Under a MANIFEST, wal.bin is never read: every
// directory with a manifest either has no live wal.bin or one the
// manifest's base already contains. Without a manifest, snapshot.bin (if
// any) is the base and a legacy wal.bin replays past its fence before the
// shard logs; Store::Open then folds once and removes wal.bin, so a legacy
// log is replayed exactly once. A crash anywhere inside a cut or fold
// recovers exactly (see delta_checkpoint.h for the windows). A torn or
// truncated tail rolls any log back to its last commit boundary —
// in the sharded layout that loses only *unacknowledged* records of that
// shard, never an acknowledged record of another shard.
#pragma once

#include <memory>
#include <string>

#include "core/smartstore.h"
#include "persist/segment.h"
#include "persist/wal.h"
#include "persist/wal_shard.h"
#include "smartstore/status.h"

namespace smartstore::persist {

std::string snapshot_path(const std::string& dir);
std::string wal_path(const std::string& dir);

struct RecoveryResult {
  std::unique_ptr<core::SmartStore> store;
  std::size_t wal_blocks = 0;
  std::size_t wal_records = 0;   ///< replayed (fenced prefix excluded)
  std::size_t wal_fenced = 0;    ///< skipped: already in the snapshot
  std::size_t wal_shards = 0;    ///< shard logs scanned
  bool wal_tail_torn = false;    ///< any log had a torn tail dropped
  bool used_manifest = false;    ///< base came from the delta-chain layout
  std::size_t delta_cuts = 0;    ///< chain links applied under the manifest
  std::size_t delta_records = 0; ///< delta records applied before the tail
};

/// Applies one logged record through the store's mutation API.
void apply_record(core::SmartStore& store, const WalRecord& rec);

/// Replays a scanned log into `store`; returns the number of records applied.
std::size_t replay(core::SmartStore& store, const WalScan& scan);

/// recover()'s replay half for a directory WITHOUT a manifest, reusable
/// without a snapshot: replays a legacy wal.bin, then the shard logs
/// (merged by sequence number), into `store`, skipping prefixes `fence`
/// covers, and accumulates counts into `res`. The db facade uses this to
/// recover a deployment that crashed before its first checkpoint — the
/// base image is then the empty store build({}) produces, so the full log
/// replays.
void replay_dir_logs(core::SmartStore& store, const std::string& dir,
                     const WalFence& fence, RecoveryResult& res);

/// The base image file `m` names: <dir>/ckpt/base-<id>.bin, or an adopted
/// <dir>/snapshot.bin.
std::string base_image_path(const std::string& dir, const DeltaManifest& m);

/// Reassembles the state a delta manifest describes at its last cut: the
/// base image (base_image_path) with
/// every cut's extents applied, merged across units by store-wide
/// sequence number. No WAL is read — the caller replays the tail past
/// m.fence separately (recover()), or wants exactly the state at the last
/// cut (the replication bootstrap). `res`, when given, accumulates the
/// delta_* counts. Throws PersistError on a missing/corrupt base,
/// segment, or extent.
std::unique_ptr<core::SmartStore> load_delta_base(const std::string& dir,
                                                  const DeltaManifest& m,
                                                  RecoveryResult* res);

/// Loads the base image and replays <dir>'s logs. When a delta manifest
/// exists it WINS over snapshot.bin: the base is whatever the manifest
/// names, the delta chain applies next (merged by sequence number), and
/// the shard-log tail past the manifest's fence replays last. Without
/// one, snapshot.bin is the base and replay_dir_logs runs past its fence.
/// Throws PersistError when the base is missing or corrupt; a torn WAL
/// tail is not an error (reported in the result, recovery keeps the
/// prefix).
RecoveryResult recover(const std::string& dir);

/// Exception-free flavour: the one error path out of recovery, typed.
/// Every failure mode that used to be a mixed bag of bools and throws maps
/// onto one Status code — kNotFound (no snapshot in `dir`), kCorruption
/// (bad magic / checksum / truncated section / malformed record),
/// kIOError (the OS failed an open/stat/write), kUnknown (anything else).
/// A torn WAL tail is still NOT an error: recovery keeps the valid prefix
/// and reports it via out->wal_tail_torn, exactly like the throwing
/// flavour. On failure `*out` is left default-constructed (no store).
db::Status recover(const std::string& dir, RecoveryResult* out) noexcept;

/// Removes a legacy <dir>/wal.bin (and syncs the directory entry). Open
/// calls it once the log's records are covered by a published manifest.
void remove_legacy_wal(const std::string& dir);

}  // namespace smartstore::persist
