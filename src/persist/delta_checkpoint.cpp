#include "persist/delta_checkpoint.h"

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <system_error>

#include "persist/fault.h"
#include "persist/recovery.h"
#include "util/timer.h"

namespace smartstore::persist {

namespace fs = std::filesystem;

DeltaEngine::DeltaEngine(core::SmartStore& store, ShardedWal& wal,
                         std::string dir)
    : store_(store), wal_(wal), dir_(std::move(dir)) {
  std::error_code ec;
  if (fs::weakly_canonical(wal_.dir(), ec) !=
      fs::weakly_canonical(ShardedWal::shard_dir(dir_), ec)) {
    throw PersistError("DeltaEngine: the sharded WAL must own this "
                       "directory's shards (" +
                       ShardedWal::shard_dir(dir_) + "), got " + wal_.dir());
  }
}

bool DeltaEngine::ensure_manifest_locked() {
  if (loaded_) return true;
  if (manifest_exists(dir_)) {
    manifest_ = read_manifest(dir_);
    loaded_ = true;
    return true;
  }
  // No manifest yet: an existing full image is adopted as the chain's
  // base — its WALFENCE says which shard-log prefix it already contains.
  // (A live legacy wal.bin never reaches here: Open folds it away first.)
  const std::string sp = snapshot_path(dir_);
  std::error_code ec;
  if (!fs::exists(sp, ec)) return false;  // fresh store: fold
  manifest_ = DeltaManifest{};
  manifest_.base_kind = BaseKind::kLegacySnapshot;
  manifest_.fence = read_snapshot_fence(sp);
  loaded_ = true;  // adopted in memory; the first cut publishes it
  return true;
}

bool DeltaEngine::base_image(std::string* path, std::uint64_t* bytes) {
  const util::MutexLock lock(mu_);
  if (!ensure_manifest_locked()) return false;
  *path = base_image_path(dir_, manifest_);
  std::error_code ec;
  const auto sz = fs::file_size(*path, ec);
  if (ec) return false;
  *bytes = static_cast<std::uint64_t>(sz);
  return true;
}

void DeltaEngine::publish_stats_locked(const DeltaManifest& m) {
  chain_len_.store(m.cuts.size(), std::memory_order_relaxed);
  chain_bytes_.store(m.delta_bytes(), std::memory_order_relaxed);
  last_cut_seq_.store(m.last_cut_seq, std::memory_order_relaxed);
}

DeltaCutStats DeltaEngine::cut() {
  util::WallTimer t;
  const util::MutexLock lock(mu_);
  if (!ensure_manifest_locked()) {
    DeltaCutStats st = fold_locked();
    st.seconds = t.seconds();
    return st;
  }

  // The barrier: with every serving thread outside its operation, the
  // frontier, the commit seq and the dirty watermarks describe one
  // instant, and every stamped record is committed by the frontier.
  WalFence fence;
  std::vector<std::size_t> fence_bytes;
  std::uint64_t cut_seq = 0;
  util::WallTimer freeze;
  store_.mutation_barrier([&] {
    fence = wal_.frontier(&fence_bytes);
    cut_seq = store_.last_commit_seq();
  });

  DeltaCutStats st;
  st.freeze_s = freeze.seconds();
  st.cut_seq = cut_seq;
  DeltaCut cutrec;
  cutrec.cut_id = manifest_.next_cut_id();
  cutrec.cut_seq = cut_seq;
  for (const ShardFence& f : fence.shards) {
    const std::uint64_t skip = manifest_.fenced_records(f.shard, f.generation);
    if (f.records <= skip) {
      // Cold unit: no records since the previous cut. The per-unit dirty
      // watermark (store_.unit_dirty_seq) says the same thing for data
      // records; the fence count is authoritative because structural
      // records in shard 0 never raise a unit watermark.
      ++st.units_cold;
      continue;
    }
    // The shard log may take concurrent appends while we read it; the
    // committed frontier prefix is durable and stable, and anything past
    // it (including a torn in-flight block) is beyond the slice we take.
    WalScan scan = scan_wal(ShardedWal::shard_path(dir_, f.shard));
    if (scan.generation != f.generation || scan.records.size() < f.records) {
      throw PersistError("delta cut: shard " + std::to_string(f.shard) +
                             " log moved under the engine",
                         PersistError::Code::kCorruption);
    }
    std::vector<WalRecord> slice(
        std::make_move_iterator(scan.records.begin() +
                                static_cast<std::ptrdiff_t>(skip)),
        std::make_move_iterator(scan.records.begin() +
                                static_cast<std::ptrdiff_t>(f.records)));
    const DeltaExtent ext = append_segment_extent(
        dir_, f.shard, slice, manifest_.segment_end(f.shard));
    st.delta_records += ext.records;
    st.delta_bytes += ext.length;
    ++st.units_contributing;
    cutrec.extents.push_back(ext);
  }

  if (cutrec.extents.empty()) {
    // Wholly cold store: publishing an empty cut would grow the chain for
    // nothing, and rebasing would churn generations. True no-op.
    st.noop = true;
    st.chain_len = manifest_.cuts.size();
    st.chain_bytes = manifest_.delta_bytes();
    st.seconds = t.seconds();
    return st;
  }

  DeltaManifest next = manifest_;
  next.manifest_id = manifest_.manifest_id + 1;
  next.last_cut_seq = cut_seq;
  next.fence = fence;
  next.cuts.push_back(std::move(cutrec));
  write_manifest(dir_, next);
  manifest_ = std::move(next);
  publish_stats_locked(manifest_);
  total_delta_bytes_.fetch_add(st.delta_bytes, std::memory_order_relaxed);
  cuts_.fetch_add(1, std::memory_order_relaxed);

  // The crash window: manifest published, WAL not yet rebased. The fence
  // (generation match) makes recovery — and the next cut — skip exactly
  // the records the new delta carries.
  fault_point("delta:pre-rebase");
  util::WallTimer rebase;
  wal_.rebase_to(fence, fence_bytes);
  st.rebase_s = rebase.seconds();

  st.chain_len = manifest_.cuts.size();
  st.chain_bytes = manifest_.delta_bytes();
  st.seconds = t.seconds();
  return st;
}

DeltaCutStats DeltaEngine::fold() {
  util::WallTimer t;
  const util::MutexLock lock(mu_);
  if (!loaded_ && manifest_exists(dir_)) {
    manifest_ = read_manifest(dir_);
    loaded_ = true;
  }
  DeltaCutStats st = fold_locked();
  st.seconds = t.seconds();
  return st;
}

DeltaCutStats DeltaEngine::fold_locked() {
  DeltaCutStats st;
  st.folded = true;
  const std::uint64_t next_id = (loaded_ ? manifest_.manifest_id : 0) + 1;

  std::error_code ec;
  fs::create_directories(ckpt_dir(dir_), ec);

  // FREEZE: the frontier lands inside the exclusive section, so the image
  // contains exactly the records it fences.
  WalFence fence;
  std::vector<std::size_t> fence_bytes;
  std::uint64_t cut_seq = 0;
  util::WallTimer freeze;
  const std::uint64_t epoch = store_.begin_checkpoint([&] {
    fence = wal_.frontier(&fence_bytes);
    cut_seq = store_.last_commit_seq();
  });
  st.freeze_s = freeze.seconds();
  st.cut_seq = cut_seq;

  // WRITE + PUBLISH + REBASE. Any failure (an injected crash included)
  // must release the freeze so a surviving store stops paying the COW tax.
  try {
    const std::string base = base_path(dir_, next_id);
    save_snapshot_frozen(store_, base, fence);
    const auto sz = fs::file_size(base, ec);
    if (!ec) st.base_bytes = static_cast<std::size_t>(sz);

    DeltaManifest next;
    next.manifest_id = next_id;
    next.base_kind = BaseKind::kCheckpointBase;
    next.base_id = next_id;
    next.last_cut_seq = cut_seq;
    next.fence = fence;
    write_manifest(dir_, next);
    manifest_ = std::move(next);
    loaded_ = true;
    publish_stats_locked(manifest_);
    folds_.fetch_add(1, std::memory_order_relaxed);

    fault_point("compact:pre-rebase");
    util::WallTimer rebase;
    wal_.rebase_to(fence, fence_bytes);
    st.rebase_s = rebase.seconds();
  } catch (...) {
    store_.end_checkpoint();
    throw;
  }
  st.cow_copies = store_.checkpoint_cow_copies();
  st.mutations_during = store_.mutation_epoch() - epoch;
  store_.end_checkpoint();

  // Superseded state: older bases, every segment (the chain is empty),
  // and the stale snapshot.bin the chain no longer reads. Failures here
  // leave only unreferenced garbage.
  fault_point("compact:pre-prune");
  prune_ckpt_files(dir_, manifest_);
  fs::remove(snapshot_path(dir_), ec);
  return st;
}

std::unique_ptr<core::SmartStore> DeltaEngine::reconstruct_at_last_cut(
    std::uint64_t* seq_out) {
  const util::MutexLock lock(mu_);
  // The engine is the directory's only checkpoint writer, so its cached
  // manifest is exactly what is on disk.
  if (!ensure_manifest_locked())
    throw PersistError("no checkpoint to reconstruct in " + dir_,
                       PersistError::Code::kNotFound);
  std::unique_ptr<core::SmartStore> store =
      load_delta_base(dir_, manifest_, nullptr);
  if (seq_out) *seq_out = manifest_.last_cut_seq;
  return store;
}

}  // namespace smartstore::persist
