// Sharded write-ahead log: one v03 log per storage unit, so concurrent
// writers stop serializing on a single append/fsync point.
//
// Layout on disk: <deploy dir>/wal/<unit id>.log, each a v03 WalWriter log
// (persist/wal.h) whose records carry a store-wide monotonic sequence
// number. A record for storage unit u is appended to shard u under the
// caller-held unit stripe (core::SmartStore::WalHook), which makes each
// shard's record order equal that unit's in-memory apply order. Each
// mutating call commits every shard it appended to once, after its store
// locks are released, before it acknowledges; shards fsync independently,
// so writers routed to different units overlap their durability waits,
// and writers racing on one shard batch naturally — the first to take the
// shard mutex commits every record appended so far. Recovery
// (persist/recovery.h) scans every shard and replays the merged record
// stream in sequence order — records that cross shards are independent
// (they touch different units), so losing an *unacknowledged* suffix of
// one shard never invalidates an acknowledged record in another.
//
// Structural operations (add/remove unit, autoconfigure) are logged under
// the store's exclusive structure lock through a barrier: every shard is
// committed first, then the structural record lands in shard 0 and is
// committed immediately. No per-unit record logged before the structural
// op can therefore be less durable than the structural record itself, so
// the merged replay order around topology changes is exact.
//
// Checkpoint fencing is per shard: frontier() commits all shards at the
// frozen mutation boundary and returns a WalFence carrying one
// (generation, records) entry per shard (plus byte offsets for the O(tail)
// rebase); rebase_to() drops each shard's fenced prefix under the next
// generation, one shard mutex at a time, concurrent with live appends to
// the other shards. A crash between per-shard rebases leaves some shards
// fenced (generation matches: recovery skips the prefix) and some rebased
// (generation changed: recovery replays the whole tail) — consistent
// either way, shard by shard.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "persist/wal.h"
#include "util/annotated_mutex.h"
#include "util/thread_annotations.h"

namespace smartstore::persist {

class ShardedWal {
 public:
  /// Observer for records that have become COMMITTED (durable) in this
  /// log. Invoked under the owning shard's mutex (rank kWalShard), one
  /// record at a time in that shard's commit order; the callee may take
  /// locks ranked above kWalShard only (the replication buffer uses
  /// kReplBuffer). Every record that consumes a stamp is delivered — data
  /// records (kInsert/kRemove) AND structural records; the consumer maps
  /// structural records (replica-private unit topology) to seq-hole
  /// markers so a seq-ordered stream never waits on a consumed seq.
  using CommitTap = std::function<void(const WalRecord&)>;

  /// Opens (creating if needed) the shard directory under `deploy_dir` and
  /// every existing shard log in it, plus shards [0, num_shards). The
  /// store-wide sequence counter resumes past the largest sequence found.
  ShardedWal(std::string deploy_dir, std::size_t num_shards);

  ShardedWal(const ShardedWal&) = delete;
  ShardedWal& operator=(const ShardedWal&) = delete;

  static std::string shard_dir(const std::string& deploy_dir);
  static std::string shard_path(const std::string& deploy_dir,
                                std::size_t shard);

  /// Parses a shard filename ("<digits>.log") into its shard id; false
  /// for anything else, including all-digit stems too long to be a real
  /// unit id (an unchecked std::stoull would throw out_of_range — not a
  /// PersistError — out of recover()). Shared by the writer's directory
  /// scan and recovery's.
  static bool parse_shard_id(const std::filesystem::path& p,
                             std::uint64_t* id_out);

  // ---- per-unit records (called from the store's WalHook, under that
  // ---- unit's lock) ------------------------------------------------------

  /// Appends under the unit lock (cheap — encode + buffer). Returns the
  /// stamped sequence number: the store adopts it as the mutation's commit
  /// timestamp (MVCC snapshot visibility). The record is durable once a
  /// later commit(shard) — or any barrier below — returns.
  std::uint64_t append_insert(std::size_t shard,
                              const metadata::FileMetadata& f);
  std::uint64_t append_remove(std::size_t shard, const std::string& name);
  /// Seals `shard`'s pending records into one block and fsyncs it; a
  /// no-op when another writer's commit already covered them. Call after
  /// every store lock is released: the fsync stalls only this shard.
  void commit(std::size_t shard);

  /// Replication-apply flavour: appends a record carrying the PRIMARY's
  /// sequence number instead of stamping a fresh one, then raises the
  /// local counter past it. A follower's log thereby stays seq-identical
  /// to the primary's stream, so recovery replay and MVCC visibility on a
  /// promoted follower line up exactly with what clients were acked.
  void append_insert_at(std::size_t shard, const metadata::FileMetadata& f,
                        std::uint64_t seq);
  void append_remove_at(std::size_t shard, const std::string& name,
                        std::uint64_t seq);

  /// Arms (or, with nullptr, disarms) the commit tap. Disarming discards
  /// any tapped-but-uncommitted records. Safe to call concurrently with
  /// appends: the pointer swap is atomic under a leaf lock and each
  /// shard's pending tap queue is guarded by that shard's mutex.
  void set_commit_tap(CommitTap tap);

  // ---- structural records (caller holds the store's exclusive structure
  // ---- lock; all shards are barrier-committed first) ---------------------

  std::uint64_t log_add_unit();
  std::uint64_t log_remove_unit(std::uint64_t unit);
  std::uint64_t log_autoconfigure(
      const std::vector<metadata::AttrSubset>& subsets);

  /// Commits every shard's pending batch (fsync per dirty shard).
  void commit_all();

  /// Commits every shard and returns the sharded fence at that frontier:
  /// one (generation, records) entry per shard, `present` set. When
  /// `bytes_out` is given it receives each shard's committed byte offset,
  /// the hint that makes the later rebase O(tail). Call at a mutation
  /// boundary (the delta engine calls it inside mutation_barrier for a cut
  /// and inside begin_checkpoint's frozen section for a fold).
  WalFence frontier(std::vector<std::size_t>* bytes_out = nullptr);

  /// Drops each shard's fenced prefix under its next generation. Safe to
  /// run concurrently with live appends: each shard swaps under its own
  /// mutex. `bytes` pairs with the fence from frontier() (may be empty —
  /// the slow re-encode path then runs per shard).
  void rebase_to(const WalFence& fence,
                 const std::vector<std::size_t>& bytes = {});

  /// Drops all handles and pending batches without committing — the
  /// in-process stand-in for the process dying (crash-injection tests).
  void abandon();

  std::size_t num_shards() const;
  std::uint64_t committed_records(std::size_t shard) const;
  std::uint64_t pending_records(std::size_t shard) const;
  std::uint64_t generation(std::size_t shard) const;
  /// Next sequence number to be stamped (monotonic across all shards).
  std::uint64_t next_seq() const {
    return next_seq_.load(std::memory_order_relaxed);
  }

  /// Raises the sequence counter so the next stamp is at least `floor`.
  /// Store::Open calls this with last_commit_seq() + 1 after recovery:
  /// rebases drop replayed records, so the directory scan alone can
  /// under-resume the counter and reuse seqs a loaded snapshot already
  /// carries.
  void ensure_seq_at_least(std::uint64_t floor) {
    std::uint64_t cur = next_seq_.load(std::memory_order_relaxed);
    while (cur < floor && !next_seq_.compare_exchange_weak(
                              cur, floor, std::memory_order_relaxed)) {
    }
  }
  const std::string& dir() const { return dir_; }

 private:
  struct Shard {
    explicit Shard(std::unique_ptr<WalWriter> w) : writer(std::move(w)) {}
    /// Guards `writer` (append/commit/swap). kWalShard ranks above every
    /// store lock, so a shard mutex may be taken from under a unit lock or
    /// the freeze mutex — and must never be held while taking either.
    mutable util::Mutex mu{util::LockRank::kWalShard};
    std::unique_ptr<WalWriter> writer SS_GUARDED_BY(mu);
    /// Data records appended while the tap was armed but not yet known
    /// committed. The drain invariant: the first
    /// `tap_pending.size() - writer->pending_records()` entries are
    /// durable and get delivered (works no matter where the commit
    /// happened — commit(shard) or a barrier), because tapped records
    /// commit strictly in append order.
    std::vector<WalRecord> tap_pending SS_GUARDED_BY(mu);
  };

  /// The shard for `i`, created lazily (units admitted at runtime get
  /// their shard on first record). Returned reference is stable.
  Shard& shard(std::size_t i);
  Shard* shard_if_exists(std::size_t i) const;
  std::uint64_t stamp() {
    return next_seq_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t log_structural(const WalRecord& rec);
  /// Stamps (unless `rec.seq` is preset), taps and appends under s.mu.
  std::uint64_t append(std::size_t shard, WalRecord rec);
  /// Copies `rec` into the shard's tap queue iff the tap is armed.
  void tap_append(Shard& s, const WalRecord& rec) SS_REQUIRES(s.mu);
  /// Delivers the committed prefix of the shard's tap queue (see the
  /// tap_pending invariant).
  void drain_tap(Shard& s) SS_REQUIRES(s.mu);
  std::shared_ptr<const CommitTap> tap_snapshot() const;

  std::string deploy_dir_;
  std::string dir_;  ///< <deploy_dir>/wal
  /// Guards the shard vector's SHAPE only; Shard objects themselves are
  /// heap-stable and carry their own mutex (never held together with this
  /// one — shard()/shard_if_exists() release it before returning).
  mutable util::Mutex map_mu_{util::LockRank::kWalShardMap};
  std::vector<std::unique_ptr<Shard>> shards_ SS_GUARDED_BY(map_mu_);
  std::atomic<std::uint64_t> next_seq_{1};
  /// Leaf-ranked: guards only the shared_ptr swap/copy (never held while
  /// invoking the tap), so it may be taken from under any shard mutex.
  mutable util::Mutex tap_mu_{util::LockRank::kLeaf};
  std::shared_ptr<const CommitTap> tap_ SS_GUARDED_BY(tap_mu_);
};

}  // namespace smartstore::persist
