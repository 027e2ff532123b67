// The one background slot for checkpoint work over a DeltaEngine.
//
// Every checkpoint is a delta cut or a fold (persist/delta_checkpoint.h);
// this class decides only WHERE each runs and keeps at most one job in
// flight on the pool:
//
//   * trigger() — the cadence action: a cut in the slot, followed in the
//     same job by a fold when the chain is past its budget;
//   * checkpoint() — an explicit cut on the caller's thread, returning
//     once the cut is published; a fold the budget then calls for is
//     scheduled into the slot;
//   * compact() — an explicit fold on the caller's thread.
//
// The explicit calls drain the slot first (rethrowing its failure), and
// the engine's own mutex serializes a slot fold against any later cut,
// so no two publish steps ever interleave.
//
// Threading contract: trigger/checkpoint/compact/wait must not race each
// other (the db facade serializes them under its checkpoint mutex — two
// threads get()ing one std::future is a data race). The stats accessors
// read plain fields: read them after wait().
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>

#include "persist/delta_checkpoint.h"
#include "util/thread_pool.h"

namespace smartstore::persist {

class BackgroundCheckpointer {
 public:
  /// A fold is due when the chain exceeds `max_chain_len` cuts OR
  /// `max_chain_bytes` delta bytes (0 disables that trigger; both 0
  /// disables budget folds entirely — compact() still works). `engine`
  /// and `pool` must outlive this object.
  BackgroundCheckpointer(DeltaEngine& engine, util::ThreadPool& pool,
                         std::size_t max_chain_len,
                         std::uint64_t max_chain_bytes);

  /// Waits for the in-flight job (swallowing its error — use wait() to
  /// observe failures before destruction).
  ~BackgroundCheckpointer();

  BackgroundCheckpointer(const BackgroundCheckpointer&) = delete;
  BackgroundCheckpointer& operator=(const BackgroundCheckpointer&) = delete;

  /// Starts a cut (plus a budget fold) in the slot. Returns false (and
  /// does nothing) when a job is already in flight.
  bool trigger();

  /// Cuts on the caller's thread after draining the slot; schedules a
  /// fold into the slot when the chain is now over budget.
  DeltaCutStats checkpoint();

  /// Folds on the caller's thread after draining the slot.
  DeltaCutStats compact();

  /// Blocks until the in-flight job (if any) finishes; rethrows its
  /// failure. Returns true when a job actually ran.
  bool wait();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Stats of the last cut or fold that completed.
  const DeltaCutStats& last_stats() const { return stats_; }
  /// Cuts and folds completed through this object (no-op cuts included).
  std::uint64_t completed() const { return completed_; }
  /// Accumulated over every fold (the cuts never freeze).
  std::uint64_t total_mutations_during() const { return total_mutations_; }
  std::uint64_t total_cow_copies() const { return total_cow_; }
  /// Folds the budget sent to the slot.
  std::uint64_t folds_scheduled() const { return folds_scheduled_; }

 private:
  bool over_budget() const;
  void record(const DeltaCutStats& st);
  /// Single-flight submit: false when a job is already in flight.
  bool submit(std::function<void()> job);

  DeltaEngine& engine_;
  util::ThreadPool& pool_;
  std::size_t max_chain_len_;
  std::uint64_t max_chain_bytes_;

  std::atomic<bool> running_{false};
  std::future<void> inflight_;
  DeltaCutStats stats_;
  std::uint64_t completed_ = 0;
  std::uint64_t total_mutations_ = 0;
  std::uint64_t total_cow_ = 0;
  std::uint64_t folds_scheduled_ = 0;
};

}  // namespace smartstore::persist
