#include "persist/bg_checkpoint.h"

namespace smartstore::persist {

BackgroundCheckpointer::BackgroundCheckpointer(DeltaEngine& engine,
                                               util::ThreadPool& pool,
                                               std::size_t max_chain_len,
                                               std::uint64_t max_chain_bytes)
    : engine_(engine),
      pool_(pool),
      max_chain_len_(max_chain_len),
      max_chain_bytes_(max_chain_bytes) {}

BackgroundCheckpointer::~BackgroundCheckpointer() {
  if (inflight_.valid()) {
    try {
      inflight_.get();
    } catch (...) {
      // Destruction cannot surface the failure; the next Open sees a
      // state every crash window of the cut/fold protocol keeps
      // consistent.
    }
  }
}

bool BackgroundCheckpointer::over_budget() const {
  const std::uint64_t len = engine_.chain_len();
  const std::uint64_t bytes = engine_.chain_bytes();
  return (max_chain_len_ > 0 && len > max_chain_len_) ||
         (max_chain_bytes_ > 0 && bytes > max_chain_bytes_);
}

void BackgroundCheckpointer::record(const DeltaCutStats& st) {
  stats_ = st;
  ++completed_;
  total_mutations_ += st.mutations_during;
  total_cow_ += st.cow_copies;
}

bool BackgroundCheckpointer::submit(std::function<void()> job) {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel))
    return false;
  // From here until the worker owns it, any exit path must release
  // running_ — a stuck flag would disable checkpointing forever while the
  // WAL grows unboundedly.
  struct ClearRunning {
    std::atomic<bool>& flag;
    bool armed = true;
    ~ClearRunning() {
      if (armed) flag.store(false, std::memory_order_release);
    }
  } caller_guard{running_};

  // A finished-but-unobserved predecessor must not be overwritten silently:
  // surface its failure here rather than discarding the exception with the
  // old future.
  if (inflight_.valid()) inflight_.get();

  inflight_ = pool_.submit([this, job = std::move(job)] {
    ClearRunning worker_guard{running_};
    job();
  });
  caller_guard.armed = false;  // the worker's guard owns the flag now
  return true;
}

bool BackgroundCheckpointer::trigger() {
  return submit([this] {
    record(engine_.cut());
    if (over_budget()) {
      ++folds_scheduled_;
      record(engine_.fold());
    }
  });
}

DeltaCutStats BackgroundCheckpointer::checkpoint() {
  wait();
  const DeltaCutStats st = engine_.cut();
  record(st);
  if (over_budget() && submit([this] { record(engine_.fold()); }))
    ++folds_scheduled_;
  return st;
}

DeltaCutStats BackgroundCheckpointer::compact() {
  wait();
  const DeltaCutStats st = engine_.fold();
  record(st);
  return st;
}

bool BackgroundCheckpointer::wait() {
  if (!inflight_.valid()) return false;
  inflight_.get();  // rethrows the worker's failure
  return true;
}

}  // namespace smartstore::persist
