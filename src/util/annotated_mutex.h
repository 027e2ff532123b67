// Capability-annotated, rank-carrying mutex wrappers.
//
// Every lock in the store goes through these types so that both halves of
// the lock-discipline machinery see every acquisition:
//   * Clang TSA (util/thread_annotations.h) — the classes are CAPABILITYs
//     and the RAII guards SCOPED_CAPABILITYs, so `-Wthread-safety` proves
//     GUARDED_BY/REQUIRES contracts at compile time;
//   * the runtime LockOrderValidator (util/lock_rank.h) — each mutex is
//     constructed with its LockRank and reports acquire/release, so debug
//     builds enforce the global acquisition order TSA cannot express.
//
// The wrappers add one int to each mutex and (in release builds) zero code:
// lock()/unlock() inline to the std:: calls plus empty validator hooks.
#pragma once

#include <mutex>
#include <shared_mutex>

#include "util/lock_rank.h"
#include "util/thread_annotations.h"

namespace smartstore::util {

/// std::mutex with a rank and TSA capability identity.
class SS_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank = LockRank::kLeaf) noexcept : rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SS_ACQUIRE() {
    LockOrderValidator::on_acquire(this, rank_);
    mu_.lock();
  }
  void unlock() SS_RELEASE() {
    mu_.unlock();
    LockOrderValidator::on_release(this, rank_);
  }
  bool try_lock() SS_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    LockOrderValidator::on_acquire(this, rank_);
    return true;
  }

  LockRank rank() const noexcept { return rank_; }

  /// Runtime stand-in for a REQUIRES the type system cannot carry (e.g. a
  /// mutex picked by hash). Aborts in validator builds if the calling
  /// thread does not hold this (non-leaf) mutex; no-op otherwise.
  void assert_held() const SS_ASSERT_CAPABILITY(this) {
#ifdef SMARTSTORE_LOCK_RANK_ACTIVE
    if (rank_ != LockRank::kLeaf && !LockOrderValidator::holds(this)) {
      std::fprintf(stderr, "lock-rank violation: assert_held(%s) failed\n",
                   lock_rank_name(rank_));
      std::abort();
    }
#endif
  }

 private:
  std::mutex mu_;
  const LockRank rank_;
};

/// std::shared_mutex with a rank and TSA capability identity. Shared
/// acquisitions participate in rank ordering exactly like exclusive ones
/// (a reader holding the shape lock still takes unit locks below it); the
/// validator also records which holds are shared, so assert_held() can
/// demand an exclusive one.
class SS_CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(LockRank rank = LockRank::kLeaf) noexcept
      : rank_(rank) {}

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() SS_ACQUIRE() {
    LockOrderValidator::on_acquire(this, rank_);
    mu_.lock();
  }
  void unlock() SS_RELEASE() {
    mu_.unlock();
    LockOrderValidator::on_release(this, rank_);
  }
  void lock_shared() SS_ACQUIRE_SHARED() {
    LockOrderValidator::on_acquire(this, rank_, /*shared=*/true);
    mu_.lock_shared();
  }
  void unlock_shared() SS_RELEASE_SHARED() {
    mu_.unlock_shared();
    LockOrderValidator::on_release(this, rank_);
  }

  LockRank rank() const noexcept { return rank_; }

  /// Mutex::assert_held for the exclusive side: aborts in validator builds
  /// unless the calling thread holds this (non-leaf) mutex exclusively — a
  /// reader hold is not enough to mutate what it guards.
  void assert_held() const SS_ASSERT_CAPABILITY(this) {
#ifdef SMARTSTORE_LOCK_RANK_ACTIVE
    if (rank_ != LockRank::kLeaf &&
        !LockOrderValidator::holds_exclusive(this)) {
      std::fprintf(stderr, "lock-rank violation: assert_held(%s) failed\n",
                   lock_rank_name(rank_));
      std::abort();
    }
#endif
  }

 private:
  std::shared_mutex mu_;
  const LockRank rank_;
};

/// std::lock_guard equivalent, plus an adopt form for the try-lock idiom:
///   if (mu.try_lock()) { MutexLock lock(mu, std::adopt_lock); ... }
class SS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SS_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  MutexLock(Mutex& mu, std::adopt_lock_t) SS_REQUIRES(mu) : mu_(mu) {}
  ~MutexLock() SS_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// std::unique_lock equivalent: re-lockable, so it can sit under
/// std::condition_variable_any — the wait path's unlock()/lock() round
/// trips go through the wrapper and keep the validator stack consistent.
class SS_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mu) SS_ACQUIRE(mu) : mu_(mu), owned_(true) {
    mu_.lock();
  }
  ~UniqueLock() SS_RELEASE() {
    if (owned_) mu_.unlock();
  }

  void lock() SS_ACQUIRE() {
    mu_.lock();
    owned_ = true;
  }
  void unlock() SS_RELEASE() {
    mu_.unlock();
    owned_ = false;
  }
  bool owns_lock() const noexcept { return owned_; }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

 private:
  Mutex& mu_;
  bool owned_;
};

/// std::shared_lock equivalent over SharedMutex.
class SS_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) SS_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~ReaderLock() SS_RELEASE() { mu_.unlock_shared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Exclusive scoped lock over SharedMutex.
class SS_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) SS_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~WriterLock() SS_RELEASE() { mu_.unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

}  // namespace smartstore::util
