// Clang Thread Safety Analysis vocabulary for the whole codebase — plus the
// runtime sync-observer seam the mcheck tooling hangs off.
//
// Every lock-holding class declares which mutex guards which fields
// (CRICKET_GUARDED_BY) and which lock a method needs or must not hold
// (CRICKET_REQUIRES / CRICKET_EXCLUDES); building with -DCRICKET_ANALYZE=ON
// under Clang turns those contracts into compile errors
// (-Werror=thread-safety). The std synchronization types carry no
// annotations, so this header also provides drop-in annotated wrappers:
// Mutex over std::mutex, MutexLock over std::lock_guard (with the
// unlock/relock escape std::unique_lock offers), and CondVar over
// std::condition_variable, waiting directly on a held Mutex at zero extra
// cost (adopt/release, no second mutex). Under GCC — which has no
// thread-safety analysis — every macro expands to nothing and the wrappers
// compile to the std types they wrap.
//
// SyncObserver: every wrapper operation (acquire, release, try-acquire,
// condvar wait/notify) consults a process-global observer pointer. With no
// observer installed — the default — each operation pays one relaxed atomic
// load and a predicted-not-taken branch, nothing else. Two tools install
// observers (src/mcheck):
//   * LockGraph (CRICKET_LOCKCHECK=1) records held-before edges between
//     lock classes and reports potential-deadlock cycles at exit, even when
//     no deadlock ever manifested in the run.
//   * Explorer replaces blocking with a cooperative scheduler and
//     systematically enumerates interleavings of small model tests.
// Each Mutex/CondVar remembers its construction site, so diagnostics speak
// in terms of lock *classes* ("the ByteQueue mu_ declared at
// transport.hpp:95") that are stable across processes — the identity the
// suite-wide lock-order graph merges on.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <source_location>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define CRICKET_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef CRICKET_THREAD_ANNOTATION
#define CRICKET_THREAD_ANNOTATION(x)  // no-op outside Clang TSA
#endif

/// Declares a class to be a lockable capability ("mutex").
#define CRICKET_CAPABILITY(x) CRICKET_THREAD_ANNOTATION(capability(x))
/// Declares an RAII class that acquires on construction, releases on
/// destruction.
#define CRICKET_SCOPED_CAPABILITY CRICKET_THREAD_ANNOTATION(scoped_lockable)
/// Field may only be touched while holding the given mutex.
#define CRICKET_GUARDED_BY(x) CRICKET_THREAD_ANNOTATION(guarded_by(x))
/// Pointee may only be touched while holding the given mutex.
#define CRICKET_PT_GUARDED_BY(x) CRICKET_THREAD_ANNOTATION(pt_guarded_by(x))
/// Caller must already hold the given mutex(es).
#define CRICKET_REQUIRES(...) \
  CRICKET_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function acquires the mutex(es) and returns with them held.
#define CRICKET_ACQUIRE(...) \
  CRICKET_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function releases the mutex(es).
#define CRICKET_RELEASE(...) \
  CRICKET_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function acquires the mutex iff it returns the given value.
#define CRICKET_TRY_ACQUIRE(...) \
  CRICKET_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
/// Caller must NOT hold the given mutex(es) (deadlock prevention: the
/// function acquires them itself).
#define CRICKET_EXCLUDES(...) \
  CRICKET_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Runtime assertion that the mutex is held (trusted by the analysis).
#define CRICKET_ASSERT_CAPABILITY(x) \
  CRICKET_THREAD_ANNOTATION(assert_capability(x))
/// Function returns a reference to the given mutex.
#define CRICKET_RETURN_CAPABILITY(x) \
  CRICKET_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch — keep uses justified with a comment; tools/check.sh greps
/// for it so silent suppressions stand out in review.
#define CRICKET_NO_THREAD_SAFETY_ANALYSIS \
  CRICKET_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace cricket::sim {

class Mutex;
class CondVar;

/// Runtime hook over every Mutex/CondVar wrapper operation. The default
/// implementation of every callback does nothing, so an observer overrides
/// only the events it cares about. Hooks run on the thread performing the
/// operation; `loc` is the call site (the acquisition site for locks) and
/// the observed objects expose their construction site via birth().
///
/// Two callback families:
///   * notification hooks (lock_pending/lock_acquired/unlocked/
///     cv_wait_begin/cv_wait_done/cv_notify/sync_point) — pure taps; the
///     wrapper performs the real operation regardless.
///   * takeover hooks (try_lock_pending, cv_wait, cv_wait_timed) — let the
///     observer replace the operation's blocking semantics, which is how
///     the mcheck explorer substitutes its cooperative scheduler for the
///     OS primitives.
class SyncObserver {
 public:
  virtual ~SyncObserver() = default;

  /// About to block in Mutex::lock.
  virtual void lock_pending(Mutex&, const std::source_location&) {}
  /// Mutex::lock / successful try_lock returned; the calling thread now
  /// holds the mutex.
  virtual void lock_acquired(Mutex&, const std::source_location&) {}
  /// Mutex::unlock completed (the mutex is already released when this runs).
  virtual void unlocked(Mutex&, const std::source_location&) {}
  /// Takeover for Mutex::lock, running between lock_pending and
  /// lock_acquired: return true iff the observer acquired the mutex in its
  /// own model and the native mutex must stay untouched. The explorer
  /// returns true for its controlled threads — they are serialized through
  /// its handshake lock, so the native mutex would add nothing but lock
  /// history for TSan to misread as potential deadlock when a model body is
  /// *intentionally* inverted (the mcheck mutants). lock_acquired still
  /// fires afterwards either way.
  virtual bool lock_acquire(Mutex&, const std::source_location&) {
    return false;
  }
  /// Counterpart for Mutex::unlock: return true iff the release is
  /// model-only (the matching acquire never touched the native mutex).
  /// unlocked() still fires afterwards either way.
  virtual bool unlock_release(Mutex&, const std::source_location&) {
    return false;
  }
  /// Takeover for try_lock: return kPassThrough to run the real try_lock,
  /// kRefuse to fail without touching the native mutex, kProceed to go
  /// ahead with the native try_lock (only sound when the observer can
  /// prove the mutex free, so the native call cannot block), or kSucceed
  /// to report success with the native mutex untouched (model-only
  /// ownership, paired with lock_acquire/unlock_release takeovers).
  static constexpr int kPassThrough = -1;
  static constexpr int kRefuse = 0;
  static constexpr int kProceed = 1;
  static constexpr int kSucceed = 2;
  virtual int try_lock_pending(Mutex&, const std::source_location&) {
    return kPassThrough;
  }
  virtual void try_lock_result(Mutex&, bool /*acquired*/,
                               const std::source_location&) {}

  /// Takeover for CondVar::wait: return true iff the observer performed the
  /// whole wait itself (released the mutex, blocked, re-acquired). Returning
  /// false falls through to the real wait bracketed by cv_wait_begin /
  /// cv_wait_done.
  virtual bool cv_wait(CondVar&, Mutex&, const std::source_location&) {
    return false;
  }
  /// Takeover for the timed waits: an engaged result both performs the wait
  /// and dictates its outcome (the explorer branches on wakeup-vs-timeout as
  /// a scheduling decision). Disengaged falls through to the real wait.
  virtual std::optional<std::cv_status> cv_wait_timed(
      CondVar&, Mutex&, const std::source_location&) {
    return std::nullopt;
  }
  /// Brackets around a real (non-taken-over) wait: begin runs just before
  /// the mutex is released, done runs after it has been re-acquired.
  virtual void cv_wait_begin(CondVar&, Mutex&, const std::source_location&) {}
  virtual void cv_wait_done(CondVar&, Mutex&, const std::source_location&) {}
  virtual void cv_notify(CondVar&, bool /*all*/, const std::source_location&) {
  }

  /// Free-standing scheduling point (sim::sync_point): marks a shared-memory
  /// access that is synchronized by something other than a Mutex — seqlock
  /// fields, futures' atomics — so the explorer can preempt there. `tag`
  /// identifies the accessed object (dependency tracking).
  virtual void sync_point(const void* /*tag*/, const std::source_location&) {}

 protected:
  // Observers that take over cv_wait must release/re-acquire the waiter's
  // mutex themselves. These trampolines exist so that code lives outside
  // the TSA-annotated surface legitimately: by the time cv_wait returns,
  // the runtime lock state is exactly what the annotations promised.
  static void observer_unlock(Mutex& mu, const std::source_location& loc);
  static void observer_lock(Mutex& mu, const std::source_location& loc);
};

namespace detail {
inline std::atomic<SyncObserver*> g_sync_observer{nullptr};
}  // namespace detail

/// The installed observer, or nullptr (the fast path). Relaxed load: the
/// installer synchronizes with observed threads externally (observers are
/// installed before the threads under observation start).
inline SyncObserver* sync_observer() noexcept {
  return detail::g_sync_observer.load(std::memory_order_relaxed);
}

/// Installs `observer` (nullptr uninstalls), returning the previous one.
/// Not synchronized against in-flight wrapper operations: swap only at
/// quiescent points (process start, between tests).
inline SyncObserver* set_sync_observer(SyncObserver* observer) noexcept {
  return detail::g_sync_observer.exchange(observer, std::memory_order_acq_rel);
}

/// Scheduling-point marker for lock-free shared accesses (seqlock slots,
/// ring heads). Free when no observer is installed.
inline void sync_point(
    const void* tag = nullptr,
    const std::source_location& loc = std::source_location::current()) {
  if (SyncObserver* o = sync_observer()) o->sync_point(tag, loc);
}

/// std::mutex with a capability annotation the analysis can track. Remembers
/// its construction site: all instances born at one source line form one
/// lock *class*, the node identity of the mcheck lock-order graph (the same
/// classing rule the kernel's lockdep uses).
class CRICKET_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(
      const std::source_location& birth = std::source_location::current())
      : birth_(birth) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock(const std::source_location& loc = std::source_location::current())
      CRICKET_ACQUIRE() {
    if (SyncObserver* o = sync_observer()) {
      o->lock_pending(*this, loc);
      if (!o->lock_acquire(*this, loc)) mu_.lock();
      o->lock_acquired(*this, loc);
      return;
    }
    mu_.lock();
  }

  void unlock(
      const std::source_location& loc = std::source_location::current())
      CRICKET_RELEASE() {
    if (SyncObserver* o = sync_observer()) {
      if (!o->unlock_release(*this, loc)) mu_.unlock();
      o->unlocked(*this, loc);
      return;
    }
    mu_.unlock();
  }

  [[nodiscard]] bool try_lock(
      const std::source_location& loc = std::source_location::current())
      CRICKET_TRY_ACQUIRE(true) {
    if (SyncObserver* o = sync_observer()) {
      const int verdict = o->try_lock_pending(*this, loc);
      if (verdict == SyncObserver::kRefuse) {
        o->try_lock_result(*this, false, loc);
        return false;
      }
      if (verdict == SyncObserver::kSucceed) {
        o->try_lock_result(*this, true, loc);
        return true;
      }
      const bool acquired = mu_.try_lock();
      o->try_lock_result(*this, acquired, loc);
      return acquired;
    }
    return mu_.try_lock();
  }

  /// Where this mutex was constructed (its lock class).
  [[nodiscard]] const std::source_location& birth() const noexcept {
    return birth_;
  }

 private:
  friend class CondVar;
  std::mutex mu_;
  std::source_location birth_;
};

inline void SyncObserver::observer_unlock(Mutex& mu,
                                          const std::source_location& loc)
    CRICKET_NO_THREAD_SAFETY_ANALYSIS {
  mu.unlock(loc);
}
inline void SyncObserver::observer_lock(Mutex& mu,
                                        const std::source_location& loc)
    CRICKET_NO_THREAD_SAFETY_ANALYSIS {
  mu.lock(loc);
}

/// Scoped lock over Mutex (std::lock_guard replacement). unlock()/lock()
/// support the unlock-work-relock pattern of std::unique_lock; the analysis
/// tracks the lock state across them.
class CRICKET_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(
      Mutex& mu,
      const std::source_location& loc = std::source_location::current())
      CRICKET_ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_.lock(loc);
  }
  ~MutexLock() CRICKET_RELEASE() {
    if (held_) mu_.unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void unlock(
      const std::source_location& loc = std::source_location::current())
      CRICKET_RELEASE() {
    mu_.unlock(loc);
    held_ = false;
  }
  void lock(const std::source_location& loc = std::source_location::current())
      CRICKET_ACQUIRE() {
    mu_.lock(loc);
    held_ = true;
  }

 private:
  Mutex& mu_;
  bool held_;
};

/// Condition variable waiting on a held Mutex. Implemented over
/// std::condition_variable by adopting the already-held native mutex for the
/// duration of the wait (no second mutex, no condition_variable_any
/// overhead). Callers re-check their predicate in a while loop, which keeps
/// every guarded-field access inside the annotated critical section.
class CondVar {
 public:
  explicit CondVar(
      const std::source_location& birth = std::source_location::current())
      : birth_(birth) {}
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, waits, re-acquires. Spurious wakeups happen;
  /// loop on the predicate.
  void wait(Mutex& mu,
            const std::source_location& loc = std::source_location::current())
      CRICKET_REQUIRES(mu) {
    if (SyncObserver* o = sync_observer()) {
      if (o->cv_wait(*this, mu, loc)) return;
      o->cv_wait_begin(*this, mu, loc);
      wait_native(mu);
      o->cv_wait_done(*this, mu, loc);
      return;
    }
    wait_native(mu);
  }

  /// wait() with a deadline; returns std::cv_status::timeout once `deadline`
  /// has passed.
  template <typename Clock, typename Duration>
  std::cv_status wait_until(
      Mutex& mu, const std::chrono::time_point<Clock, Duration>& deadline,
      const std::source_location& loc = std::source_location::current())
      CRICKET_REQUIRES(mu) {
    if (SyncObserver* o = sync_observer()) {
      if (const auto forced = o->cv_wait_timed(*this, mu, loc)) return *forced;
      o->cv_wait_begin(*this, mu, loc);
      const std::cv_status status = wait_until_native(mu, deadline);
      o->cv_wait_done(*this, mu, loc);
      return status;
    }
    return wait_until_native(mu, deadline);
  }

  /// wait() bounded by a relative timeout (sugar over wait_until on the
  /// steady clock).
  template <typename Rep, typename Period>
  std::cv_status wait_for(
      Mutex& mu, const std::chrono::duration<Rep, Period>& timeout,
      const std::source_location& loc = std::source_location::current())
      CRICKET_REQUIRES(mu) {
    return wait_until(mu, std::chrono::steady_clock::now() + timeout, loc);
  }

  void notify_one(
      const std::source_location& loc = std::source_location::current()) {
    if (SyncObserver* o = sync_observer()) o->cv_notify(*this, false, loc);
    cv_.notify_one();
  }
  void notify_all(
      const std::source_location& loc = std::source_location::current()) {
    if (SyncObserver* o = sync_observer()) o->cv_notify(*this, true, loc);
    cv_.notify_all();
  }

  /// Where this condition variable was constructed.
  [[nodiscard]] const std::source_location& birth() const noexcept {
    return birth_;
  }

 private:
  void wait_native(Mutex& mu) {
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }
  template <typename Clock, typename Duration>
  std::cv_status wait_until_native(
      Mutex& mu, const std::chrono::time_point<Clock, Duration>& deadline) {
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(native, deadline);
    native.release();
    return status;
  }

  std::condition_variable cv_;
  std::source_location birth_;
};

}  // namespace cricket::sim
