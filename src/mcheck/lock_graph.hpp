// Whole-run lock-order graph: lockdep-style potential-deadlock detection.
//
// Installed as the process SyncObserver (CRICKET_LOCKCHECK=1 or
// programmatically), LockGraph watches every sim::Mutex acquire/release and
// CondVar re-acquire and accumulates *held-before* edges between lock
// classes: an edge A -> B means some thread acquired a B-class mutex while
// holding an A-class mutex. A cycle in that graph is a potential deadlock —
// two call paths that order the same lock classes differently — and is
// reported even if no run ever actually deadlocked, which is the whole
// point: TSan only sees interleavings that happened; the graph covers every
// ordering the test suite ever exhibited, in aggregate.
//
// Lock classes: a mutex's identity is its construction site
// (sim::Mutex::birth), so all instances of `ByteQueue::mu_` form one
// class no matter how many pipes a test creates. Class identity is a
// plain "file:line" string, which makes per-process edge dumps mergeable
// across the whole suite (tools/lock_graph.py). Same-instance recursive
// lock attempts — a guaranteed self-deadlock — are counted and reported
// separately and immediately.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/annotations.hpp"

namespace cricket::mcheck {

class LockGraph : public sim::SyncObserver {
 public:
  struct Edge {
    std::string from;       // held lock class ("file:line" of its birth)
    std::string to;         // acquired lock class
    std::string from_site;  // sample acquisition site of the held lock
    std::string to_site;    // sample acquisition site of the inner lock
    std::uint64_t count = 0;
  };
  /// One strongly connected component with >1 node (or a self-edge): the
  /// lock classes involved and the edges that close the cycle.
  struct Cycle {
    std::vector<std::string> nodes;
    std::vector<Edge> edges;
  };

  LockGraph() = default;
  ~LockGraph() override;

  /// Replaces the process sync observer with this graph (remembering the
  /// previous observer for uninstall). Install only at quiescent points.
  void install();
  void uninstall();
  [[nodiscard]] bool installed() const noexcept { return installed_; }

  [[nodiscard]] std::vector<Edge> edges() const;
  [[nodiscard]] std::vector<Cycle> cycles() const;
  /// Recursive same-instance lock attempts observed (immediate deadlock).
  [[nodiscard]] std::uint64_t self_deadlocks() const;

  /// Human-readable cycle report ("" when the graph is acyclic).
  [[nodiscard]] std::string report() const;
  /// Writes {"edges": [...], "self_deadlocks": N} for tools/lock_graph.py.
  bool dump_json(const std::string& path) const;

  /// CRICKET_LOCKCHECK=1: constructs + installs a process-lifetime graph
  /// (leaked deliberately: hooks may still fire during static teardown) and
  /// returns it; nullptr when the env does not ask for lock checking.
  static LockGraph* install_from_env();
  /// End-of-process bookkeeping for the env-installed graph: dumps the edge
  /// set to $CRICKET_LOCKCHECK_DIR/lockgraph-<pid>.json when that directory
  /// is configured, prints the cycle report to stderr, and returns the
  /// number of cycles (callers exit nonzero on >0).
  [[nodiscard]] int finalize(std::ostream& err) const;

  // SyncObserver taps. Public only because the wrappers invoke them.
  void lock_pending(sim::Mutex& mu, const std::source_location& loc) override;
  void lock_acquired(sim::Mutex& mu, const std::source_location& loc) override;
  void try_lock_result(sim::Mutex& mu, bool acquired,
                       const std::source_location& loc) override;
  void unlocked(sim::Mutex& mu, const std::source_location& loc) override;
  void cv_wait_begin(sim::CondVar& cv, sim::Mutex& mu,
                     const std::source_location& loc) override;
  void cv_wait_done(sim::CondVar& cv, sim::Mutex& mu,
                    const std::source_location& loc) override;

 private:
  struct EdgeData {
    std::uint64_t count = 0;
    std::string from_site;
    std::string to_site;
  };

  int intern_locked(const std::string& name);
  void record_acquire(sim::Mutex& mu, const std::source_location& loc);
  void record_release(sim::Mutex& mu);

  // The graph's own state is guarded by a plain std::mutex: the observer
  // must never recurse into the instrumented sim::Mutex while recording.
  mutable std::mutex mu_;
  std::map<std::string, int> node_ids_;
  std::vector<std::string> node_names_;
  std::map<std::pair<int, int>, EdgeData> edges_;
  std::uint64_t self_deadlocks_ = 0;
  std::vector<std::string> self_deadlock_sites_;

  sim::SyncObserver* previous_ = nullptr;
  bool installed_ = false;
};

}  // namespace cricket::mcheck
