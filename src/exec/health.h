// Cross-query node health: failure counting and per-node circuit
// breakers (DESIGN.md section 16).
//
// PR 4's recovery layer is per-query: every session independently pays
// the full detect-crash / re-home / retry cycle against the same sick
// node, and concurrent sessions amplify each other into retry storms.
// The NodeHealthRegistry is the piece of state that REMEMBERS: the
// server feeds it every session's ExecMetrics, it tracks per-node
// consecutive-failure counts, and it drives one circuit breaker per
// simulated node:
//
//       closed ── failure_threshold consecutive failures ──> open
//       open ── cooldown elapsed, first router claims probe ──> half-open
//       half-open ── probe session succeeds on the node ──> closed
//       half-open ── probe session fails on the node ──> open (again)
//
// The executor consults the registry BEFORE dispatch (AllowRoute): open
// nodes are quarantined — their partitions are pre-emptively re-homed to
// survivors, so the session never discovers the crash mid-scan.
//
// Concurrency: lock-free — atomic per-node state, breaker transitions by
// CAS. Routing and every feedback call touch only atomics, so the
// executor may call them mid-query from its workers.

#ifndef PARQO_EXEC_HEALTH_H_
#define PARQO_EXEC_HEALTH_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/stopwatch.h"
#include "exec/executor.h"

namespace parqo {

/// Breaker knobs. Defaults suit the simulated cluster's sub-millisecond
/// operators; tests shrink/grow cooldown_seconds to pin transitions.
struct HealthConfig {
  /// Consecutive failures that trip a breaker closed -> open.
  int failure_threshold = 3;
  /// Seconds an open breaker waits before offering a half-open probe.
  double cooldown_seconds = 0.5;
};

enum class BreakerState : int { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

class NodeHealthRegistry {
 public:
  explicit NodeHealthRegistry(int num_nodes,
                              HealthConfig config = HealthConfig());

  NodeHealthRegistry(const NodeHealthRegistry&) = delete;
  NodeHealthRegistry& operator=(const NodeHealthRegistry&) = delete;

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const HealthConfig& config() const { return config_; }

  // -- Executor-facing routing (lock-free) -----------------------------

  /// Routing decision for one session's dispatch. Closed breaker: route.
  /// Open breaker inside cooldown: avoid (quarantine). Open breaker past
  /// cooldown: exactly one caller wins the CAS to half-open and routes
  /// (the probe); everyone else keeps avoiding until the probe's outcome
  /// is recorded. NOT idempotent — introspection should use state().
  bool AllowRoute(int node);

  // -- Feedback --------------------------------------------------------

  /// Feeds one finished session's metrics: success bookkeeping for every
  /// node that did work without failing (success on a probed half-open
  /// node closes its breaker). Call after EVERY session, failed or not.
  void RecordSession(const ExecMetrics& m);

  /// One mid-query crash detection on `node` (executor calls this the
  /// moment a probe fails, so a breaker can trip within a single
  /// session's retry loop rather than one session per failure).
  void RecordNodeFailure(int node);

  /// One successful observation on `node`: resets its consecutive
  /// failures and closes a half-open breaker.
  void RecordNodeSuccess(int node);

  // -- Introspection (tests, bench, metrics) ---------------------------

  BreakerState state(int node) const {
    return static_cast<BreakerState>(
        nodes_[node].state.load(std::memory_order_relaxed));
  }
  int consecutive_failures(int node) const {
    return nodes_[node].consecutive_failures.load(
        std::memory_order_relaxed);
  }
  std::uint64_t breaker_opens() const {
    return breaker_opens_.load(std::memory_order_relaxed);
  }
  std::uint64_t breaker_closes() const {
    return breaker_closes_.load(std::memory_order_relaxed);
  }
  std::uint64_t probes_started() const {
    return probes_started_.load(std::memory_order_relaxed);
  }
  std::uint64_t routes_denied() const {
    return routes_denied_.load(std::memory_order_relaxed);
  }

 private:
  struct NodeHealth {
    std::atomic<int> state{static_cast<int>(BreakerState::kClosed)};
    std::atomic<int> consecutive_failures{0};
    /// Stopwatch-relative time the breaker last opened.
    std::atomic<double> opened_at{0};
  };

  void Open(NodeHealth& n);
  void Close(NodeHealth& n);

  const HealthConfig config_;
  /// Steady clock for breaker cooldowns; immutable after construction.
  Stopwatch clock_;
  /// Elements are atomics; the vector's shape is fixed at construction.
  std::vector<NodeHealth> nodes_;

  std::atomic<std::uint64_t> breaker_opens_{0};
  std::atomic<std::uint64_t> breaker_closes_{0};
  std::atomic<std::uint64_t> probes_started_{0};
  std::atomic<std::uint64_t> routes_denied_{0};
};

}  // namespace parqo

#endif  // PARQO_EXEC_HEALTH_H_
