#include "exec/health.h"

#include <algorithm>

#include "common/check.h"
#include "common/metrics.h"

namespace parqo {
namespace {

constexpr int kClosed = static_cast<int>(BreakerState::kClosed);
constexpr int kOpen = static_cast<int>(BreakerState::kOpen);
constexpr int kHalfOpen = static_cast<int>(BreakerState::kHalfOpen);

}  // namespace

NodeHealthRegistry::NodeHealthRegistry(int num_nodes, HealthConfig config)
    : config_(config), nodes_(num_nodes) {
  PARQO_CHECK(num_nodes > 0);
  PARQO_CHECK(config_.failure_threshold > 0);
}

bool NodeHealthRegistry::AllowRoute(int node) {
  PARQO_CHECK(node >= 0 && node < num_nodes());
  NodeHealth& n = nodes_[node];
  int s = n.state.load(std::memory_order_relaxed);
  if (s == kClosed) return true;
  if (s == kOpen) {
    double opened = n.opened_at.load(std::memory_order_relaxed);
    if (clock_.ElapsedSeconds() - opened >= config_.cooldown_seconds) {
      int expected = kOpen;
      if (n.state.compare_exchange_strong(expected, kHalfOpen,
                                          std::memory_order_relaxed)) {
        // This caller won the single half-open probe slot; its session
        // routes to the node and its outcome decides close-or-reopen.
        probes_started_.fetch_add(1, std::memory_order_relaxed);
        if (MetricsEnabled()) {
          MetricsRegistry::Global()
              .counter("server.health.probes")
              .Add(1);
        }
        return true;
      }
    }
  }
  // Open inside cooldown, or half-open with the probe claimed elsewhere.
  routes_denied_.fetch_add(1, std::memory_order_relaxed);
  if (MetricsEnabled()) {
    MetricsRegistry::Global()
        .counter("server.health.routes_denied")
        .Add(1);
  }
  return false;
}

void NodeHealthRegistry::Open(NodeHealth& n) {
  int s = n.state.load(std::memory_order_relaxed);
  for (;;) {
    if (s == kOpen) return;  // already open; keep the older opened_at
    if (n.state.compare_exchange_weak(s, kOpen,
                                      std::memory_order_relaxed)) {
      break;
    }
  }
  n.opened_at.store(clock_.ElapsedSeconds(), std::memory_order_relaxed);
  breaker_opens_.fetch_add(1, std::memory_order_relaxed);
  if (MetricsEnabled()) {
    MetricsRegistry::Global()
        .counter("server.health.breaker_opens")
        .Add(1);
  }
}

void NodeHealthRegistry::Close(NodeHealth& n) {
  int expected = kHalfOpen;
  if (!n.state.compare_exchange_strong(expected, kClosed,
                                       std::memory_order_relaxed)) {
    return;
  }
  breaker_closes_.fetch_add(1, std::memory_order_relaxed);
  if (MetricsEnabled()) {
    MetricsRegistry::Global()
        .counter("server.health.breaker_closes")
        .Add(1);
  }
}

void NodeHealthRegistry::RecordNodeFailure(int node) {
  PARQO_CHECK(node >= 0 && node < num_nodes());
  NodeHealth& n = nodes_[node];
  int failures =
      n.consecutive_failures.fetch_add(1, std::memory_order_relaxed) + 1;
  if (MetricsEnabled()) {
    MetricsRegistry::Global()
        .counter("server.health.node_failures")
        .Add(1);
  }
  int s = n.state.load(std::memory_order_relaxed);
  if (s == kHalfOpen) {
    // The probe failed: straight back to open, cooldown restarts.
    Open(n);
    return;
  }
  if (s == kClosed && failures >= config_.failure_threshold) Open(n);
}

void NodeHealthRegistry::RecordNodeSuccess(int node) {
  PARQO_CHECK(node >= 0 && node < num_nodes());
  NodeHealth& n = nodes_[node];
  n.consecutive_failures.store(0, std::memory_order_relaxed);
  if (n.state.load(std::memory_order_relaxed) == kHalfOpen) Close(n);
}

void NodeHealthRegistry::RecordSession(const ExecMetrics& m) {
  // Per-node feedback. Mid-query failures were already reported by the
  // executor's RecordNodeFailure the moment each probe failed, so the
  // session pass only records successes: nodes that did work and never
  // failed this session.
  int n = std::min(num_nodes(), static_cast<int>(m.node_ops.size()));
  for (int i = 0; i < n; ++i) {
    std::uint64_t failures =
        i < static_cast<int>(m.node_failures.size()) ? m.node_failures[i]
                                                     : 0;
    if (m.node_ops[i] == 0 || failures > 0) continue;
    RecordNodeSuccess(i);
  }
}

}  // namespace parqo
