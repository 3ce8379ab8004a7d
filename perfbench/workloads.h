// The benchmark's three workloads. Each sets itself up (several times,
// so set-up time is a median), drives a closed loop of requests through
// the library's public calls for a fixed wall-clock window, then checks
// every output outside that window against an independent reference.
//
//   serve-hot       ParseSparql -> QueryServer::Serve, 4 clients
//   paper-queries   ParseSparql -> PreparedQuery -> Optimize -> Executor
//   optimize-large  PreparedQuery -> Optimize (4 enumeration workers)

#ifndef PARQO_PERFBENCH_WORKLOADS_H_
#define PARQO_PERFBENCH_WORKLOADS_H_

#include <atomic>
#include <limits>
#include <map>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "perfbench/helpers.h"

namespace parqo::perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// What one workload run measured. Latencies, set-up and plan costs feed
/// the end-to-end metrics; `layers` holds the per-layer metrics a traced
/// run fills in.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< Refused, errored or wrong-result requests.
  /// One per request, in no particular order.
  struct Request {
    std::int64_t end_ns = 0;  ///< NowNs() when the client had its result.
    double latency = 0;       ///< Seconds; +infinity for a failed request.
    /// Seconds the client then spent checking the output before sending
    /// its next request (excluded from throughput).
    double check = 0;
    int group = 0;  ///< Index into `groups`: the request's input class.
  };
  std::vector<Request> requests;
  /// Input classes (template, query, shape) for per-class latencies.
  std::vector<std::string> groups;
  int clients = 1;
  /// The timed window: NowNs() at its start and the closed loop's wall
  /// time until the last request completed.
  std::int64_t window_start_ns = 0;
  double window_seconds = 0;
  double peak_rss_mb = 0;      ///< Sampled when the window closes.
  double check_seconds = 0;    ///< Wall time of the post-window checks.
  std::vector<double> setup_seconds;  ///< One total per set-up repetition.
  /// Table I cost of the plan chosen for each distinct input.
  std::vector<double> plan_costs;
  MetricSheet layers;
  std::vector<Span> spans;
  /// (name, value) pairs describing the data and input scale.
  std::vector<std::pair<std::string, std::string>> scales;
  std::vector<std::string> problems;  ///< Failed checks, human-readable.
};

Outcome RunServeHot(const RunOptions& options);
Outcome RunPaperQueries(const RunOptions& options);
Outcome RunOptimizeLarge(const RunOptions& options);

/// Runs `request(client, seq)` from `clients` threads in a closed loop:
/// each client sends its next request (global sequence number `seq`) as
/// soon as its previous one returns, until `seconds` have passed since
/// the start. Returns the wall time from start to the last completion.
template <typename Fn>
double ClosedLoop(int clients, double seconds, Fn&& request) {
  std::atomic<std::uint64_t> next{0};
  const std::int64_t start = NowNs();
  const std::int64_t stop = start + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (NowNs() < stop) request(c, next.fetch_add(1));
    });
  }
  for (std::thread& t : threads) t.join();
  return static_cast<double>(NowNs() - start) * 1e-9;
}

/// Runs fn(i) for i in [0, n) on `threads` threads (outside any timed
/// window: reference computation and output checks).
template <typename Fn>
void ParallelChecks(std::size_t n, int threads, Fn&& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        fn(i);
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

/// Execution-layer counters summed over requests, reported per request.
struct ExecTotals {
  std::uint64_t executed = 0;
  double execute_seconds = 0;
  double rows_scanned = 0, rows_transferred = 0, distributed_joins = 0;
  double result_rows = 0, merge_joins = 0, bytes_shipped = 0;
  double node_busy_seconds = 0;
  double skew_sum = 0;  ///< Sum of per-request max/mean node busy time.
  std::uint64_t skew_samples = 0;

  void Add(const ExecMetrics& m, double execute_s);
  /// Sets the exec.* metrics; `workers` is the threads that could run a
  /// request's node work at once (for exec.node_utilization).
  void Report(MetricSheet& sheet, int workers) const;
};

/// Optimizer counters summed over the requests that optimized.
struct OptimizerTotals {
  std::uint64_t optimized = 0;
  double optimize_seconds = 0;
  double enumerated = 0, memo_hits = 0, memo_misses = 0;
  double busy_seconds = 0, worker_seconds = 0;
  std::uint64_t aborts = 0;

  void Add(const OptimizeResult& r);
  void Report(MetricSheet& sheet) const;
};

/// Every per-layer metric, zero-filled, so each traced run prints the
/// same names whatever layers its workload touches.
void DeclareLayerMetrics(MetricSheet& sheet);

/// Bytes of compressed index per stored triple across `clusters`.
double BytesPerTriple(const std::vector<const Cluster*>& clusters);

}  // namespace parqo::perfbench

#endif  // PARQO_PERFBENCH_WORKLOADS_H_
