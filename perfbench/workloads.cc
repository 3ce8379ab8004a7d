#include "perfbench/workloads.h"

#include <algorithm>

namespace parqo::perfbench {

void ExecTotals::Add(const ExecMetrics& m, double execute_s) {
  ++executed;
  execute_seconds += execute_s;
  rows_scanned += static_cast<double>(m.rows_scanned);
  rows_transferred += static_cast<double>(m.rows_transferred);
  distributed_joins += static_cast<double>(m.distributed_joins);
  result_rows += static_cast<double>(m.result_rows);
  merge_joins += static_cast<double>(m.merge_joins);
  bytes_shipped += static_cast<double>(m.bytes_shipped);
  double busy = 0, max_busy = 0;
  for (double b : m.node_busy_seconds) {
    busy += b;
    max_busy = std::max(max_busy, b);
  }
  node_busy_seconds += busy;
  if (busy > 0) {
    skew_sum += max_busy / (busy / static_cast<double>(
                                       m.node_busy_seconds.size()));
    ++skew_samples;
  }
}

void ExecTotals::Report(MetricSheet& sheet, int workers) const {
  if (executed == 0) return;
  const double n = static_cast<double>(executed);
  sheet.Set("exec.execute_ms", execute_seconds / n * 1e3, "ms");
  sheet.Set("exec.result_rows_per_s",
            execute_seconds > 0 ? result_rows / execute_seconds : 0, "1/s");
  sheet.Set("exec.rows_scanned", rows_scanned / n, "count");
  sheet.Set("exec.rows_transferred", rows_transferred / n, "count");
  sheet.Set("exec.distributed_joins", distributed_joins / n, "count");
  sheet.Set("exec.result_rows", result_rows / n, "count");
  sheet.Set("exec.merge_joins", merge_joins / n, "count");
  sheet.Set("exec.bytes_shipped_per_query", bytes_shipped / n, "bytes");
  sheet.Set("exec.node_skew",
            skew_samples > 0 ? skew_sum / static_cast<double>(skew_samples)
                             : 0,
            "ratio");
  sheet.Set("exec.node_utilization",
            execute_seconds > 0 ? node_busy_seconds /
                                      (execute_seconds * workers)
                                : 0,
            "ratio");
}

void OptimizerTotals::Add(const OptimizeResult& r) {
  ++optimized;
  optimize_seconds += r.seconds;
  enumerated += static_cast<double>(r.enumerated);
  memo_hits += static_cast<double>(r.memo_hits);
  memo_misses += static_cast<double>(r.memo_misses);
  if (r.workers > 1) {
    busy_seconds += r.busy_seconds;
    worker_seconds += r.seconds * r.workers;
  }
  if (r.timed_out || r.abort_cause != AbortCause::kNone ||
      r.fell_back_to_msc) {
    ++aborts;
  }
}

void OptimizerTotals::Report(MetricSheet& sheet) const {
  if (optimized == 0) return;
  const double n = static_cast<double>(optimized);
  sheet.Set("optimizer.enumerated", enumerated / n, "count");
  sheet.Set("optimizer.memo_hit_rate",
            memo_hits + memo_misses > 0
                ? memo_hits / (memo_hits + memo_misses)
                : 0,
            "ratio");
  sheet.Set("optimizer.worker_utilization",
            worker_seconds > 0 ? busy_seconds / worker_seconds : 0, "ratio");
  sheet.Set("optimizer.aborts", static_cast<double>(aborts), "count");
}

void DeclareLayerMetrics(MetricSheet& sheet) {
  const std::pair<const char*, const char*> kLayerMetrics[] = {
      {"sparql.parse_ms", "ms"},
      {"server.overhead_ms", "ms"},
      {"server.cache_hit_rate", "ratio"},
      {"server.cache_evictions", "count"},
      {"server.overloaded", "count"},
      {"stats.prepare_ms", "ms"},
      {"stats.qerror_geomean", "ratio"},
      {"stats.qerror_max", "ratio"},
      {"optimizer.optimize_ms", "ms"},
      {"optimizer.share", "ratio"},
      {"optimizer.worker_utilization", "ratio"},
      {"optimizer.enumerated", "count"},
      {"optimizer.memo_hit_rate", "ratio"},
      {"optimizer.aborts", "count"},
      {"exec.execute_ms", "ms"},
      {"exec.share", "ratio"},
      {"exec.result_rows_per_s", "1/s"},
      {"exec.rows_scanned", "count"},
      {"exec.rows_transferred", "count"},
      {"exec.distributed_joins", "count"},
      {"exec.result_rows", "count"},
      {"exec.merge_joins", "count"},
      {"exec.bytes_shipped_per_query", "bytes"},
      {"exec.node_skew", "ratio"},
      {"exec.node_utilization", "ratio"},
      {"storage.bytes_per_triple", "bytes"},
      {"setup.generate_s", "s"},
      {"setup.cluster_build_s", "s"},
      {"setup.global_index_s", "s"},
      {"setup.server_build_s", "s"},
      {"trace.latency_mean_ms", "ms"},
      {"trace.unaccounted_share", "ratio"},
      {"trace.overhead", "ratio"},
  };
  for (const auto& [name, unit] : kLayerMetrics) sheet.Set(name, 0, unit);
}

double BytesPerTriple(const std::vector<const Cluster*>& clusters) {
  double bytes = 0, triples = 0;
  for (const Cluster* c : clusters) {
    for (int n = 0; n < c->num_nodes(); ++n) {
      bytes += static_cast<double>(c->node(n).IndexBytes());
      triples += static_cast<double>(c->node(n).NumTriples());
    }
  }
  return triples > 0 ? bytes / triples : 0;
}

}  // namespace parqo::perfbench
