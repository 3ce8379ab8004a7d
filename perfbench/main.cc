// Benchmark entry point: runs one workload for a fixed window and prints its
// metrics. Usage:
//
//   parqo_perfbench --workload serve-hot|paper-queries|optimize-large
//                   --seed N --seconds S --trace 0|1
//                   [--out-dir DIR] [--git-rev REV] [--src-digest HEX]
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. With --out-dir the
// run also writes a stamped report (and, traced, its spans) there. The
// exit code is 0 only when every output check passed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "perfbench/workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace parqo::perfbench {
namespace {

/// The traced run's layer times must sum to the client-observed mean
/// latency within this share.
constexpr double kAccountingTolerance = 0.05;

struct Args {
  std::string workload;
  RunOptions run;
  std::string out_dir;
  std::string git_rev = "unknown";
  std::string src_digest = "unknown";
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "%s\nusage: parqo_perfbench --workload "
               "serve-hot|paper-queries|optimize-large --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--git-rev REV] "
               "[--src-digest HEX]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.run.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.run.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      args.run.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--git-rev") {
      args.git_rev = value;
    } else if (flag == "--src-digest") {
      args.src_digest = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !have_seed) {
    Usage("--workload and --seed are required");
  }
  if (!(args.run.seconds > 0)) Usage("--seconds must be positive");
  return args;
}

/// Cost of recording one span, measured here so the traced run can state
/// its own overhead against the requests it traced.
double SpanCostSeconds() {
  constexpr int kSpans = 200000;
  std::vector<Span> spans;
  spans.reserve(kSpans);
  const std::int64_t start = NowNs();
  for (int i = 0; i < kSpans; ++i) {
    std::int64_t t = NowNs();
    spans.push_back({1, static_cast<std::uint32_t>(i), 0, "x", t, t});
  }
  return static_cast<double>(NowNs() - start) * 1e-9 / kSpans;
}

/// Slices of the timed window (see CutSlices): enough that a burst of
/// host load spoils a minority of them.
constexpr int kSlices = 10;

/// Whole-window latency percentiles (all slices), for the report.
MetricSheet LatencyShape(const std::vector<double>& latencies) {
  MetricSheet shape;
  for (double q : {0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999}) {
    shape.Set("p" + JsonNumber(q * 100), Percentile(latencies, q) * 1e3, "ms");
  }
  return shape;
}

std::string JsonList(const std::vector<double>& values, double scale) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonNumber(values[i] * scale);
  }
  return out + "]";
}

/// Median latency of each input class that ran, for the report.
MetricSheet MediansByGroup(const Outcome& out) {
  std::vector<std::vector<double>> by_group(out.groups.size());
  for (const Outcome::Request& r : out.requests) {
    if (r.group >= 0 && r.group < static_cast<int>(by_group.size())) {
      by_group[r.group].push_back(r.latency);
    }
  }
  MetricSheet medians;
  for (std::size_t g = 0; g < by_group.size(); ++g) {
    if (!by_group[g].empty()) {
      medians.Set(out.groups[g], Median(by_group[g]) * 1e3, "ms");
    }
  }
  return medians;
}

std::string Stamp(const Args& args, const Outcome& out) {
  std::string s = "{\"workload\": " + JsonString(args.workload) +
                  ", \"seed\": " + std::to_string(args.run.seed) +
                  ", \"seconds\": " + JsonNumber(args.run.seconds) +
                  ", \"trace\": " + (args.run.trace ? "1" : "0") +
                  ", \"nproc\": " +
                  std::to_string(std::thread::hardware_concurrency()) +
                  ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
                  ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
                  ", \"git_rev\": " + JsonString(args.git_rev) +
                  ", \"src_digest\": " + JsonString(args.src_digest) +
                  ", \"scales\": {";
  for (std::size_t i = 0; i < out.scales.size(); ++i) {
    if (i > 0) s += ", ";
    s += JsonString(out.scales[i].first) + ": " +
         JsonString(out.scales[i].second);
  }
  return s + "}}";
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  Outcome out;
  if (args.workload == "serve-hot") {
    out = RunServeHot(args.run);
  } else if (args.workload == "paper-queries") {
    out = RunPaperQueries(args.run);
  } else if (args.workload == "optimize-large") {
    out = RunOptimizeLarge(args.run);
  } else {
    Usage("unknown workload " + args.workload);
  }

  std::vector<double> latencies;
  std::vector<TimedRequest> timed;
  for (const Outcome::Request& r : out.requests) {
    latencies.push_back(r.latency);
    timed.push_back(
        {static_cast<double>(r.end_ns - out.window_start_ns) * 1e-9,
         r.latency, r.check});
  }
  const Slices slices =
      CutSlices(timed, out.window_seconds, out.clients, kSlices);
  const std::size_t n = latencies.size();
  const std::size_t tail = TailSamples(n, 0.99);
  if (tail < kMinTailSamples) {
    out.problems.push_back("only " + std::to_string(n) +
                           " requests: p99 needs >= 10 samples beyond it");
  }
  MetricSheet e2e;
  e2e.Set("setup_s", Median(out.setup_seconds), "s");
  e2e.Set("latency_p50_ms", Percentile(slices.quiet_latencies, 0.5) * 1e3,
          "ms");
  // The tail needs every input's slowest runs, which the quiet half would
  // select against, so it is taken over the whole window.
  e2e.Set("latency_p99_ms", Percentile(latencies, 0.99) * 1e3, "ms");
  e2e.Set("throughput_qps", slices.quiet_throughput, "1/s");
  e2e.Set("peak_rss_mb", out.peak_rss_mb, "MiB");
  e2e.Set("plan_cost_geomean", GeoMean(out.plan_costs), "cost");

  MetricSheet layers;
  if (args.run.trace) {
    DeclareLayerMetrics(layers);
    // Workload-measured values override the zero defaults.
    for (const auto& [name, value] : out.layers.rows()) {
      layers.Set(name, value.first, value.second);
    }
    const double mean_ms = layers.Get("trace.latency_mean_ms");
    const double accounted =
        layers.Get("sparql.parse_ms") + layers.Get("server.overhead_ms") +
        layers.Get("stats.prepare_ms") + layers.Get("optimizer.optimize_ms") +
        layers.Get("exec.execute_ms");
    const double unaccounted = mean_ms > 0 ? 1 - accounted / mean_ms : 0;
    layers.Set("trace.unaccounted_share", unaccounted, "ratio");
    if (std::fabs(unaccounted) > kAccountingTolerance) {
      out.problems.push_back("layer times leave " +
                             JsonNumber(unaccounted * 100) +
                             "% of the mean latency unaccounted");
    }
    const double spans_per_request =
        n > 0 ? static_cast<double>(out.spans.size()) / n : 0;
    layers.Set("trace.overhead",
               mean_ms > 0 ? SpanCostSeconds() * spans_per_request /
                                 (mean_ms * 1e-3)
                           : 0,
               "ratio");
  }

  const bool correct = out.problems.empty() && out.failed == 0;
  for (const std::string& p : out.problems) {
    std::fprintf(stderr, "check failed: %s\n", p.c_str());
  }
  const std::string stamp = Stamp(args, out);
  const MetricSheet& shown = args.run.trace ? layers : e2e;
  if (!args.out_dir.empty()) {
    std::string base = args.out_dir + "/" + args.workload + "-seed" +
                       std::to_string(args.run.seed) + "-trace" +
                       (args.run.trace ? "1" : "0");
    FILE* f = std::fopen((base + ".json").c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write the report under %s\n",
                   args.out_dir.c_str());
    } else {
      std::fprintf(f,
                   "{\"env\": %s,\n \"correct\": %s, \"attempted\": %llu, "
                   "\"failed\": %llu, \"tail_samples_beyond_p99\": %zu,\n "
                   "\"latency_ms\": %s,\n \"p50_ms_by_input\": %s,\n "
                   "\"slices\": {\"p50_ms\": %s, \"throughput_qps\": %s},\n "
                   "\"end_to_end\": %s,\n \"per_layer\": %s}\n",
                   stamp.c_str(), correct ? "true" : "false",
                   static_cast<unsigned long long>(out.attempted),
                   static_cast<unsigned long long>(out.failed), tail,
                   LatencyShape(latencies).ToJson().c_str(),
                   MediansByGroup(out).ToJson().c_str(),
                   JsonList(slices.p50, 1e3).c_str(),
                   JsonList(slices.throughput, 1).c_str(),
                   e2e.ToJson().c_str(), layers.ToJson().c_str());
      std::fclose(f);
    }
    if (args.run.trace && !WriteSpans(base + ".spans.jsonl", out.spans)) {
      std::fprintf(stderr, "cannot write spans under %s\n",
                   args.out_dir.c_str());
    }
  }
  std::printf("env %s\n", stamp.c_str());
  std::printf("run: set-up %s s (median of %zu), %llu requests in a %s s "
              "window, post-window checks %s s\n",
              JsonNumber(Median(out.setup_seconds)).c_str(),
              out.setup_seconds.size(),
              static_cast<unsigned long long>(out.attempted),
              JsonNumber(out.window_seconds).c_str(),
              JsonNumber(out.check_seconds).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              shown.ToJson().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace parqo::perfbench

int main(int argc, char** argv) { return parqo::perfbench::Main(argc, argv); }
