// optimize-large: optimization only, on large random BGPs (the paper's
// Tables V-VII and Figures 7-8). Each request prepares one generated
// query with its synthetic statistics under hash-SO and runs
// Optimize(kTdAuto) with 4 enumeration workers on a shared pool. One
// closed-loop client; nothing is executed.
//
// The queries are the workload's fixed query set: 50 structures per shape
// and size with their synthetic statistics, generated from a constant
// seed, as the paper fixes its generated query sets. The run's --seed
// draws the request order (a fresh shuffle per cycle). Seeding the
// structures swung p99 by 4x from one seed to the next, and seeding only
// the statistics still moved the plan-cost geometric mean by 10%, so
// neither is left to the seed. Many distinct structures keep the latency
// tail dense, so p99 does not jump between the few slowest queries.

#include <memory>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "optimizer/plan_validator.h"
#include "optimizer/prepared_query.h"
#include "partition/hash_so.h"
#include "perfbench/workloads.h"
#include "workload/random_query.h"

namespace parqo::perfbench {
namespace {

constexpr int kThreads = 4;
constexpr int kStructuresPerShape = 50;
constexpr std::uint64_t kQuerySeed = 2017;
constexpr int kNodes = 10;
constexpr int kSetupRepetitions = 21;
constexpr int kOrderCycles = 100;

struct ShapeSize {
  QueryShape shape;
  int size;
};
constexpr ShapeSize kMix[] = {
    {QueryShape::kChain, 20}, {QueryShape::kChain, 30},
    {QueryShape::kCycle, 16}, {QueryShape::kCycle, 24},
    {QueryShape::kTree, 14},  {QueryShape::kTree, 18},
    {QueryShape::kStar, 12},  {QueryShape::kStar, 20},
    {QueryShape::kDense, 10}, {QueryShape::kDense, 12},
};

struct Env {
  std::unique_ptr<ThreadPool> pool;
  std::vector<GeneratedQuery> queries;
  std::vector<std::string> labels;
};

OptimizeOptions Options(int threads, ThreadPool* pool) {
  OptimizeOptions options;
  options.cost_params.num_nodes = kNodes;
  options.timeout_seconds = 10;
  options.num_threads = threads;
  options.thread_pool = pool;
  return options;
}

std::unique_ptr<Env> SetUp(Outcome& out,
                           std::map<std::string, std::vector<double>>& parts) {
  auto env = std::make_unique<Env>();
  Stopwatch total;
  env->pool = std::make_unique<ThreadPool>(kThreads);
  Stopwatch watch;
  Rng rng(kQuerySeed);
  for (const ShapeSize& m : kMix) {
    for (int i = 0; i < kStructuresPerShape; ++i) {
      env->queries.push_back(GenerateRandomQuery(m.shape, m.size, rng));
      env->labels.push_back(ToString(m.shape) + "-" + std::to_string(m.size));
    }
  }
  parts["setup.generate_s"].push_back(watch.ElapsedSeconds());
  out.setup_seconds.push_back(total.ElapsedSeconds());
  return env;
}

std::unique_ptr<PreparedQuery> Prepare(const GeneratedQuery& q,
                                       const Partitioner& partitioner) {
  return std::make_unique<PreparedQuery>(
      q.patterns, partitioner,
      [&q](const JoinGraph& jg) { return q.MakeStats(jg); });
}

struct Sample {
  int query = 0;
  double latency = 0;
  std::int64_t end_ns = 0;
  OptimizeResult opt;
};

}  // namespace

Outcome RunOptimizeLarge(const RunOptions& options) {
  Outcome out;
  std::map<std::string, std::vector<double>> parts;
  std::unique_ptr<Env> env;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    env.reset();
    env = SetUp(out, parts);
  }
  const HashSoPartitioner partitioner;
  const std::size_t num_queries = env->queries.size();
  Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 41);
  std::vector<int> order;
  for (int cycle = 0; cycle < kOrderCycles; ++cycle) {
    std::vector<int> perm(num_queries);
    for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int>(i);
    for (std::size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.Next() % i]);
    }
    order.insert(order.end(), perm.begin(), perm.end());
  }
  std::string mix;
  for (const ShapeSize& m : kMix) {
    mix += (mix.empty() ? "" : " ") + ToString(m.shape) + "-" +
           std::to_string(m.size);
  }
  for (const ShapeSize& m : kMix) {
    out.groups.push_back(ToString(m.shape) + "-" + std::to_string(m.size));
  }
  out.scales = {{"mix", mix},
                {"structures_per_shape", std::to_string(kStructuresPerShape)},
                {"query_seed", std::to_string(kQuerySeed)},
                {"optimizer_threads", std::to_string(kThreads)},
                {"clients", "1"},
                {"nodes", std::to_string(kNodes)}};

  // --- Timed window.
  std::vector<Sample> samples;
  const OptimizeOptions parallel = Options(kThreads, env->pool.get());
  out.window_start_ns = NowNs();
  out.window_seconds = ClosedLoop(1, options.seconds, [&](int,
                                                          std::uint64_t seq) {
    Sample s;
    s.query = order[seq % order.size()];
    const std::int64_t t0 = NowNs();
    std::unique_ptr<PreparedQuery> prepared =
        Prepare(env->queries[s.query], partitioner);
    const std::int64_t t1 = NowNs();
    s.opt = Optimize(Algorithm::kTdAuto, prepared->inputs(), parallel);
    const std::int64_t t2 = NowNs();
    s.latency = static_cast<double>(t2 - t0) * 1e-9;
    s.end_ns = t2;
    if (options.trace) {
      const auto req = static_cast<std::uint32_t>(seq + 1);
      const std::uint32_t root = req * 4;
      out.spans.push_back({req, root, 0, "request", t0, t2});
      out.spans.push_back({req, root + 1, root, "stats.prepare", t0, t1});
      out.spans.push_back({req, root + 2, root, "optimizer.optimize", t1, t2});
    }
    samples.push_back(std::move(s));
  });
  out.peak_rss_mb = PeakRssMb();

  Stopwatch check_watch;
  // --- Checks: every plan passes the validator, and its cost is
  // bit-equal to a sequential (1-thread) optimize of the same query.
  std::vector<double> sequential_cost(num_queries, -1);
  ParallelChecks(num_queries, kThreads, [&](std::size_t q) {
    std::unique_ptr<PreparedQuery> prepared =
        Prepare(env->queries[q], partitioner);
    OptimizeResult r =
        Optimize(Algorithm::kTdAuto, prepared->inputs(), Options(1, nullptr));
    if (r.plan) sequential_cost[q] = r.plan->total_cost;
  });
  std::vector<std::string> verdict(samples.size());
  ParallelChecks(samples.size(), kThreads, [&](std::size_t i) {
    const Sample& s = samples[i];
    if (!s.opt.plan) {
      verdict[i] = "no plan";
      return;
    }
    if (s.opt.timed_out || s.opt.abort_cause != AbortCause::kNone) {
      verdict[i] = "optimizer stopped early: " + ToString(s.opt.abort_cause);
      return;
    }
    std::unique_ptr<PreparedQuery> prepared =
        Prepare(env->queries[s.query], partitioner);
    CostModel cost_model(parallel.cost_params);
    PlanValidator validator(prepared->join_graph(), &prepared->local_index(),
                            &prepared->estimator(), &cost_model);
    Status st = validator.ValidatePlan(*s.opt.plan);
    if (!st.ok()) {
      verdict[i] = "invalid plan: " + st.ToString();
    } else if (s.opt.plan->total_cost != sequential_cost[s.query]) {
      verdict[i] = "cost differs from the 1-thread optimize";
    }
  });

  OptimizerTotals opt;
  double sum_latency = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    ++out.attempted;
    const bool good = verdict[i].empty();
    if (!good) {
      ++out.failed;
      if (out.problems.size() < 20) {
        out.problems.push_back(env->labels[s.query] + " #" +
                               std::to_string(s.query) + ": " + verdict[i]);
      }
    }
    opt.Add(s.opt);
    out.requests.push_back(
        {s.end_ns, good ? s.latency : std::numeric_limits<double>::infinity(),
         0, s.query / kStructuresPerShape});
    sum_latency += s.latency;
  }
  for (double c : sequential_cost) {
    if (c >= 0) out.plan_costs.push_back(c);
  }

  out.check_seconds = check_watch.ElapsedSeconds();
  if (!options.trace) return out;
  MetricSheet& m = out.layers;
  const double n = static_cast<double>(samples.size());
  std::map<std::string, double> self = SelfSecondsByName(out.spans);
  m.Set("stats.prepare_ms", self["stats.prepare"] / n * 1e3, "ms");
  m.Set("optimizer.optimize_ms", self["optimizer.optimize"] / n * 1e3, "ms");
  m.Set("optimizer.share", self["optimizer.optimize"] / sum_latency, "ratio");
  opt.Report(m);
  for (const auto& [name, values] : parts) m.Set(name, Median(values), "s");
  m.Set("trace.latency_mean_ms", sum_latency / n * 1e3, "ms");
  return out;
}

}  // namespace parqo::perfbench
