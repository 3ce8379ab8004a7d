// paper-queries: the paper's L1-L10 over LUBM and U1-U5 over UniProt
// (Table III), each request cold: ParseSparql, PreparedQuery with exact
// data statistics, Optimize(kTdAuto), then Executor with the simulated
// nodes working in parallel on the process-wide pool. One closed-loop
// client. The run's --seed draws both datasets and the request order (a
// fresh shuffle of the fifteen queries per cycle).

#include <algorithm>
#include <memory>
#include <optional>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "exec/cluster.h"
#include "exec/health.h"
#include "optimizer/prepared_query.h"
#include "partition/hash_so.h"
#include "perfbench/workloads.h"
#include "query/match.h"
#include "sparql/parser.h"
#include "workload/benchmark_queries.h"
#include "workload/lubm.h"
#include "workload/uniprot.h"

namespace parqo::perfbench {
namespace {

constexpr int kUniversities = 100;
constexpr int kProteins = 15000;
constexpr int kNodes = 10;
constexpr int kSetupRepetitions = 3;
constexpr int kOrderCycles = 1000;
/// Queries up to this many patterns are checked against single-machine
/// MatchBgp, whose backtracking search grows too slow beyond it; larger
/// ones against a serial row-engine run.
constexpr std::size_t kMatchMaxPatterns = 5;

/// One dataset on its cluster. The health registry is attached only so
/// executions report per-node busy time (exec.node_skew), in traced and
/// untraced runs alike; without a fault plan it never reroutes or hedges.
struct Dataset {
  std::unique_ptr<RdfGraph> graph;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<NodeHealthRegistry> health;
};

struct Env {
  HashSoPartitioner partitioner;
  Dataset lubm, uniprot;
};

OptimizeOptions PaperOptions() {
  OptimizeOptions options;
  options.cost_params.num_nodes = kNodes;
  options.timeout_seconds = 10;
  return options;
}

std::unique_ptr<Env> SetUp(std::uint64_t seed, Outcome& out,
                           std::map<std::string, std::vector<double>>& parts) {
  auto env = std::make_unique<Env>();
  Stopwatch total;
  Stopwatch watch;
  LubmConfig lubm;
  lubm.universities = kUniversities;
  lubm.seed = seed;
  env->lubm.graph = std::make_unique<RdfGraph>(GenerateLubm(lubm));
  UniprotConfig uniprot;
  uniprot.proteins = kProteins;
  uniprot.seed = seed + 1;
  env->uniprot.graph = std::make_unique<RdfGraph>(GenerateUniprot(uniprot));
  parts["setup.generate_s"].push_back(watch.ElapsedSeconds());
  watch.Restart();
  for (Dataset* d : {&env->lubm, &env->uniprot}) {
    d->cluster = std::make_unique<Cluster>(
        *d->graph, env->partitioner.PartitionData(*d->graph, kNodes));
    d->health = std::make_unique<NodeHealthRegistry>(kNodes);
  }
  parts["setup.cluster_build_s"].push_back(watch.ElapsedSeconds());
  watch.Restart();
  env->lubm.graph->Index();  // built lazily by the first StatsFromData use
  env->uniprot.graph->Index();
  parts["setup.global_index_s"].push_back(watch.ElapsedSeconds());
  out.setup_seconds.push_back(total.ElapsedSeconds());
  return env;
}

std::vector<std::pair<std::string, VarId>> SelectNames(
    const ParsedQuery& q, const JoinGraph& jg) {
  std::vector<std::pair<std::string, VarId>> names;
  if (q.select_all) {
    for (VarId v = 0; v < jg.num_vars(); ++v) {
      names.emplace_back(jg.var_name(v), v);
    }
  } else {
    for (const std::string& name : q.select_vars) {
      names.emplace_back(name, jg.FindVar(name));
    }
  }
  return names;
}

/// Expected rows of one query: single-machine MatchBgp projected onto the
/// SELECT variables, or a serial row-engine run for larger queries.
RowsFingerprint ReferenceRows(const ParsedQuery& q, const Dataset& d,
                              const Partitioner& partitioner) {
  if (q.patterns.size() <= kMatchMaxPatterns) {
    JoinGraph jg(q.patterns);
    std::vector<BgpMatch> matches =
        MatchBgp(jg, *d.graph, std::numeric_limits<std::size_t>::max());
    std::vector<std::pair<std::string, VarId>> names = SelectNames(q, jg);
    std::vector<VarId> schema;
    for (VarId v = 0; v < jg.num_vars(); ++v) schema.push_back(v);
    BindingTable full(schema);
    for (const BgpMatch& m : matches) {
      for (VarId v = 0; v < jg.num_vars(); ++v) {
        full.MutableColumn(v).push_back(m.bindings[v]);
      }
    }
    std::vector<VarId> projected;
    for (const auto& [name, v] : names) projected.push_back(v);
    return Fingerprint(full.Project(projected), names);
  }
  PreparedQuery prepared(q.patterns, partitioner, StatsFromData(*d.graph));
  OptimizeResult opt =
      Optimize(Algorithm::kTdAuto, prepared.inputs(), PaperOptions());
  if (!opt.plan) return {};
  Executor exec(*d.cluster, prepared.join_graph(),
                PaperOptions().cost_params, /*parallel_nodes=*/false,
                RetryPolicy{}, ExecEngine::kRow);
  Result<BindingTable> rows = ExecuteAndProject(
      exec, *opt.plan, q, prepared.join_graph(), nullptr);
  if (!rows.ok()) return {};
  return Fingerprint(*rows, SelectNames(q, prepared.join_graph()));
}

struct Sample {
  int query = 0;
  double latency = 0;
  std::int64_t end_ns = 0;
  double check = 0;  ///< Client seconds spent fingerprinting the rows.
  bool ok = false;
  std::string error;
  double plan_cost = 0;
  double execute_seconds = 0;
  OptimizeResult opt;
  ExecMetrics metrics;
  RowsFingerprint fp;
};

}  // namespace

Outcome RunPaperQueries(const RunOptions& options) {
  Outcome out;
  std::map<std::string, std::vector<double>> parts;
  std::unique_ptr<Env> env;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    env.reset();
    env = SetUp(options.seed, out, parts);
  }
  const std::vector<BenchmarkQuery>& queries = AllBenchmarkQueries();
  std::vector<ParsedQuery> parsed_queries;
  for (const BenchmarkQuery& bq : queries) {
    Result<ParsedQuery> q = ParseSparql(bq.sparql);
    if (!q.ok()) {
      out.problems.push_back(bq.name + " does not parse");
      return out;
    }
    parsed_queries.push_back(std::move(*q));
  }
  Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 23);
  std::vector<int> order;
  for (int cycle = 0; cycle < kOrderCycles; ++cycle) {
    std::vector<int> perm(queries.size());
    for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int>(i);
    for (std::size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.Next() % i]);
    }
    order.insert(order.end(), perm.begin(), perm.end());
  }
  out.scales = {
      {"lubm_universities", std::to_string(kUniversities)},
      {"lubm_triples", std::to_string(env->lubm.graph->NumTriples())},
      {"uniprot_proteins", std::to_string(kProteins)},
      {"uniprot_triples", std::to_string(env->uniprot.graph->NumTriples())},
      {"queries", std::to_string(queries.size())},
      {"clients", "1"},
      {"nodes", std::to_string(kNodes)},
      {"exec_pool_threads", std::to_string(ThreadPool::Global().size())}};
  for (const BenchmarkQuery& bq : queries) out.groups.push_back(bq.name);
  auto dataset_of = [&](int q) -> const Dataset& {
    return queries[q].lubm ? env->lubm : env->uniprot;
  };

  // --- Timed window.
  std::vector<Sample> samples;
  const OptimizeOptions opt_options = PaperOptions();
  out.window_start_ns = NowNs();
  out.window_seconds = ClosedLoop(1, options.seconds, [&](int,
                                                          std::uint64_t seq) {
    Sample s;
    s.query = order[seq % order.size()];
    const Dataset& d = dataset_of(s.query);
    const std::int64_t t0 = NowNs();
    Result<ParsedQuery> parsed = ParseSparql(queries[s.query].sparql);
    const std::int64_t t1 = NowNs();
    std::int64_t t2 = t1, t3 = t1;
    std::optional<PreparedQuery> prepared;
    Result<BindingTable> rows = Status::Internal("not executed");
    if (parsed.ok()) {
      prepared.emplace(parsed->patterns, env->partitioner,
                       StatsFromData(*d.graph));
      t2 = NowNs();
      s.opt = Optimize(Algorithm::kTdAuto, prepared->inputs(), opt_options);
      t3 = NowNs();
      if (s.opt.plan) {
        Executor exec(*d.cluster, prepared->join_graph(),
                      opt_options.cost_params, /*parallel_nodes=*/true,
                      RetryPolicy{}, ExecEngine::kBatch, d.health.get());
        rows = ExecuteAndProject(exec, *s.opt.plan, *parsed,
                                 prepared->join_graph(), &s.metrics);
      }
    }
    const std::int64_t t4 = NowNs();
    s.latency = static_cast<double>(t4 - t0) * 1e-9;
    s.execute_seconds = static_cast<double>(t4 - t3) * 1e-9;
    s.ok = rows.ok();
    if (options.trace) {
      const auto req = static_cast<std::uint32_t>(seq + 1);
      const std::uint32_t root = req * 8;
      out.spans.push_back({req, root, 0, "request", t0, t4});
      out.spans.push_back({req, root + 1, root, "sparql.parse", t0, t1});
      out.spans.push_back({req, root + 2, root, "stats.prepare", t1, t2});
      out.spans.push_back({req, root + 3, root, "optimizer.optimize", t2, t3});
      out.spans.push_back({req, root + 4, root, "exec.execute", t3, t4});
    }
    if (s.ok) {
      s.plan_cost = s.opt.plan->total_cost;
      s.fp = Fingerprint(*rows, SelectNames(*parsed, prepared->join_graph()));
    } else {
      s.error = rows.status().ToString();
    }
    s.opt.plan.reset();
    samples.push_back(std::move(s));
    samples.back().end_ns = t4;
    samples.back().check = static_cast<double>(NowNs() - t4) * 1e-9;
  });
  out.peak_rss_mb = PeakRssMb();

  Stopwatch check_watch;
  // --- Checks: rows against the reference, and every plan of a query
  // bit-equal in cost to that query's first plan.
  std::vector<RowsFingerprint> reference(queries.size());
  ParallelChecks(queries.size(), 4, [&](std::size_t q) {
    reference[q] = ReferenceRows(parsed_queries[q],
                                 dataset_of(static_cast<int>(q)),
                                 env->partitioner);
  });
  std::vector<double> first_cost(queries.size(), -1);
  ExecTotals exec;
  OptimizerTotals opt;
  double sum_latency = 0;
  for (const Sample& s : samples) {
    ++out.attempted;
    bool good = s.ok;
    const std::string& name = queries[s.query].name;
    if (!s.ok) {
      if (out.problems.size() < 20) {
        out.problems.push_back(name + " failed: " + s.error);
      }
    } else {
      if (!(s.fp == reference[s.query])) {
        good = false;
        if (out.problems.size() < 20) {
          out.problems.push_back(name + ": rows differ from the reference");
        }
      }
      if (first_cost[s.query] < 0) first_cost[s.query] = s.plan_cost;
      if (s.plan_cost != first_cost[s.query]) {
        good = false;
        if (out.problems.size() < 20) {
          out.problems.push_back(name + ": plan cost changed between runs");
        }
      }
      exec.Add(s.metrics, s.execute_seconds);
    }
    opt.Add(s.opt);
    if (!good) ++out.failed;
    out.requests.push_back(
        {s.end_ns, good ? s.latency : std::numeric_limits<double>::infinity(),
         s.check, s.query});
    sum_latency += s.latency;
  }
  for (double c : first_cost) {
    if (c >= 0) out.plan_costs.push_back(c);
  }

  out.check_seconds = check_watch.ElapsedSeconds();
  if (!options.trace) return out;
  // q-error of every operator, from one extra execution per query with
  // per-operator cardinalities recorded (outside the timed window).
  std::vector<double> qerrors;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const Dataset& d = dataset_of(static_cast<int>(q));
    PreparedQuery prepared(parsed_queries[q].patterns, env->partitioner,
                           StatsFromData(*d.graph));
    OptimizeResult r =
        Optimize(Algorithm::kTdAuto, prepared.inputs(), opt_options);
    if (!r.plan) continue;
    Executor executor(*d.cluster, prepared.join_graph(),
                      opt_options.cost_params, /*parallel_nodes=*/true);
    executor.set_record_op_cardinalities(true);
    ExecMetrics m;
    if (!executor.Execute(*r.plan, &m).ok()) continue;
    for (const ExecMetrics::OpCardinality& c : m.op_cards) {
      double e = std::max(c.estimated, 1.0);
      double a = std::max(static_cast<double>(c.actual), 1.0);
      qerrors.push_back(std::max(e / a, a / e));
    }
  }
  MetricSheet& m = out.layers;
  const double n = static_cast<double>(samples.size());
  std::map<std::string, double> self = SelfSecondsByName(out.spans);
  m.Set("sparql.parse_ms", self["sparql.parse"] / n * 1e3, "ms");
  m.Set("stats.prepare_ms", self["stats.prepare"] / n * 1e3, "ms");
  m.Set("stats.qerror_geomean", GeoMean(qerrors), "ratio");
  m.Set("stats.qerror_max",
        qerrors.empty() ? 0 : *std::max_element(qerrors.begin(), qerrors.end()),
        "ratio");
  m.Set("optimizer.optimize_ms", self["optimizer.optimize"] / n * 1e3, "ms");
  m.Set("optimizer.share", self["optimizer.optimize"] / sum_latency, "ratio");
  opt.Report(m);
  exec.Report(m, ThreadPool::Global().size());
  m.Set("exec.share", self["exec.execute"] / sum_latency, "ratio");
  m.Set("storage.bytes_per_triple",
        BytesPerTriple({env->lubm.cluster.get(), env->uniprot.cluster.get()}),
        "bytes");
  for (const auto& [name, values] : parts) m.Set(name, Median(values), "s");
  m.Set("trace.latency_mean_ms", sum_latency / n * 1e3, "ms");
  return out;
}

}  // namespace parqo::perfbench
