// serve-hot: an endpoint replaying templated queries. A skewed stream of
// scrambled WatDiv template instances, each rendered to SPARQL text, is
// served by 4 closed-loop clients through ParseSparql and
// QueryServer::Serve with a shared plan cache that starts empty.
//
// The dataset, the 124 templates and the pool of instances replayed are
// the endpoint's fixed database and query log (generated from constant
// seeds, as WatDiv publishes a fixed template set); the run's --seed
// draws how each request is spelled (variable names, pattern order) and
// the arrival order. Seeding the data made single heavy templates swing
// p99 by 5x and peak memory past 3 GiB from one seed to the next.

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "exec/cluster.h"
#include "partition/hash_so.h"
#include "perfbench/workloads.h"
#include "plan/plan.h"
#include "query/match.h"
#include "server/server.h"
#include "server/signature.h"
#include "sparql/parser.h"
#include "workload/watdiv.h"

namespace parqo::perfbench {
namespace {

constexpr int kEntities = 200;
constexpr double kDensity = 1.2;
constexpr int kTemplates = 124;
constexpr std::uint64_t kTemplateSeed = 2017;
constexpr std::uint64_t kDataSeed = 2017;
constexpr std::uint64_t kPoolSeed = 2017;
/// Distinct skewed events after the cold start; the window replays them
/// cyclically so every response can be checked against a reference.
constexpr int kSkewedEvents = 876;
constexpr int kClients = 4;
constexpr int kNodes = 10;
constexpr int kSetupRepetitions = 15;
/// Results up to this size are checked against single-machine MatchBgp;
/// larger ones against a cold serial row-engine run.
constexpr std::size_t kMatchLimit = 20000;

struct Env {
  std::unique_ptr<RdfGraph> graph;
  HashSoPartitioner partitioner;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<QueryServer> server;
};

OptimizeOptions ServeOptions() {
  OptimizeOptions options;
  options.cost_params.num_nodes = kNodes;
  options.timeout_seconds = 10;
  return options;
}

std::unique_ptr<Env> SetUp(Outcome& out,
                           std::map<std::string, std::vector<double>>& parts) {
  auto env = std::make_unique<Env>();
  Stopwatch total;
  Stopwatch watch;
  WatdivDataConfig data;
  data.entities_per_class = kEntities;
  data.density = kDensity;
  data.seed = kDataSeed;
  env->graph = std::make_unique<RdfGraph>(GenerateWatdivData(data));
  parts["setup.generate_s"].push_back(watch.ElapsedSeconds());
  watch.Restart();
  env->cluster = std::make_unique<Cluster>(
      *env->graph, env->partitioner.PartitionData(*env->graph, kNodes));
  parts["setup.cluster_build_s"].push_back(watch.ElapsedSeconds());
  watch.Restart();
  env->graph->Index();  // built lazily by the first statistics request
  parts["setup.global_index_s"].push_back(watch.ElapsedSeconds());
  watch.Restart();
  ServerConfig config;
  config.algorithm = Algorithm::kTdAuto;
  config.options = ServeOptions();
  config.num_threads = kClients;
  config.max_in_flight = kClients * 4;
  env->server = std::make_unique<QueryServer>(*env->graph, *env->cluster,
                                              env->partitioner, config);
  parts["setup.server_build_s"].push_back(watch.ElapsedSeconds());
  out.setup_seconds.push_back(total.ElapsedSeconds());
  return env;
}

/// A template instance: the trailing number of every entity constant
/// re-drawn. The signature (and so the cache key) is the template's.
std::vector<TriplePattern> Instantiate(const std::vector<TriplePattern>& tmpl,
                                       Rng& rng) {
  std::vector<TriplePattern> out = tmpl;
  for (TriplePattern& tp : out) {
    for (PatternTerm* t : {&tp.s, &tp.o}) {
      if (t->IsVar()) continue;
      std::string& lex = t->term.lexical;
      std::size_t end = lex.size();
      while (end > 0 &&
             std::isdigit(static_cast<unsigned char>(lex[end - 1]))) {
        --end;
      }
      if (end < lex.size()) {
        lex = lex.substr(0, end) +
              std::to_string(rng.Uniform(0, kEntities - 1));
      }
    }
  }
  return out;
}

/// The same query as another client would spell it: variables renamed
/// and patterns permuted, so a cache hit is the canonicalizer's doing.
std::vector<TriplePattern> Disguise(const std::vector<TriplePattern>& query,
                                    Rng& rng) {
  std::map<std::string, std::string> names;
  for (const TriplePattern& tp : query) {
    for (const std::string& v : tp.Variables()) {
      if (!names.count(v)) {
        names[v] = "v" + std::to_string(rng.Next() % 100000) + "_" +
                   std::to_string(names.size());
      }
    }
  }
  std::vector<TriplePattern> out = query;
  for (TriplePattern& tp : out) {
    for (PatternTerm* t : {&tp.s, &tp.p, &tp.o}) {
      if (t->IsVar()) t->var = names.at(t->var);
    }
  }
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.Next() % i]);
  }
  return out;
}

struct Event {
  int tmpl = 0;
  std::string text;
  std::vector<TriplePattern> patterns;  ///< As parsed back from `text`.
};

/// The distinct events: every template once (the cold start), then a
/// u^3-skewed draw so a few templates dominate. Which instances the log
/// holds (template and constants) is fixed, like the templates: with a
/// seeded pool the share of multi-million-row instances moved by a fifth
/// between seeds, and p99, which sits where that share crosses 1%, moved
/// between 60 and 230 ms. The run's seed spells every event anew and
/// orders the skewed part.
std::vector<Event> MakeStream(std::uint64_t seed,
                              const std::vector<WatdivTemplate>& templates,
                              Outcome& out) {
  Rng pool_rng(kPoolSeed);
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  std::vector<std::pair<int, std::vector<TriplePattern>>> pool;
  for (int i = 0; i < kTemplates + kSkewedEvents; ++i) {
    int t = i;
    if (i >= kTemplates) {
      double u = static_cast<double>(pool_rng.Next() % 1000000) / 1e6;
      t = static_cast<int>(u * u * u * kTemplates) % kTemplates;
    }
    pool.emplace_back(t, Instantiate(templates[t].patterns, pool_rng));
  }
  for (std::size_t i = pool.size(); i > kTemplates + 1; --i) {
    std::swap(pool[i - 1],
              pool[kTemplates + rng.Next() % (i - kTemplates)]);
  }
  std::vector<Event> stream;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    ParsedQuery q;
    q.select_all = true;
    q.patterns = Disguise(pool[i].second, rng);
    Event e;
    e.tmpl = pool[i].first;
    e.text = q.ToString();
    Result<ParsedQuery> parsed = ParseSparql(e.text);
    if (!parsed.ok() || parsed->patterns != q.patterns) {
      out.problems.push_back("stream event " + std::to_string(i) +
                             " does not round-trip through SPARQL text");
    }
    e.patterns = std::move(q.patterns);
    stream.push_back(std::move(e));
  }
  return stream;
}

struct Sample {
  std::uint32_t event = 0;
  double latency = 0;
  std::int64_t end_ns = 0;
  double check = 0;  ///< Client seconds spent fingerprinting the rows.
  bool ok = false;
  ServeResult result;  ///< Rows dropped once fingerprinted.
  RowsFingerprint fp;
};

RowsFingerprint ReferenceRows(const Event& e, const Env& env) {
  JoinGraph jg(e.patterns);
  std::vector<BgpMatch> matches = MatchBgp(jg, *env.graph, kMatchLimit + 1);
  std::vector<std::pair<std::string, VarId>> names;
  for (VarId v = 0; v < jg.num_vars(); ++v) {
    names.emplace_back(jg.var_name(v), v);
  }
  if (matches.size() <= kMatchLimit) {
    std::vector<VarId> schema;
    for (VarId v = 0; v < jg.num_vars(); ++v) schema.push_back(v);
    BindingTable table(schema);
    for (const BgpMatch& m : matches) {
      for (VarId v = 0; v < jg.num_vars(); ++v) {
        table.MutableColumn(v).push_back(m.bindings[v]);
      }
    }
    table.Deduplicate();
    return Fingerprint(table, names);
  }
  // Large result: a cold, uncached, serial row-engine run of its own plan.
  PreparedQuery prepared(e.patterns, env.partitioner,
                         StatsFromData(*env.graph));
  OptimizeResult opt =
      Optimize(Algorithm::kTdAuto, prepared.inputs(), ServeOptions());
  if (!opt.plan) return {};
  Executor exec(*env.cluster, prepared.join_graph(),
                ServeOptions().cost_params, /*parallel_nodes=*/false,
                RetryPolicy{}, ExecEngine::kRow);
  Result<BindingTable> rows = exec.Execute(*opt.plan, nullptr);
  if (!rows.ok()) return {};
  std::vector<std::pair<std::string, VarId>> pnames;
  for (VarId v = 0; v < prepared.join_graph().num_vars(); ++v) {
    pnames.emplace_back(prepared.join_graph().var_name(v), v);
  }
  return Fingerprint(*rows, pnames);
}

std::string PlanIdentity(const PlanNode& plan) {
  char bits[40];
  std::snprintf(bits, sizeof(bits), "%.17g", plan.total_cost);
  return PlanToCompactString(plan) + " @" + bits;
}

}  // namespace

Outcome RunServeHot(const RunOptions& options) {
  Outcome out;
  std::map<std::string, std::vector<double>> parts;
  std::unique_ptr<Env> env;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    env.reset();
    env = SetUp(out, parts);
  }
  Rng template_rng(kTemplateSeed);
  std::vector<WatdivTemplate> templates =
      GenerateWatdivTemplates(kTemplates, template_rng);
  std::vector<Event> stream = MakeStream(options.seed, templates, out);
  out.scales = {{"watdiv_entities_per_class", std::to_string(kEntities)},
                {"watdiv_density", "1.2"},
                {"watdiv_triples", std::to_string(env->graph->NumTriples())},
                {"templates", std::to_string(kTemplates)},
                {"template_seed", std::to_string(kTemplateSeed)},
                {"data_seed", std::to_string(kDataSeed)},
                {"pool_seed", std::to_string(kPoolSeed)},
                {"skewed_events", std::to_string(kSkewedEvents)},
                {"clients", std::to_string(kClients)},
                {"nodes", std::to_string(kNodes)}};
  for (int t = 0; t < kTemplates; ++t) {
    out.groups.push_back("T" + std::to_string(t));
  }
  if (!out.problems.empty()) return out;

  // --- Timed window.
  std::vector<std::vector<Sample>> logs(kClients);
  std::vector<std::vector<Span>> span_logs(kClients);
  QueryServer& server = *env->server;
  out.clients = kClients;
  out.window_start_ns = NowNs();
  out.window_seconds = ClosedLoop(kClients, options.seconds, [&](int c,
                                                          std::uint64_t seq) {
    Sample s;
    s.event = static_cast<std::uint32_t>(
        seq < kTemplates ? seq
                         : kTemplates + (seq - kTemplates) % kSkewedEvents);
    const Event& e = stream[s.event];
    const std::int64_t t0 = NowNs();
    Result<ParsedQuery> parsed = ParseSparql(e.text);
    const std::int64_t t1 = NowNs();
    if (parsed.ok()) s.result = server.Serve(parsed->patterns);
    const std::int64_t t2 = NowNs();
    s.latency = static_cast<double>(t2 - t0) * 1e-9;
    s.ok = parsed.ok() && s.result.status.ok();
    if (options.trace) {
      const auto req = static_cast<std::uint32_t>(seq + 1);
      const std::uint32_t root = req * 4;
      span_logs[c].push_back({req, root, 0, "request", t0, t2});
      span_logs[c].push_back({req, root + 1, root, "sparql.parse", t0, t1});
      span_logs[c].push_back({req, root + 2, root, "server.serve", t1, t2});
    }
    // Output fingerprint, outside the request's latency.
    if (s.ok) {
      std::vector<std::pair<std::string, VarId>> names;
      for (std::size_t k = 0; k < s.result.var_names.size(); ++k) {
        names.emplace_back(s.result.var_names[k], static_cast<VarId>(k));
      }
      s.fp = Fingerprint(s.result.rows, names);
    }
    s.result.rows = BindingTable();
    s.end_ns = t2;
    s.check = static_cast<double>(NowNs() - t2) * 1e-9;
    logs[c].push_back(std::move(s));
  });
  out.peak_rss_mb = PeakRssMb();

  std::vector<Sample> samples;
  for (auto& log : logs) {
    for (Sample& s : log) samples.push_back(std::move(s));
  }
  for (auto& log : span_logs) {
    out.spans.insert(out.spans.end(), log.begin(), log.end());
  }

  Stopwatch check_watch;
  // --- Checks: rows against an independent reference per event. Plans:
  // a miss optimized its own instance, so its plan must be bit-equal to
  // a cold optimize of that instance; a hit must return a plan that one
  // of its signature's misses cached.
  std::set<std::uint32_t> events, cold_events;
  std::map<std::string, std::uint32_t> first_event_of_signature;
  for (const Sample& s : samples) {
    events.insert(s.event);
    if (!s.ok) continue;
    if (!s.result.cache_hit) cold_events.insert(s.event);
    auto [it, fresh] =
        first_event_of_signature.emplace(s.result.signature, s.event);
    if (!fresh) it->second = std::min(it->second, s.event);
  }
  for (const auto& [sig, e] : first_event_of_signature) cold_events.insert(e);
  std::vector<std::uint32_t> event_list(events.begin(), events.end());
  std::unordered_map<std::uint32_t, RowsFingerprint> reference;
  std::mutex mu;
  ParallelChecks(event_list.size(), kClients, [&](std::size_t i) {
    RowsFingerprint fp = ReferenceRows(stream[event_list[i]], *env);
    std::lock_guard<std::mutex> lock(mu);
    reference[event_list[i]] = fp;
  });
  std::vector<std::uint32_t> cold_list(cold_events.begin(), cold_events.end());
  std::unordered_map<std::uint32_t, std::pair<std::string, double>> cold;
  ParallelChecks(cold_list.size(), kClients, [&](std::size_t i) {
    CanonicalBgp canon = CanonicalizeBgp(stream[cold_list[i]].patterns);
    PreparedQuery prepared(canon.patterns, env->partitioner,
                           StatsFromData(*env->graph));
    OptimizeResult opt =
        Optimize(Algorithm::kTdAuto, prepared.inputs(), ServeOptions());
    std::string id = opt.plan ? PlanIdentity(*opt.plan) : "no plan";
    double cost = opt.plan ? opt.plan->total_cost : 0;
    std::lock_guard<std::mutex> lock(mu);
    cold[cold_list[i]] = {id, cost};
  });
  std::map<std::string, std::set<std::string>> cached_ids;
  for (const Sample& s : samples) {
    if (s.ok && !s.result.cache_hit) {
      cached_ids[s.result.signature].insert(cold.at(s.event).first);
    }
  }

  std::unordered_map<const PlanNode*, std::string> identity_of;
  double sum_latency = 0, sum_overhead = 0, sum_opt = 0;
  ExecTotals exec;
  std::uint64_t overloaded = 0;
  for (const Sample& s : samples) {
    ++out.attempted;
    bool good = s.ok;
    if (!s.ok) {
      if (s.result.status.code() == StatusCode::kOverloaded) ++overloaded;
      if (out.problems.size() < 20) {
        out.problems.push_back("event " + std::to_string(s.event) +
                               " failed: " + s.result.status.ToString());
      }
    } else {
      if (!(s.fp == reference.at(s.event))) {
        good = false;
        if (out.problems.size() < 20) {
          out.problems.push_back("event " + std::to_string(s.event) +
                                 ": rows differ from the reference");
        }
      }
      auto [it, fresh] = identity_of.emplace(s.result.plan.get(), "");
      if (fresh) it->second = PlanIdentity(*s.result.plan);
      const bool plan_ok =
          s.result.cache_hit
              ? cached_ids[s.result.signature].count(it->second) > 0
              : it->second == cold.at(s.event).first;
      if (!plan_ok) {
        good = false;
        if (out.problems.size() < 20) {
          out.problems.push_back("event " + std::to_string(s.event) +
                                 ": served plan differs from cold plan");
        }
      }
      exec.Add(s.result.exec_metrics, s.result.execute_seconds);
    }
    if (!good) ++out.failed;
    out.requests.push_back(
        {s.end_ns, good ? s.latency : std::numeric_limits<double>::infinity(),
         s.check, stream[s.event].tmpl});
    sum_latency += s.latency;
    sum_overhead += s.result.total_seconds - s.result.optimize_seconds -
                    s.result.execute_seconds;
    sum_opt += s.result.optimize_seconds;
  }
  for (const auto& [sig, e] : first_event_of_signature) {
    out.plan_costs.push_back(cold.at(e).second);
  }

  out.check_seconds = check_watch.ElapsedSeconds();
  if (!options.trace) return out;
  MetricSheet& m = out.layers;
  const double n = static_cast<double>(samples.size());
  std::map<std::string, double> self = SelfSecondsByName(out.spans);
  m.Set("sparql.parse_ms", self["sparql.parse"] / n * 1e3, "ms");
  m.Set("server.overhead_ms", sum_overhead / n * 1e3, "ms");
  const std::uint64_t hits = server.cache().hits();
  const std::uint64_t misses = server.cache().misses();
  m.Set("server.cache_hit_rate",
        hits + misses > 0 ? static_cast<double>(hits) /
                                static_cast<double>(hits + misses)
                          : 0,
        "ratio");
  m.Set("server.cache_evictions",
        static_cast<double>(server.cache().evictions()), "count");
  m.Set("server.overloaded", static_cast<double>(overloaded), "count");
  m.Set("optimizer.optimize_ms", sum_opt / n * 1e3, "ms");
  m.Set("optimizer.share", sum_latency > 0 ? sum_opt / sum_latency : 0,
        "ratio");
  exec.Report(m, /*workers=*/1);  // the server executes each request serially
  m.Set("exec.share",
        sum_latency > 0 ? exec.execute_seconds / sum_latency : 0, "ratio");
  m.Set("storage.bytes_per_triple", BytesPerTriple({env->cluster.get()}),
        "bytes");
  for (const auto& [name, values] : parts) m.Set(name, Median(values), "s");
  m.Set("trace.latency_mean_ms", sum_latency / n * 1e3, "ms");
  return out;
}

}  // namespace parqo::perfbench
