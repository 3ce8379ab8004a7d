// Golden equivalence sweep for the vectorized execution path (DESIGN.md
// sections 13 and 17): every benchmark query, planned by all seven
// algorithms and executed serial and parallel, must produce a
// BindingTable from the batch engine that is BIT-IDENTICAL (schema, rows,
// row order) to the row-at-a-time reference engine — operator==, not set
// comparison — and the batch engine's merge kernel must actually run, so
// the comparison covers both of its join kernels. The same must hold
// under seeded fault plans: with identical fault schedules, both engines
// recover to identical tables or fail with the same typed status,
// because the fault probe sequence (one BeginNodeOp per partition per
// operator, one DeliverShipment per batch) does not depend on join
// internals. Merge == hash on adversarial inputs (duplicate runs,
// randomized sweeps) is pinned at the kernel level in storage_test.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "exec/cluster.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "optimizer/prepared_query.h"
#include "partition/hash_so.h"
#include "plan/plan.h"
#include "sparql/parser.h"
#include "stats/data_stats.h"
#include "workload/benchmark_queries.h"
#include "workload/lubm.h"
#include "workload/uniprot.h"

namespace parqo {
namespace {

constexpr int kNodes = 4;

const std::vector<Algorithm> kAllAlgorithms{
    Algorithm::kTdCmd,  Algorithm::kTdCmdp,  Algorithm::kHgrTdCmd,
    Algorithm::kTdAuto, Algorithm::kMsc,     Algorithm::kDpBushy,
    Algorithm::kBinaryDp};

const RdfGraph& LubmGraph() {
  // parqo-lint: allow(naked-new) leaked cached dataset
  static const RdfGraph& g = *new RdfGraph([] {
    LubmConfig cfg;
    cfg.universities = 2;
    return GenerateLubm(cfg);
  }());
  return g;
}

const RdfGraph& UniprotGraph() {
  // parqo-lint: allow(naked-new) leaked cached dataset
  static const RdfGraph& g = *new RdfGraph([] {
    UniprotConfig cfg;
    cfg.proteins = 400;
    return GenerateUniprot(cfg);
  }());
  return g;
}

// Metrics both engines must agree on exactly: every field is a function
// of the (identical) intermediate tables, never of kernel internals.
void ExpectSameMetrics(const ExecMetrics& row, const ExecMetrics& batch) {
  EXPECT_EQ(row.measured_cost, batch.measured_cost);
  EXPECT_EQ(row.total_work, batch.total_work);
  EXPECT_EQ(row.rows_scanned, batch.rows_scanned);
  EXPECT_EQ(row.rows_transferred, batch.rows_transferred);
  EXPECT_EQ(row.bytes_shipped, batch.bytes_shipped);
  EXPECT_EQ(row.distributed_joins, batch.distributed_joins);
  EXPECT_EQ(row.result_rows, batch.result_rows);
  EXPECT_EQ(row.node_rows_scanned, batch.node_rows_scanned);
  EXPECT_EQ(row.node_rows_received, batch.node_rows_received);
  EXPECT_EQ(row.node_rows_joined, batch.node_rows_joined);
  ASSERT_EQ(row.edges.size(), batch.edges.size());
  for (std::size_t i = 0; i < row.edges.size(); ++i) {
    EXPECT_EQ(row.edges[i].op, batch.edges[i].op);
    EXPECT_EQ(row.edges[i].rows, batch.edges[i].rows);
    EXPECT_EQ(row.edges[i].bytes, batch.edges[i].bytes);
  }
}

// One benchmark query prepared over its dataset's 4-node cluster.
class QueryOnCluster : public ::testing::Test {
 protected:
  void Load(const BenchmarkQuery& bq) {
    graph_ = &(bq.lubm ? LubmGraph() : UniprotGraph());
    auto parsed = ParseSparql(bq.sparql);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    prepared_ = std::make_unique<PreparedQuery>(parsed->patterns, hash_,
                                                StatsFromData(*graph_));
    assignment_ = hash_.PartitionData(*graph_, kNodes);
    cluster_ = std::make_unique<Cluster>(*graph_, assignment_);
    options_.cost_params.num_nodes = kNodes;
    options_.timeout_seconds = 60;
  }

  PlanNodePtr Plan(Algorithm algorithm) {
    OptimizeResult r = Optimize(algorithm, prepared_->inputs(), options_);
    return std::move(r.plan);
  }

  HashSoPartitioner hash_;
  const RdfGraph* graph_ = nullptr;
  std::unique_ptr<PreparedQuery> prepared_;
  PartitionAssignment assignment_;
  std::unique_ptr<Cluster> cluster_;
  OptimizeOptions options_;
};

class EngineEquivalenceTest
    : public QueryOnCluster,
      public ::testing::WithParamInterface<BenchmarkQuery> {
 protected:
  void SetUp() override { Load(GetParam()); }
};

TEST_P(EngineEquivalenceTest, AllAlgorithmsSerialAndParallel) {
  for (Algorithm algorithm : kAllAlgorithms) {
    PlanNodePtr plan = Plan(algorithm);
    ASSERT_NE(plan, nullptr) << ToString(algorithm);
    for (bool parallel : {false, true}) {
      SCOPED_TRACE(ToString(algorithm) +
                   (parallel ? " parallel" : " serial"));
      Executor row(*cluster_, prepared_->join_graph(), options_.cost_params,
                   parallel, RetryPolicy{}, ExecEngine::kRow);
      Executor batch(*cluster_, prepared_->join_graph(),
                     options_.cost_params, parallel, RetryPolicy{},
                     ExecEngine::kBatch);
      ExecMetrics mr, mb;
      auto rr = row.Execute(*plan, &mr);
      auto rb = batch.Execute(*plan, &mb);
      ASSERT_TRUE(rr.ok()) << rr.status().ToString();
      ASSERT_TRUE(rb.ok()) << rb.status().ToString();
      EXPECT_TRUE(*rr == *rb) << "engines diverge: row " << rr->NumRows()
                              << " rows vs batch " << rb->NumRows();
      ExpectSameMetrics(mr, mb);
      EXPECT_EQ(mr.merge_joins, 0u);  // the row engine has no merge kernel
    }
  }
}

using MergeKernelCoverageTest = QueryOnCluster;

TEST_F(MergeKernelCoverageTest, MergeKernelRunsOnEveryDataset) {
  // Without this, row == batch above could hold with the merge kernel
  // never running, and the sweep would only compare hash joins. Not every
  // query sorts both inputs of a join on one shared variable, so the bar
  // is per dataset: summed over its queries and all seven algorithms.
  for (bool lubm : {true, false}) {
    SCOPED_TRACE(lubm ? "LUBM" : "UniProt");
    std::uint64_t merge_joins = 0;
    for (const BenchmarkQuery& bq : AllBenchmarkQueries()) {
      if (bq.lubm != lubm) continue;
      ASSERT_NO_FATAL_FAILURE(Load(bq));
      for (Algorithm algorithm : kAllAlgorithms) {
        PlanNodePtr plan = Plan(algorithm);
        ASSERT_NE(plan, nullptr) << bq.name << " " << ToString(algorithm);
        Executor batch(*cluster_, prepared_->join_graph(),
                       options_.cost_params, /*parallel_nodes=*/false,
                       RetryPolicy{}, ExecEngine::kBatch);
        ExecMetrics m;
        ASSERT_TRUE(batch.Execute(*plan, &m).ok());
        merge_joins += m.merge_joins;
      }
    }
    EXPECT_GT(merge_joins, 0u);
  }
}

TEST_P(EngineEquivalenceTest, FaultSeedsProduceIdenticalOutcomes) {
  PlanNodePtr plan = Plan(Algorithm::kTdAuto);
  ASSERT_NE(plan, nullptr);
  RetryPolicy retry;
  retry.max_attempts = 6;

  FaultPlanConfig config;
  config.crash_probability = 0.3;
  config.slow_probability = 0.25;
  config.slow_seconds = 1e-4;
  config.drop_probability = 0.1;

  // The CI chaos seeds; a fresh FaultPlan per engine replays the same
  // schedule for both.
  for (std::uint64_t seed : {2017ull, 31337ull, 987654321ull}) {
    SCOPED_TRACE(seed);
    auto run = [&](ExecEngine engine, ExecMetrics* m) {
      FaultPlan fault(seed, kNodes, config);
      Executor exec(*cluster_, prepared_->join_graph(),
                    options_.cost_params, /*parallel_nodes=*/false, retry,
                    engine);
      FaultScope scope(&fault);
      return exec.Execute(*plan, m);
    };
    ExecMetrics mr, mb;
    Result<BindingTable> rr = run(ExecEngine::kRow, &mr);
    Result<BindingTable> rb = run(ExecEngine::kBatch, &mb);
    ASSERT_EQ(rr.ok(), rb.ok())
        << "row: " << rr.status().ToString()
        << " batch: " << rb.status().ToString();
    if (rr.ok()) {
      EXPECT_TRUE(*rr == *rb);
      ExpectSameMetrics(mr, mb);
      EXPECT_EQ(mr.recovery_attempts, mb.recovery_attempts);
      EXPECT_EQ(mr.rows_reshipped, mb.rows_reshipped);
      EXPECT_EQ(mr.degraded_nodes, mb.degraded_nodes);
    } else {
      EXPECT_EQ(rr.status().code(), rb.status().code());
      EXPECT_TRUE(mr.failed);
      EXPECT_TRUE(mb.failed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Benchmark, EngineEquivalenceTest,
    ::testing::ValuesIn(AllBenchmarkQueries()),
    [](const ::testing::TestParamInfo<BenchmarkQuery>& param_info) {
      return param_info.param.name;
    });

}  // namespace
}  // namespace parqo
