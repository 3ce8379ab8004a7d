// MSC and DP-Bushy baseline tests, plus TD-Auto's decision tree and the
// cross-algorithm optimality property (TD-CMD enumerates a superset of
// every other algorithm's plan space, so its plan cost lower-bounds all
// of them).

#include <gtest/gtest.h>

#include "common/rng.h"
#include "optimizer/dp_bushy.h"
#include "optimizer/msc.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan_validator.h"
#include "optimizer/td_auto.h"
#include "optimizer/td_cmd.h"
#include <functional>

#include "tests/optimizer_test_util.h"
#include "tests/test_util.h"

namespace parqo {
namespace {

using testing::QueryFixture;

TEST(MscTest, ChainHasExactlyOneFlatPlan) {
  // Table VII: MSC enumerates exactly one plan for the 8-pattern chain
  // (the unique perfect tiling by adjacent pairs at every level).
  Rng rng(41);
  QueryFixture fx(GenerateRandomQuery(QueryShape::kChain, 8, rng),
                  /*use_hash_locality=*/false);
  OptimizeResult r = RunMsc(fx.inputs(), OptimizeOptions{});
  ASSERT_NE(r.plan, nullptr);
  EXPECT_EQ(r.enumerated, 1u);
  EXPECT_TRUE(PlanValidator(fx.jg(), nullptr).ValidatePlan(*r.plan).ok());
  // Flat: 8 -> 4 -> 2 -> 1 relations = 3 join levels.
  EXPECT_EQ(r.plan->JoinDepth(), 3);
}

TEST(MscTest, PlansAreFlatterThanLeftDeep) {
  Rng rng(42);
  QueryFixture fx(GenerateRandomQuery(QueryShape::kTree, 9, rng));
  OptimizeResult r = RunMsc(fx.inputs(), OptimizeOptions{});
  ASSERT_NE(r.plan, nullptr);
  EXPECT_TRUE(PlanValidator(fx.jg(), fx.inputs().local_index)
                  .ValidatePlan(*r.plan)
                  .ok());
  // A flat plan of a 9-pattern query needs at most ceil(log2(9)) + 1
  // levels of k-way joins.
  EXPECT_LE(r.plan->JoinDepth(), 5);
}

TEST(MscTest, NeverUsesBroadcastJoins) {
  for (QueryShape shape : {QueryShape::kChain, QueryShape::kTree,
                           QueryShape::kDense}) {
    Rng rng(43);
    QueryFixture fx(GenerateRandomQuery(shape, 8, rng));
    OptimizeResult r = RunMsc(fx.inputs(), OptimizeOptions{});
    ASSERT_NE(r.plan, nullptr) << ToString(shape);
    std::function<void(const PlanNode&)> check = [&](const PlanNode& n) {
      if (n.kind == PlanNode::Kind::kJoin) {
        EXPECT_NE(n.method, JoinMethod::kBroadcast);
      }
      for (const PlanNodePtr& c : n.children) check(*c);
    };
    check(*r.plan);
  }
}

TEST(MscTest, RespectsPlanCap) {
  Rng rng(44);
  QueryFixture fx(GenerateRandomQuery(QueryShape::kDense, 10, rng));
  OptimizeOptions options;
  options.msc_plan_cap = 3;
  OptimizeResult r = RunMsc(fx.inputs(), options);
  EXPECT_LE(r.enumerated, 3u);
  EXPECT_NE(r.plan, nullptr);  // best-so-far still returned
}

TEST(DpBushyTest, ProducesValidPlans) {
  for (QueryShape shape : {QueryShape::kChain, QueryShape::kCycle,
                           QueryShape::kTree, QueryShape::kDense}) {
    Rng rng(45);
    QueryFixture fx(GenerateRandomQuery(shape, 8, rng));
    OptimizeResult r = RunDpBushy(fx.inputs(), OptimizeOptions{});
    ASSERT_NE(r.plan, nullptr) << ToString(shape);
    EXPECT_TRUE(PlanValidator(fx.jg(), fx.inputs().local_index)
                    .ValidatePlan(*r.plan)
                    .ok())
        << ToString(shape);
    EXPECT_GT(r.enumerated, 0u);
  }
}

TEST(DpBushyTest, ChainBinarySplitsMatchTdCmdSpace) {
  // For chains every cmd is binary and DP-Bushy's valid splits coincide
  // with the cbds, so the enumerated counts agree.
  Rng rng(46);
  GeneratedQuery q = GenerateRandomQuery(QueryShape::kChain, 8, rng);
  QueryFixture fx1(q, false), fx2(q, false);
  OptimizeResult dp = RunDpBushy(fx1.inputs(), OptimizeOptions{});
  OptimizeResult td = RunTdCmd(fx2.inputs(), OptimizeOptions{}, false);
  EXPECT_EQ(dp.enumerated, td.enumerated);
}

TEST(DpBushyTest, ExploresFewerPlansOnDenseQueries) {
  // Table VII: DP-Bushy's space is far smaller than TD-CMD's on dense
  // queries (it misses most multi-way divisions).
  Rng rng(47);
  GeneratedQuery q = GenerateRandomQuery(QueryShape::kDense, 10, rng);
  QueryFixture fx1(q, false), fx2(q, false);
  OptimizeResult dp = RunDpBushy(fx1.inputs(), OptimizeOptions{});
  OptimizeResult td = RunTdCmd(fx2.inputs(), OptimizeOptions{}, false);
  ASSERT_FALSE(td.timed_out);
  EXPECT_LT(dp.enumerated, td.enumerated);
}

TEST(TdAutoTest, DecisionTreeFollowsFigure5) {
  OptimizeOptions options;  // theta_d=5, theta_n=30, lambda_n=14
  Rng rng(48);

  // Chain: ratio >= 1, low degrees -> TD-CMD.
  {
    JoinGraph jg(GenerateRandomQuery(QueryShape::kChain, 10, rng).patterns);
    EXPECT_EQ(TdAutoChoice(jg, options), Algorithm::kTdCmd);
  }
  // Star with 10 patterns: degree 10 >= theta_d, 10 < theta_n -> TD-CMDP.
  {
    JoinGraph jg(GenerateRandomQuery(QueryShape::kStar, 10, rng).patterns);
    EXPECT_EQ(TdAutoChoice(jg, options), Algorithm::kTdCmdp);
  }
  // Star with 32 patterns: degree high, size >= theta_n -> HGR.
  {
    JoinGraph jg(GenerateRandomQuery(QueryShape::kStar, 32, rng).patterns);
    EXPECT_EQ(TdAutoChoice(jg, options), Algorithm::kHgrTdCmd);
  }
  // Dense with many cycles (ratio < 1): small -> TD-CMD, large -> HGR.
  // K4-style: every pair of the four patterns shares a distinct
  // variable, giving 6 join variables over 4 patterns.
  {
    std::vector<TriplePattern> k4{
        testing::Tp("?x", "?y", "?z"), testing::Tp("?x", "?u", "?v"),
        testing::Tp("?y", "?u", "?w"), testing::Tp("?z", "?v", "?w")};
    JoinGraph jg(k4);
    ASSERT_LT(TpToJoinVarRatio(jg), 1.0);
    EXPECT_EQ(TdAutoChoice(jg, options), Algorithm::kTdCmd);
    OptimizeOptions tight = options;
    tight.lambda_n = 3;
    EXPECT_EQ(TdAutoChoice(jg, tight), Algorithm::kHgrTdCmd);
  }
}

TEST(TdAutoTest, ReportsTheAlgorithmUsed) {
  Rng rng(49);
  QueryFixture fx(GenerateRandomQuery(QueryShape::kChain, 8, rng));
  OptimizeResult r = RunTdAuto(fx.inputs(), OptimizeOptions{});
  ASSERT_NE(r.plan, nullptr);
  EXPECT_EQ(r.algorithm_used, Algorithm::kTdCmd);
}

// TD-CMD's plan space is a superset of every other algorithm's, so with
// the shared cost model its plan cost is a lower bound for all of them.
struct OptimalityCase {
  QueryShape shape;
  int n;
  std::uint64_t seed;
};

class OptimalityTest : public ::testing::TestWithParam<OptimalityCase> {};

TEST_P(OptimalityTest, TdCmdLowerBoundsEveryAlgorithm) {
  Rng rng(GetParam().seed);
  GeneratedQuery q =
      GenerateRandomQuery(GetParam().shape, GetParam().n, rng);
  QueryFixture reference_fx(q);
  OptimizeOptions options;
  OptimizeResult reference =
      Optimize(Algorithm::kTdCmd, reference_fx.inputs(), options);
  ASSERT_NE(reference.plan, nullptr);

  for (Algorithm algo :
       {Algorithm::kTdCmdp, Algorithm::kHgrTdCmd, Algorithm::kTdAuto,
        Algorithm::kMsc, Algorithm::kDpBushy, Algorithm::kBinaryDp}) {
    QueryFixture fx(q);
    OptimizeResult r = Optimize(algo, fx.inputs(), options);
    ASSERT_NE(r.plan, nullptr) << ToString(algo);
    EXPECT_TRUE(PlanValidator(fx.jg(), fx.inputs().local_index)
                    .ValidatePlan(*r.plan)
                    .ok())
        << ToString(algo);
    EXPECT_GE(r.plan->total_cost, reference.plan->total_cost - 1e-9)
        << ToString(algo);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, OptimalityTest,
    ::testing::Values(OptimalityCase{QueryShape::kStar, 6, 51},
                      OptimalityCase{QueryShape::kChain, 8, 52},
                      OptimalityCase{QueryShape::kCycle, 8, 53},
                      OptimalityCase{QueryShape::kTree, 9, 54},
                      OptimalityCase{QueryShape::kTree, 11, 55},
                      OptimalityCase{QueryShape::kDense, 8, 56},
                      OptimalityCase{QueryShape::kDense, 10, 57}),
    [](const ::testing::TestParamInfo<OptimalityCase>& param_info) {
      return ToString(param_info.param.shape) +
             std::to_string(param_info.param.n);
    });

}  // namespace
}  // namespace parqo
