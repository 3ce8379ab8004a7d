// Cost model (Table I / Eq. 3-4) and plan construction/validation tests.

#include <gtest/gtest.h>

#include "cost/cost_model.h"
#include "optimizer/plan_validator.h"
#include "plan/plan.h"
#include "tests/test_util.h"

namespace parqo {
namespace {

using testing::Tp;

TEST(CostModelTest, TableOneFormulas) {
  CostParams p;
  p.alpha = 0.02;
  p.beta_broadcast = 0.05;
  p.beta_repartition = 0.1;
  p.gamma_local = 0.004;
  p.gamma_broadcast = 0.008;
  p.gamma_repartition = 0.005;
  p.num_nodes = 10;
  CostModel m(p);

  std::vector<double> cards{100, 300, 50};
  double sum = 450, max = 300, out = 1000;

  EXPECT_DOUBLE_EQ(m.JoinOpCost(JoinMethod::kLocal, cards, out),
                   0.02 * sum + 0.004 * out);
  EXPECT_DOUBLE_EQ(m.JoinOpCost(JoinMethod::kBroadcast, cards, out),
                   0.02 * sum + 0.05 * (sum - max) * 10 + 0.008 * out);
  EXPECT_DOUBLE_EQ(m.JoinOpCost(JoinMethod::kRepartition, cards, out),
                   0.02 * sum + 0.1 * sum + 0.005 * out);
}

TEST(CostModelTest, BroadcastCheaperWhenOneInputDominates) {
  CostModel m{CostParams{}};
  // A huge input with a tiny one: broadcasting the tiny one avoids
  // reshuffling the huge one.
  std::vector<double> cards{1e6, 10};
  double out = 1e5;
  EXPECT_LT(m.JoinOpCost(JoinMethod::kBroadcast, cards, out),
            m.JoinOpCost(JoinMethod::kRepartition, cards, out));
  // With balanced large inputs, repartition wins.
  std::vector<double> balanced{1e6, 1e6};
  EXPECT_LT(m.JoinOpCost(JoinMethod::kRepartition, balanced, out),
            m.JoinOpCost(JoinMethod::kBroadcast, balanced, out));
}

class PlanTest : public ::testing::Test {
 protected:
  PlanTest()
      : jg_({Tp("?x", "p", "?y"), Tp("?y", "q", "?z"),
             Tp("?z", "r", "?w")}),
        stats_(MakeStats()),
        est_(jg_, stats_),
        builder_(est_, CostModel(CostParams{})) {}

  QueryStatistics MakeStats() {
    QueryStatistics s(jg_);
    s.SetCardinality(0, 100);
    s.SetCardinality(1, 200);
    s.SetCardinality(2, 300);
    s.SetBindings(0, jg_.FindVar("y"), 50);
    s.SetBindings(1, jg_.FindVar("y"), 100);
    s.SetBindings(1, jg_.FindVar("z"), 100);
    s.SetBindings(2, jg_.FindVar("z"), 150);
    return s;
  }

  JoinGraph jg_;
  QueryStatistics stats_;
  CardinalityEstimator est_;
  PlanBuilder builder_;
};

TEST_F(PlanTest, ScanNodeProperties) {
  PlanNodePtr scan = builder_.Scan(1);
  EXPECT_EQ(scan->kind, PlanNode::Kind::kScan);
  EXPECT_EQ(scan->tps, TpSet::Singleton(1));
  EXPECT_DOUBLE_EQ(scan->cardinality, 200);
  EXPECT_DOUBLE_EQ(scan->total_cost, 0);
  EXPECT_EQ(scan->NumJoinOps(), 0);
  EXPECT_EQ(scan->JoinDepth(), 0);
}

TEST_F(PlanTest, JoinCostIsEquation3) {
  PlanNodePtr left = builder_.Join(
      JoinMethod::kRepartition, jg_.FindVar("y"),
      {builder_.Scan(0), builder_.Scan(1)});
  PlanNodePtr root = builder_.Join(JoinMethod::kBroadcast,
                                   jg_.FindVar("z"),
                                   {left, builder_.Scan(2)});
  // Eq. 3: total = max(children totals) + own op cost.
  EXPECT_DOUBLE_EQ(root->total_cost, left->total_cost + root->op_cost);
  EXPECT_EQ(root->NumJoinOps(), 2);
  EXPECT_EQ(root->JoinDepth(), 2);
  EXPECT_EQ(root->tps, jg_.AllTps());
}

TEST_F(PlanTest, LocalJoinAllBuildsOneOperator) {
  TpSet pair;
  pair.Add(0);
  pair.Add(1);
  PlanNodePtr local = builder_.LocalJoinAll(pair);
  EXPECT_EQ(local->method, JoinMethod::kLocal);
  EXPECT_EQ(local->children.size(), 2u);
  EXPECT_EQ(local->JoinDepth(), 1);
  // Local joins have no transfer cost component.
  std::vector<double> cards{100, 200};
  EXPECT_DOUBLE_EQ(local->op_cost,
                   builder_.cost_model().JoinOpCost(
                       JoinMethod::kLocal, cards, local->cardinality));
}

TEST_F(PlanTest, ValidateAcceptsWellFormedPlan) {
  PlanNodePtr left = builder_.Join(
      JoinMethod::kRepartition, jg_.FindVar("y"),
      {builder_.Scan(0), builder_.Scan(1)});
  PlanNodePtr root = builder_.Join(JoinMethod::kBroadcast,
                                   jg_.FindVar("z"),
                                   {left, builder_.Scan(2)});
  EXPECT_TRUE(PlanValidator(jg_, nullptr).ValidatePlan(*root).ok());
}

TEST_F(PlanTest, ValidateRejectsPartialPlans) {
  PlanNodePtr left = builder_.Join(
      JoinMethod::kRepartition, jg_.FindVar("y"),
      {builder_.Scan(0), builder_.Scan(1)});
  Status st = PlanValidator(jg_, nullptr).ValidatePlan(*left);
  EXPECT_FALSE(st.ok());
}

TEST_F(PlanTest, ValidateRejectsCartesianJoinVariable) {
  // Joining tp0 and tp2 (no shared variable) on ?y: tp2 does not contain
  // ?y, so condition 3 of Definition 3 is violated.
  PlanNodePtr bad = builder_.Join(JoinMethod::kRepartition,
                                  jg_.FindVar("y"),
                                  {builder_.Scan(0), builder_.Scan(2)});
  PlanNodePtr root = builder_.Join(JoinMethod::kRepartition,
                                   jg_.FindVar("z"),
                                   {bad, builder_.Scan(1)});
  EXPECT_FALSE(PlanValidator(jg_, nullptr).ValidatePlan(*root).ok());
}

TEST_F(PlanTest, ValidateChecksLocalityWhenIndexGiven) {
  TpSet pair;
  pair.Add(0);
  pair.Add(1);
  PlanNodePtr local = builder_.LocalJoinAll(pair);
  PlanNodePtr root = builder_.Join(JoinMethod::kRepartition,
                                   jg_.FindVar("z"),
                                   {local, builder_.Scan(2)});
  // With an index that says nothing is local, the plan is invalid.
  LocalQueryIndex none = LocalQueryIndex::None(jg_.num_tps());
  EXPECT_FALSE(PlanValidator(jg_, &none).ValidatePlan(*root).ok());
  // With an index making {tp0, tp1} local, it passes.
  LocalQueryIndex index({pair});
  EXPECT_TRUE(PlanValidator(jg_, &index).ValidatePlan(*root).ok());
}

TEST_F(PlanTest, PrintingContainsStructure) {
  PlanNodePtr root = builder_.Join(
      JoinMethod::kRepartition, jg_.FindVar("y"),
      {builder_.Scan(0), builder_.Scan(1)});
  std::string s = PlanToString(*root, jg_);
  EXPECT_NE(s.find("JoinR"), std::string::npos);
  EXPECT_NE(s.find("Scan tp0"), std::string::npos);
  EXPECT_NE(s.find("?y"), std::string::npos);
  EXPECT_EQ(PlanToCompactString(*root), "(tp0 *R tp1)");
}

}  // namespace
}  // namespace parqo
