// Join-graph reduction (Section IV-B) and HGR-TD-CMD tests.

#include "optimizer/hgr_td_cmd.h"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "optimizer/cbd_enumerator.h"
#include "optimizer/grouped_graph.h"
#include "optimizer/join_graph_reduction.h"
#include "optimizer/plan_validator.h"
#include "optimizer/td_cmd.h"
#include "partition/hash_so.h"
#include "partition/path_bmc.h"
#include "tests/optimizer_test_util.h"
#include "tests/test_util.h"

namespace parqo {
namespace {

using testing::Figure1Query;
using testing::QueryFixture;

TEST(ConnectedSubqueryEnumerationTest, CountsAndConnectivity) {
  JoinGraph jg(Figure1Query());
  std::vector<TpSet> subs =
      EnumerateConnectedSubqueries(jg, jg.AllTps(), 100000);
  // Every result is connected and within range; all distinct.
  std::set<std::uint64_t> seen;
  for (TpSet s : subs) {
    EXPECT_TRUE(jg.IsConnected(s)) << s.ToString();
    EXPECT_TRUE(seen.insert(s.bits()).second);
  }
  // Brute-force count of connected subsets.
  std::size_t expected = 0;
  for (std::uint64_t sub = 1; sub < (1ull << jg.num_tps()); ++sub) {
    if (jg.IsConnected(TpSet(sub))) ++expected;
  }
  EXPECT_EQ(subs.size(), expected);
}

TEST(ConnectedSubqueryEnumerationTest, CapIsHonored) {
  JoinGraph jg(Figure1Query());
  std::vector<TpSet> subs =
      EnumerateConnectedSubqueries(jg, jg.AllTps(), 5);
  EXPECT_EQ(subs.size(), 5u);
}

TEST(JgrTest, GroupsAreDisjointLocalAndCovering) {
  JoinGraph jg(Figure1Query());
  QueryGraph qg(jg);
  HashSoPartitioner hash;
  LocalQueryIndex index(qg, hash);

  QueryStatistics stats(jg);
  for (int tp = 0; tp < jg.num_tps(); ++tp) {
    stats.SetCardinality(tp, 100 + tp);
    // Flat binding counts keep join estimates near the input sizes, so
    // the greedy ratio favors larger local groups.
    for (VarId v : jg.VarsOf(tp)) stats.SetBindings(tp, v, 100 + tp);
  }
  CardinalityEstimator est(jg, std::move(stats));

  JgrResult jgr = ReduceJoinGraph(jg, index, est, 4096);
  TpSet covered;
  for (TpSet g : jgr.groups) {
    EXPECT_FALSE(g.Empty());
    EXPECT_FALSE(g.Intersects(covered));
    covered |= g;
    EXPECT_TRUE(jg.IsConnected(g)) << g.ToString();
    EXPECT_TRUE(index.IsLocal(g)) << g.ToString();
  }
  EXPECT_EQ(covered, jg.AllTps());
  // Hash-SO collapses the Figure 1 query below 7 singleton groups.
  EXPECT_LT(jgr.groups.size(), 7u);
}

TEST(JgrTest, TieBreakIsCanonicalNotHashOrder) {
  // Regression: the greedy cover used to scan candidates in the pool's
  // unordered_set hash order, so when two candidates tied on
  // (ratio, gain) the grouping — and with it the final plan — depended
  // on hash order. Minimized trigger: a 6-pattern chain with the two
  // overlapping MLQ pairs {tp2,tp3} and {tp3,tp4}, which tie exactly
  // under flat statistics. Canonical (sorted-by-bits) order must group
  // {tp2,tp3} — the pool's hash order picked {tp3,tp4} here.
  std::vector<TriplePattern> chain{
      testing::Tp("?a", "<p1>", "?b"), testing::Tp("?b", "<p2>", "?c"),
      testing::Tp("?c", "<p3>", "?d"), testing::Tp("?d", "<p4>", "?e"),
      testing::Tp("?e", "<p5>", "?f"), testing::Tp("?f", "<p6>", "?g")};
  JoinGraph jg(chain);

  TpSet mid_lo;  // {2,3} = bits 12
  mid_lo.Add(2);
  mid_lo.Add(3);
  TpSet mid_hi;  // {3,4} = bits 24
  mid_hi.Add(3);
  mid_hi.Add(4);
  LocalQueryIndex index({mid_lo, mid_hi});

  QueryStatistics flat(jg);
  for (int tp = 0; tp < jg.num_tps(); ++tp) {
    flat.SetCardinality(tp, 100);
    for (VarId v : jg.VarsOf(tp)) flat.SetBindings(tp, v, 100);
  }
  CardinalityEstimator est(jg, std::move(flat));

  JgrResult jgr = ReduceJoinGraph(jg, index, est, 4096);
  std::vector<TpSet> expected{mid_lo, TpSet::Singleton(0),
                              TpSet::Singleton(1), TpSet::Singleton(4),
                              TpSet::Singleton(5)};
  EXPECT_EQ(jgr.groups, expected);
}

TEST(GroupedGraphTest, ReducedStructure) {
  JoinGraph jg(Figure1Query());
  // Groups: {tp1,tp2,tp3,tp7} (the ?a star) / {tp5} / {tp6} / {tp4}.
  TpSet star_a;
  star_a.Add(0);
  star_a.Add(1);
  star_a.Add(2);
  star_a.Add(6);
  std::vector<TpSet> groups{star_a, TpSet::Singleton(4),
                            TpSet::Singleton(5), TpSet::Singleton(3)};
  GroupedJoinGraph gg(jg, groups);
  EXPECT_EQ(gg.num_tps(), 4);
  EXPECT_TRUE(gg.IsConnected(gg.AllTps()));
  // Reduced join variables: ?b (group0-tp5), ?c (group0-tp6),
  // ?d (group0-tp6), ?e (group0-tp4). ?a is internal to group 0.
  EXPECT_EQ(gg.join_vars().size(), 4u);
  EXPECT_EQ(gg.ExpandTps(gg.AllTps()), jg.AllTps());
  EXPECT_EQ(gg.GroupTps(0), star_a);
  // Every reduced join variable touches group 0.
  for (VarId v : gg.join_vars()) {
    EXPECT_TRUE(gg.Ntp(v).Contains(0));
    EXPECT_EQ(gg.Degree(v, gg.AllTps()), 2);
  }
}

TEST(GroupedGraphTest, CbdEnumerationMatchesBruteForceOnGroups) {
  // Algorithm 2 must be exact on the reduced graph too: compare against
  // subset enumeration using the grouped graph's own connectivity.
  JoinGraph jg(testing::Figure1Query());
  TpSet star_a;
  star_a.Add(0);
  star_a.Add(1);
  star_a.Add(2);
  star_a.Add(6);
  GroupedJoinGraph gg(jg, {star_a, TpSet::Singleton(4),
                           TpSet::Singleton(5), TpSet::Singleton(3)});

  for (VarId vj : gg.join_vars()) {
    if (gg.Degree(vj, gg.AllTps()) < 2) continue;
    // Brute force over group subsets.
    std::set<std::pair<std::uint64_t, std::uint64_t>> expected;
    TpSet all = gg.AllTps();
    TpSet ntp = gg.Ntp(vj) & all;
    for (std::uint64_t sub = (all.bits() - 1) & all.bits(); sub != 0;
         sub = (sub - 1) & all.bits()) {
      TpSet a(sub);
      TpSet b = all - a;
      if (b.Empty()) continue;
      if (!a.Intersects(ntp) || !b.Intersects(ntp)) continue;
      if (!gg.IsConnected(a) || !gg.IsConnected(b)) continue;
      auto [x, y] = testing::CanonicalCbd(all, a, b);
      expected.emplace(x.bits(), y.bits());
    }
    std::set<std::pair<std::uint64_t, std::uint64_t>> got;
    EnumerateCbds(gg, all, vj, [&](TpSet a, TpSet b) {
      auto [x, y] = testing::CanonicalCbd(all, a, b);
      EXPECT_TRUE(got.emplace(x.bits(), y.bits()).second)
          << "duplicate cbd on reduced graph";
      return true;
    });
    EXPECT_EQ(got, expected) << "var " << jg.var_name(vj);
  }
}

TEST(HgrTest, ProducesValidPlansAndShrinksSearchSpace) {
  for (QueryShape shape :
       {QueryShape::kTree, QueryShape::kDense, QueryShape::kStar}) {
    Rng rng(31);
    GeneratedQuery q = GenerateRandomQuery(shape, 12, rng);
    QueryFixture fx(q);
    OptimizeOptions options;
    OptimizeResult hgr = RunHgrTdCmd(fx.inputs(), options);
    ASSERT_NE(hgr.plan, nullptr) << ToString(shape);
    EXPECT_TRUE(PlanValidator(fx.jg(), fx.inputs().local_index)
                    .ValidatePlan(*hgr.plan)
                    .ok())
        << ToString(shape);

    QueryFixture fx2(q);
    OptimizeResult full = RunTdCmd(fx2.inputs(), options, false);
    ASSERT_NE(full.plan, nullptr);
    EXPECT_LE(hgr.enumerated, full.enumerated) << ToString(shape);
    // The reduced space cannot beat the full optimum.
    EXPECT_GE(hgr.plan->total_cost, full.plan->total_cost)
        << ToString(shape);
  }
}

TEST(HgrTest, FullyLocalQueryCollapsesToOneGroup) {
  // Under Path-BMC a chain query is a single local query; with uniform
  // statistics (flat 1000-row estimates, so the greedy ratio strictly
  // favors coverage) HGR collapses it to one group and returns the
  // one-operator local plan without any enumeration.
  Rng rng(32);
  GeneratedQuery q = GenerateRandomQuery(QueryShape::kChain, 6, rng);
  JoinGraph jg(q.patterns);
  QueryGraph qg(jg);
  PathBmcPartitioner path;
  LocalQueryIndex index(qg, path);
  QueryStatistics flat(jg);
  for (int tp = 0; tp < jg.num_tps(); ++tp) {
    flat.SetCardinality(tp, 1000);
    for (VarId v : jg.VarsOf(tp)) flat.SetBindings(tp, v, 1000);
  }
  CardinalityEstimator est(jg, std::move(flat));
  OptimizerInputs in;
  in.join_graph = &jg;
  in.query_graph = &qg;
  in.local_index = &index;
  in.estimator = &est;

  OptimizeResult r = RunHgrTdCmd(in, OptimizeOptions{});
  ASSERT_NE(r.plan, nullptr);
  EXPECT_EQ(r.plan->method, JoinMethod::kLocal);
  EXPECT_EQ(r.enumerated, 0u);
  EXPECT_TRUE(PlanValidator(jg, &index).ValidatePlan(*r.plan).ok());
}

}  // namespace
}  // namespace parqo
