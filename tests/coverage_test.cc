// Edge-case and configuration coverage that the per-module suites don't
// exercise: solver fallback paths, cost-blind variants, order completion,
// direction sign conventions, and degenerate budgets.

#include <gtest/gtest.h>

#include "claims/counter.h"
#include "claims/ev_fast.h"
#include "claims_greedy.h"
#include "core/greedy.h"
#include "core/partial.h"
#include "data/synthetic.h"
#include "submodular/issc.h"
#include "util/random.h"

namespace factcheck {
namespace {

TEST(IsscFallbackTest, GreedyMinKnapsackSolverWorks) {
  // cost_scale <= 0 switches ISSC's inner solver from the DP to the
  // covering greedy; results must stay feasible and sane.
  std::vector<double> weights = {10, 1, 5, 3};
  std::vector<double> costs = {4, 3, 2, 5};
  LambdaSetFunction g(4, [&](const std::vector<int>& t) {
    double acc = 0;
    for (int i : t) acc += weights[i];
    return acc;
  });
  IsscOptions options;
  options.cost_scale = 0.0;
  std::vector<int> t = MinimizeSubmodularCover(g, costs, 7.0, options);
  double cost = 0;
  for (int i : t) cost += costs[i];
  EXPECT_GE(cost, 7.0 - 1e-9);
  EXPECT_LE(g.Value(t), 8.0);  // well under taking everything (19)
}

TEST(AdaptiveGreedyTest, CostBlindVariantIgnoresCosts) {
  // Item 1 has a huge benefit but huge cost; cost-aware greedy prefers the
  // cheap item first, cost-blind goes straight for the big one.
  std::vector<double> gain = {1.0, 5.0};
  std::vector<double> costs = {1.0, 100.0};
  SetObjective objective = [&](const std::vector<int>& t) {
    double acc = 0;
    for (int i : t) acc += gain[i];
    return acc;
  };
  GreedyOptions blind;
  blind.cost_aware = false;
  Selection b = AdaptiveGreedyMaximize(costs, 101.0, objective, blind);
  ASSERT_FALSE(b.order.empty());
  EXPECT_EQ(b.order[0], 1);
  Selection aware = AdaptiveGreedyMaximize(costs, 101.0, objective);
  ASSERT_FALSE(aware.order.empty());
  EXPECT_EQ(aware.order[0], 0);
}

TEST(ZeroBudgetTest, EverySelectorReturnsEmpty) {
  CleaningProblem p = data::MakeSynthetic(
      data::SyntheticFamily::kUniformRandom, 3, {.size = 8});
  LinearQueryFunction f = LinearQueryFunction::FromDense(
      std::vector<double>(8, 1.0));
  Rng rng(3);
  EXPECT_TRUE(RandomSelect(p.Costs(), 0.0, rng).cleaned.empty());
  EXPECT_TRUE(GreedyNaive(f, p, 0.0).cleaned.empty());
  EXPECT_TRUE(GreedyMinVarLinearIndependent(f, p.Variances(), p.Costs(), 0.0)
                  .cleaned.empty());
  PerturbationSet context = NonOverlappingWindowSumPerturbations(8, 2, 0, 1.5);
  ClaimEvEvaluator evaluator(&p, &context, QualityMeasure::kDuplicity, 100.0);
  EXPECT_TRUE(ClaimsGreedyMinVar(evaluator, p, 0.0).cleaned.empty());
}

TEST(StaticGreedyTest, AllZeroBenefitsSelectNothing) {
  Selection sel = StaticGreedy({0, 0, 0}, {1, 1, 1}, 10.0);
  EXPECT_TRUE(sel.cleaned.empty());
}

TEST(CompleteOrderTest, AppendsMissingByFallbackScore) {
  std::vector<int> order = {2, 0};
  std::vector<double> score = {0.1, 0.9, 0.2, 0.5};
  std::vector<int> completed = CompleteOrder(order, score);
  EXPECT_EQ(completed, (std::vector<int>{2, 0, 1, 3}));
}

TEST(CompleteOrderTest, DeduplicatesAndHandlesEmpty) {
  std::vector<double> score = {0.3, 0.1};
  EXPECT_EQ(CompleteOrder({1, 1, 1}, score), (std::vector<int>{1, 0}));
  EXPECT_EQ(CompleteOrder({}, score), (std::vector<int>{0, 1}));
}

TEST(DirectionSignTest, BiasFlipsSignWithDirection) {
  // Under kLowerIsStronger, a perturbation above the reference weakens
  // the claim: bias contribution becomes negative.
  EXPECT_GT(QualityTransform(QualityMeasure::kBias, 12.0, 10.0, 1.0,
                             StrengthDirection::kHigherIsStronger),
            0.0);
  EXPECT_LT(QualityTransform(QualityMeasure::kBias, 12.0, 10.0, 1.0,
                             StrengthDirection::kLowerIsStronger),
            0.0);
}

TEST(DirectionSignTest, FragilityPenalizesOppositeTails) {
  // Higher-is-stronger: q below reference is fragile.
  EXPECT_GT(QualityTransform(QualityMeasure::kFragility, 8.0, 10.0, 1.0,
                             StrengthDirection::kHigherIsStronger),
            0.0);
  EXPECT_DOUBLE_EQ(
      QualityTransform(QualityMeasure::kFragility, 12.0, 10.0, 1.0,
                       StrengthDirection::kHigherIsStronger),
      0.0);
  // Lower-is-stronger: q above reference is fragile.
  EXPECT_GT(QualityTransform(QualityMeasure::kFragility, 12.0, 10.0, 1.0,
                             StrengthDirection::kLowerIsStronger),
            0.0);
  EXPECT_DOUBLE_EQ(
      QualityTransform(QualityMeasure::kFragility, 8.0, 10.0, 1.0,
                       StrengthDirection::kLowerIsStronger),
      0.0);
}

TEST(PartialCleanDeathTest, RetentionOneRejected) {
  CleaningProblem p = data::MakeSynthetic(
      data::SyntheticFamily::kUniformRandom, 3, {.size = 2});
  EXPECT_DEATH(PartialClean(p, 0, 1.0, 1.0), "CHECK failed");
}

TEST(SelectionInvariantTest, FinalCheckPreservesOrderConsistency) {
  // When the final check swaps the set for a single item, order must
  // reflect the swap too.
  Selection sel = StaticGreedy({0.1, 10.0}, {0.0001, 2.0}, 2.0);
  EXPECT_EQ(sel.cleaned, (std::vector<int>{1}));
  EXPECT_EQ(sel.order, (std::vector<int>{1}));
}

TEST(EvaluatorReuseTest, SameEvaluatorServesManyBudgets) {
  // The figure benches reuse one evaluator across an entire budget sweep;
  // results must match fresh evaluators at every point.
  CleaningProblem p = data::MakeSynthetic(
      data::SyntheticFamily::kUniformRandom, 11,
      {.size = 12, .min_support = 2, .max_support = 3});
  PerturbationSet context = NonOverlappingWindowSumPerturbations(12, 3, 0, 1.5);
  ClaimEvEvaluator shared(&p, &context, QualityMeasure::kDuplicity, 150.0);
  for (double frac : {0.1, 0.3, 0.7}) {
    ClaimEvEvaluator fresh(&p, &context, QualityMeasure::kDuplicity, 150.0);
    double budget = p.TotalCost() * frac;
    Selection a = ClaimsGreedyMinVar(shared, p, budget);
    Selection b = ClaimsGreedyMinVar(fresh, p, budget);
    EXPECT_NEAR(shared.EV(a.cleaned), fresh.EV(b.cleaned), 1e-12);
  }
}

}  // namespace
}  // namespace factcheck
