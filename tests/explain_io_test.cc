// Tests for the plan-explanation renderer and CleaningProblem CSV I/O.

#include <gtest/gtest.h>

#include "claims/explain.h"
#include "claims_greedy.h"
#include "data/problem_io.h"
#include "data/synthetic.h"

namespace factcheck {
namespace {

TEST(ExplainTest, StepsAccountForAllRemovedVariance) {
  CleaningProblem p = data::MakeSynthetic(
      data::SyntheticFamily::kUniformRandom, 3,
      {.size = 12, .min_support = 2, .max_support = 3});
  PerturbationSet context = NonOverlappingWindowSumPerturbations(12, 3, 0, 1.5);
  double reference = context.original.Evaluate(p.CurrentValues());
  ClaimEvEvaluator evaluator(&p, &context, QualityMeasure::kDuplicity,
                             reference);
  Selection sel = ClaimsGreedyMinVar(evaluator, p, p.TotalCost() * 0.4);
  CleaningPlanExplanation explanation =
      ExplainSelection(p, evaluator, sel);
  EXPECT_NEAR(explanation.prior_variance, evaluator.PriorVariance(), 1e-12);
  EXPECT_NEAR(explanation.final_variance, evaluator.EV(sel.cleaned), 1e-9);
  EXPECT_EQ(explanation.steps.size(), sel.cleaned.size());
  double removed = 0.0;
  for (const PlanStep& step : explanation.steps) {
    removed += step.marginal_benefit;
    EXPECT_GE(step.marginal_benefit, -1e-9);  // EV is monotone
    EXPECT_GT(step.claims_touched, 0);
    EXPECT_FALSE(step.label.empty());
  }
  EXPECT_NEAR(removed,
              explanation.prior_variance - explanation.final_variance,
              1e-9);
}

TEST(ExplainTest, MarginalBenefitsAreOrderDependentPrefixDrops) {
  CleaningProblem p = data::MakeSynthetic(
      data::SyntheticFamily::kUniformRandom, 5,
      {.size = 9, .min_support = 2, .max_support = 3});
  PerturbationSet context = SlidingWindowSumPerturbations(9, 3, 0, 1.5);
  double reference = context.original.Evaluate(p.CurrentValues());
  ClaimEvEvaluator evaluator(&p, &context, QualityMeasure::kBias, reference);
  Selection sel;
  sel.cleaned = {1, 4, 7};
  sel.order = {4, 7, 1};
  sel.cost = p.Costs()[1] + p.Costs()[4] + p.Costs()[7];
  CleaningPlanExplanation explanation =
      ExplainSelection(p, evaluator, sel);
  ASSERT_EQ(explanation.steps.size(), 3u);
  EXPECT_EQ(explanation.steps[0].object, 4);  // uses the pick order
  EXPECT_NEAR(explanation.steps[0].ev_after, evaluator.EV({4}), 1e-12);
  EXPECT_NEAR(explanation.steps[1].ev_after, evaluator.EV({4, 7}), 1e-12);
}

TEST(ExplainTest, TextRenderingContainsSummaryAndSteps) {
  CleaningProblem p = data::MakeSynthetic(
      data::SyntheticFamily::kUniformRandom, 7,
      {.size = 9, .min_support = 2, .max_support = 3});
  PerturbationSet context = NonOverlappingWindowSumPerturbations(9, 3, 0, 1.5);
  double reference = context.original.Evaluate(p.CurrentValues());
  ClaimEvEvaluator evaluator(&p, &context, QualityMeasure::kDuplicity,
                             reference);
  Selection sel = ClaimsGreedyMinVar(evaluator, p, p.TotalCost() * 0.3);
  std::string text = ExplainSelection(p, evaluator, sel).ToText();
  EXPECT_NE(text.find("cleaning plan"), std::string::npos);
  EXPECT_NE(text.find("uncertainty:"), std::string::npos);
  EXPECT_NE(text.find("URx/"), std::string::npos);  // object labels
}

TEST(ProblemIoTest, RoundTripPreservesEverything) {
  CleaningProblem p = data::MakeSynthetic(
      data::SyntheticFamily::kLogNormal, 11,
      {.size = 20, .min_support = 1, .max_support = 6});
  std::string csv = data::ProblemToCsv(p);
  std::string error;
  auto back = data::ProblemFromCsv(csv, &error);
  ASSERT_TRUE(back.has_value()) << error;
  ASSERT_EQ(back->size(), p.size());
  for (int i = 0; i < p.size(); ++i) {
    EXPECT_EQ(back->object(i).label, p.object(i).label);
    EXPECT_DOUBLE_EQ(back->object(i).current_value,
                     p.object(i).current_value);
    EXPECT_DOUBLE_EQ(back->object(i).cost, p.object(i).cost);
    // Re-normalization on parse may perturb probabilities by an ulp.
    const auto& a = back->object(i).dist;
    const auto& b = p.object(i).dist;
    ASSERT_EQ(a.support_size(), b.support_size()) << i;
    for (int k = 0; k < a.support_size(); ++k) {
      EXPECT_DOUBLE_EQ(a.value(k), b.value(k)) << i;
      EXPECT_NEAR(a.prob(k), b.prob(k), 1e-15) << i;
    }
  }
}

TEST(ProblemIoTest, RoundTripQuotesSeparatorsInLabels) {
  // Labels containing the cell separator, the list separator, or quotes
  // used to corrupt the row structure on write; they must round-trip.
  const std::vector<std::string> labels = {
      "crimes, rev.",      // cell separator
      "a;b;c",             // list separator
      "said \"hi\"",       // embedded quotes
      ",leading",          // separator at the edge
      "trailing;",         //
      "\"already,quoted\"",  // quotes plus separator
      "plain",             //
  };
  std::vector<UncertainObject> objects;
  for (size_t i = 0; i < labels.size(); ++i) {
    UncertainObject obj;
    obj.label = labels[i];
    obj.current_value = 10.0 + i;
    obj.cost = 1.0 + i;
    obj.dist = DiscreteDistribution({9.0 + i, 11.0 + i}, {0.5, 0.5});
    objects.push_back(std::move(obj));
  }
  CleaningProblem p(std::move(objects));
  std::string csv = data::ProblemToCsv(p);
  std::string error;
  auto back = data::ProblemFromCsv(csv, &error);
  ASSERT_TRUE(back.has_value()) << error;
  ASSERT_EQ(back->size(), p.size());
  for (int i = 0; i < p.size(); ++i) {
    EXPECT_EQ(back->object(i).label, labels[i]) << i;
    EXPECT_DOUBLE_EQ(back->object(i).current_value,
                     p.object(i).current_value);
    EXPECT_DOUBLE_EQ(back->object(i).cost, p.object(i).cost);
    ASSERT_EQ(back->object(i).dist.support_size(), 2) << i;
  }
}

TEST(ProblemIoTest, RejectsMalformedRows) {
  std::string error;
  EXPECT_FALSE(data::ProblemFromCsv("", &error).has_value());
  EXPECT_FALSE(
      data::ProblemFromCsv("header\nlabel,1,1\n", &error).has_value());
  EXPECT_NE(error.find("expected 5"), std::string::npos);
  EXPECT_FALSE(
      data::ProblemFromCsv("h\nx,1,0,1;2,0.5;0.5\n", &error).has_value());
  EXPECT_NE(error.find("non-positive cost"), std::string::npos);
  EXPECT_FALSE(
      data::ProblemFromCsv("h\nx,1,1,1;2,0.5\n", &error).has_value());
  EXPECT_NE(error.find("mismatch"), std::string::npos);
  EXPECT_FALSE(
      data::ProblemFromCsv("h\nx,1,1,1;zap,0.5;0.5\n", &error).has_value());
  EXPECT_NE(error.find("bad number"), std::string::npos);
}

TEST(ProblemIoTest, NegativeProbabilityRejected) {
  std::string error;
  EXPECT_FALSE(
      data::ProblemFromCsv("h\nx,1,1,1;2,-0.5;1.5\n", &error).has_value());
  EXPECT_NE(error.find("negative probability"), std::string::npos);
}

}  // namespace
}  // namespace factcheck
