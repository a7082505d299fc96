// Robustness sweeps: malformed inputs must fail cleanly (no crashes, no
// aborts on user data), and randomized differential checks tie the fast
// evaluators to Monte Carlo ground truth on instance shapes the unit
// suites don't generate.

#include <gtest/gtest.h>

#include "claims/ev_fast.h"
#include "claims_greedy.h"
#include "data/problem_io.h"
#include "data/synthetic.h"
#include "montecarlo/sampler.h"
#include "relational/csv.h"
#include "util/random.h"

namespace factcheck {
namespace {

std::string RandomGarbage(Rng& rng, int length) {
  static const char kAlphabet[] =
      "abc019,;.\n\r\t -+eE\"'NaNinf";
  std::string out;
  for (int i = 0; i < length; ++i) {
    out += kAlphabet[rng.UniformInt(0, sizeof(kAlphabet) - 2)];
  }
  return out;
}

TEST(FuzzTest, CsvParserNeverCrashesOnGarbage) {
  Rng rng(404);
  for (int trial = 0; trial < 300; ++trial) {
    std::string garbage = RandomGarbage(rng, rng.UniformInt(0, 120));
    std::string error;
    auto table = TableFromCsv(
        garbage, {ColumnType::kInt, ColumnType::kDouble}, &error);
    if (!table.has_value()) {
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST(FuzzTest, CsvParserAcceptsOnlyConsistentRows) {
  // Random near-valid inputs: header plus rows of random arity.
  Rng rng(405);
  for (int trial = 0; trial < 100; ++trial) {
    std::string csv = "a,b\n";
    int rows = rng.UniformInt(0, 5);
    bool all_ok = true;
    for (int r = 0; r < rows; ++r) {
      int cells = rng.UniformInt(1, 3);
      if (cells != 2) all_ok = false;
      for (int c = 0; c < cells; ++c) {
        if (c) csv += ",";
        csv += std::to_string(rng.UniformInt(0, 99));
      }
      csv += "\n";
    }
    auto table = TableFromCsv(csv, {ColumnType::kInt, ColumnType::kInt});
    EXPECT_EQ(table.has_value(), all_ok) << csv;
  }
}

TEST(FuzzTest, ProblemIoNeverCrashesOnGarbage) {
  Rng rng(406);
  for (int trial = 0; trial < 300; ++trial) {
    std::string garbage =
        "label,current,cost,support,probs\n" +
        RandomGarbage(rng, rng.UniformInt(0, 150));
    std::string error;
    auto problem = data::ProblemFromCsv(garbage, &error);
    if (!problem.has_value()) {
      EXPECT_FALSE(error.empty());
    } else {
      // Whatever parsed must be a valid instance.
      EXPECT_GT(problem->size(), 0);
      for (int i = 0; i < problem->size(); ++i) {
        EXPECT_GT(problem->object(i).cost, 0.0);
      }
    }
  }
}

class DifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialTest, FastEvMatchesMonteCarloOnWiderInstances) {
  // Instances wider than the exact-enumeration cross-checks can afford:
  // 30 objects, sliding windows of width 5 (heavy pair structure).
  uint64_t seed = GetParam();
  CleaningProblem p = data::MakeSynthetic(
      data::SyntheticFamily::kUniformRandom, seed,
      {.size = 30, .min_support = 2, .max_support = 5});
  PerturbationSet context = SlidingWindowSumPerturbations(30, 5, 0, 1.2);
  double reference = context.original.Evaluate(p.CurrentValues());
  ClaimEvEvaluator fast(&p, &context, QualityMeasure::kDuplicity, reference);
  ClaimQualityFunction f(&context, QualityMeasure::kDuplicity, reference);
  Rng rng(seed * 3 + 11);
  std::vector<int> cleaned = rng.SampleWithoutReplacement(30, 8);
  double exact = fast.EV(cleaned);
  Rng mc_rng(seed);
  double mc = MonteCarloEV(f, p, cleaned, 250, 250, mc_rng);
  // MC has sampling noise; demand agreement within a loose band.
  EXPECT_NEAR(mc, exact, 0.25 * (1.0 + exact)) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest, ::testing::Range(1, 7));

TEST(FuzzTest, EvaluatorHandlesDegenerateDistributionShapes) {
  // Mixtures of point masses, two-atom coins and wide supports.
  Rng rng(407);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<UncertainObject> objects(9);
    for (int i = 0; i < 9; ++i) {
      int shape = rng.UniformInt(0, 2);
      if (shape == 0) {
        objects[i].dist =
            DiscreteDistribution::PointMass(rng.Uniform(1, 100));
      } else if (shape == 1) {
        double v = rng.Uniform(1, 100);
        objects[i].dist =
            DiscreteDistribution({v, v + rng.Uniform(0.1, 50)},
                                 {rng.Uniform(0.01, 0.99), 1.0});
      } else {
        std::vector<double> values, probs;
        for (int k = 0; k < 6; ++k) {
          values.push_back(rng.Uniform(1, 100));
          probs.push_back(rng.Uniform(0.01, 1.0));
        }
        objects[i].dist =
            DiscreteDistribution(std::move(values), std::move(probs));
      }
      objects[i].current_value = objects[i].dist.Mean();
      objects[i].cost = rng.Uniform(0.5, 5);
    }
    CleaningProblem p(std::move(objects));
    PerturbationSet context = SlidingWindowSumPerturbations(9, 3, 0, 1.5);
    double reference = context.original.Evaluate(p.CurrentValues());
    ClaimEvEvaluator fast(&p, &context, QualityMeasure::kFragility,
                          reference);
    double prior = fast.PriorVariance();
    EXPECT_GE(prior, 0.0);
    Selection sel = ClaimsGreedyMinVar(fast, p, p.TotalCost());
    EXPECT_LE(fast.EV(sel.cleaned), prior + 1e-9);
  }
}

}  // namespace
}  // namespace factcheck
