// Ablations of the design choices DESIGN.md calls out:
//   1. Algorithm 1's final single-item check (lines 5-8): on vs off, on
//      adversarial density-trap instances and on the real workloads.
//   2. Pair-covariance terms in the Theorem-3.8 evaluator: cost of
//      overlapping vs non-overlapping perturbation sets at equal m.
//   3. Incremental benefit maintenance vs generic O(n^2) adaptive greedy.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "claims/ev_fast.h"
#include "core/greedy.h"
#include "knapsack/knapsack.h"
#include "core/modular.h"
#include "data/adoptions.h"
#include "data/synthetic.h"
#include "util/stopwatch.h"

using namespace factcheck;
using namespace factcheck::bench;

namespace {

// Algorithm 1 with incremental benefit maintenance: the engine greedy on
// the evaluator's incremental objective.
Selection IncrementalGreedy(const ClaimEvEvaluator& evaluator,
                            const CleaningProblem& problem, double budget) {
  std::unique_ptr<IncrementalObjective> incremental =
      evaluator.MakeIncremental();
  GreedyOptions options;
  options.incremental = incremental.get();
  return AdaptiveGreedyMinimize(
      problem.Costs(), budget,
      [&](const std::vector<int>& t) { return evaluator.EV(t); }, options);
}

void AblateFinalCheck(TablePrinter& table) {
  // Density-trap family: one tiny high-density item, one big item.
  Rng rng(3);
  int traps_fixed = 0;
  const int kTrials = 100;
  for (int t = 0; t < kTrials; ++t) {
    double big_value = rng.Uniform(5, 20);
    std::vector<double> values = {rng.Uniform(0.01, 0.2), big_value};
    std::vector<double> costs = {rng.Uniform(1e-4, 1e-2), 2.0};
    GreedyOptions no_check;
    no_check.final_check = false;
    Selection with = StaticGreedy(values, costs, 2.0);
    Selection without = StaticGreedy(values, costs, 2.0, no_check);
    double value_with = 0, value_without = 0;
    for (int i : with.cleaned) value_with += values[i];
    for (int i : without.cleaned) value_without += values[i];
    if (value_with > value_without) ++traps_fixed;
  }
  table.AddCell("final_check")
      .AddCell("density_traps_fixed")
      .AddCell(traps_fixed)
      .AddCell(kTrials)
      .AddCell(0.0);
  table.EndRow();
}

void AblatePairCovariance(TablePrinter& table) {
  // Same m and object count; sliding windows overlap (covariance terms
  // active), strided windows do not.
  CleaningProblem problem = data::MakeSynthetic(
      data::SyntheticFamily::kUniformRandom, 2019, {.size = 44});
  PerturbationSet overlapping = SlidingWindowSumPerturbations(44, 4, 0, 1.5);
  overlapping.perturbations.resize(10);
  overlapping.sensibilities.assign(10, 0.1);
  PerturbationSet disjoint =
      NonOverlappingWindowSumPerturbations(44, 4, 20, 1.5, 10);
  for (auto* context : {&overlapping, &disjoint}) {
    ClaimEvEvaluator evaluator(&problem, context,
                               QualityMeasure::kDuplicity, 150.0);
    Stopwatch sw;
    Selection sel =
        IncrementalGreedy(evaluator, problem, problem.TotalCost() * 0.3);
    double secs = sw.ElapsedSeconds();
    table.AddCell("pair_covariance")
        .AddCell(context == &overlapping ? "overlapping" : "disjoint")
        .AddCell(evaluator.num_overlapping_pairs())
        .AddCell(static_cast<int>(sel.cleaned.size()))
        .AddCell(secs);
    table.EndRow();
  }
}

void AblateIncrementalGreedy(TablePrinter& table) {
  const int n = 600;
  CleaningProblem problem = data::MakeSynthetic(
      data::SyntheticFamily::kUniformRandom, 2019, {.size = n});
  PerturbationSet context =
      NonOverlappingWindowSumPerturbations(n, 4, n / 2, 1.5);
  ClaimEvEvaluator evaluator(&problem, &context,
                             QualityMeasure::kDuplicity, 120.0);
  double budget = problem.TotalCost() * 0.1;
  Stopwatch sw;
  Selection incremental = IncrementalGreedy(evaluator, problem, budget);
  double inc_secs = sw.ElapsedSeconds();
  sw.Reset();
  Selection generic = AdaptiveGreedyMinimize(
      problem.Costs(), budget,
      [&](const std::vector<int>& t) { return evaluator.EV(t); });
  double gen_secs = sw.ElapsedSeconds();
  table.AddCell("incremental_greedy")
      .AddCell("incremental")
      .AddCell(n)
      .AddCell(static_cast<int>(incremental.cleaned.size()))
      .AddCell(inc_secs);
  table.EndRow();
  table.AddCell("incremental_greedy")
      .AddCell("generic_adaptive")
      .AddCell(n)
      .AddCell(static_cast<int>(generic.cleaned.size()))
      .AddCell(gen_secs);
  table.EndRow();
  // The two must agree on the achieved objective.
  std::printf("# incremental EV %.6g vs generic EV %.6g\n",
              evaluator.EV(incremental.cleaned),
              evaluator.EV(generic.cleaned));
}

void AblateModularSolvers(TablePrinter& table) {
  // Adoptions fairness instance (Fig 1a): compare the whole solver ladder
  // on removed variance and runtime at a 20% budget.
  CleaningProblem problem = data::MakeAdoptions(2019);
  PerturbationSet context = WindowComparisonPerturbations(
      problem.size(), 4, 0, 1.5);
  double reference = context.original.Evaluate(problem.CurrentValues());
  LinearQueryFunction bias = BiasLinearFunction(context, reference);
  std::vector<double> weights =
      MinVarModularWeights(bias, problem.Variances(), problem.size());
  std::vector<double> costs = problem.Costs();
  double budget = problem.TotalCost() * 0.2;
  auto emit = [&](const std::string& name, const std::vector<int>& set,
                  double secs) {
    double removed = 0;
    for (int i : set) removed += weights[i];
    table.AddCell("modular_solvers")
        .AddCell(name)
        .AddCell(static_cast<int>(set.size()))
        .AddCell(removed)
        .AddCell(secs);
    table.EndRow();
  };
  Stopwatch sw;
  Selection greedy = GreedyMinVarLinearIndependent(
      bias, problem.Variances(), costs, budget);
  emit("greedy_2approx", greedy.cleaned, sw.ElapsedSeconds());
  sw.Reset();
  KnapsackSolution dp = MaxKnapsackDp(
      weights, ScaleCostsToInt(costs, 10.0),
      static_cast<int>(budget * 10.0));
  emit("dp_scaled_optimum", dp.selected, sw.ElapsedSeconds());
  sw.Reset();
  KnapsackSolution bnb = MaxKnapsackBranchAndBound(weights, costs, budget);
  emit("branch_and_bound_exact", bnb.selected, sw.ElapsedSeconds());
  for (double eps : {0.5, 0.1, 0.01}) {
    sw.Reset();
    KnapsackSolution fptas = MaxKnapsackFptas(weights, costs, budget, eps);
    emit("fptas_eps_" + FormatCell(eps), fptas.selected,
         sw.ElapsedSeconds());
  }
}

}  // namespace

int main() {
  std::printf("# Ablations: final check, pair covariance, incremental "
              "benefit maintenance, modular solver ladder\n");
  TablePrinter table({"ablation", "variant", "count", "selected_or_total",
                      "seconds"});
  AblateFinalCheck(table);
  AblatePairCovariance(table);
  AblateIncrementalGreedy(table);
  AblateModularSolvers(table);
  table.Print();
  return 0;
}
