#include "core/modular.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "knapsack/knapsack.h"
#include "util/check.h"

namespace factcheck {
namespace {

Selection FromKnapsack(const KnapsackSolution& sol,
                       const std::vector<double>& costs) {
  Selection out;
  out.cleaned = sol.selected;
  out.order = sol.selected;
  for (int i : sol.selected) out.cost += costs[i];
  std::sort(out.cleaned.begin(), out.cleaned.end());
  return out;
}

Selection SolveDp(const std::vector<double>& weights,
                  const std::vector<double>& costs, double budget,
                  double cost_scale) {
  std::vector<int> int_costs = ScaleCostsToInt(costs, cost_scale);
  // Every item fits in the scaled total, so a larger capacity buys nothing;
  // clamp in double before the cast, since budget * cost_scale can
  // overflow int.  (Clamping the budget to the real total would not do:
  // the scaled costs are rounded up.)
  double scaled_total = 0.0;
  for (int c : int_costs) scaled_total += c;
  int capacity = static_cast<int>(std::min(budget * cost_scale, scaled_total));
  return FromKnapsack(MaxKnapsackDp(weights, int_costs, capacity), costs);
}

Selection SolveFptas(const std::vector<double>& weights,
                     const std::vector<double>& costs, double budget,
                     double eps) {
  return FromKnapsack(MaxKnapsackFptas(weights, costs, budget, eps), costs);
}

}  // namespace

std::vector<double> MinVarModularWeights(const LinearQueryFunction& f,
                                         const std::vector<double>& variances,
                                         int n) {
  FC_CHECK_EQ(static_cast<int>(variances.size()), n);
  std::vector<double> w(n, 0.0);
  const auto& refs = f.References();
  const auto& coeffs = f.coefficients();
  for (size_t k = 0; k < refs.size(); ++k) {
    FC_CHECK_LT(refs[k], n);
    w[refs[k]] = coeffs[k] * coeffs[k] * variances[refs[k]];
  }
  return w;
}

bool CheckModularWeightsFinite(const LinearQueryFunction& f,
                               const CleaningProblem& problem,
                               std::string* error) {
  const auto& refs = f.References();
  const auto& coeffs = f.coefficients();
  double sum = 0.0;
  for (size_t k = 0; k < refs.size(); ++k) {
    FC_CHECK_LT(refs[k], problem.size());
    const double variance = problem.object(refs[k]).dist.Variance();
    const double weight = coeffs[k] * coeffs[k] * variance;
    if (!std::isfinite(coeffs[k]) || !std::isfinite(weight)) {
      char detail[160];
      std::snprintf(detail, sizeof(detail),
                    "query weight a_i^2 Var[X_i] of object %d is not finite "
                    "(a_i = %g, Var[X_i] = %g)",
                    refs[k], coeffs[k], variance);
      if (error != nullptr) *error = detail;
      return false;
    }
    sum += weight;
  }
  if (!std::isfinite(sum)) {
    if (error != nullptr) {
      *error = "query weights a_i^2 Var[X_i] sum to a non-finite value";
    }
    return false;
  }
  return true;
}

Selection MinVarOptimumDp(const LinearQueryFunction& f,
                          const std::vector<double>& variances,
                          const std::vector<double>& costs, double budget,
                          double cost_scale) {
  int n = static_cast<int>(costs.size());
  return SolveDp(MinVarModularWeights(f, variances, n), costs, budget,
                 cost_scale);
}

Selection MinVarFptas(const LinearQueryFunction& f,
                      const std::vector<double>& variances,
                      const std::vector<double>& costs, double budget,
                      double eps) {
  int n = static_cast<int>(costs.size());
  return SolveFptas(MinVarModularWeights(f, variances, n), costs, budget,
                    eps);
}

Selection MaxPrOptimumDp(const LinearQueryFunction& f,
                         const std::vector<double>& stddevs,
                         const std::vector<double>& costs, double budget,
                         double cost_scale) {
  int n = static_cast<int>(costs.size());
  std::vector<double> variances(n);
  for (int i = 0; i < n; ++i) variances[i] = stddevs[i] * stddevs[i];
  return SolveDp(MinVarModularWeights(f, variances, n), costs, budget,
                 cost_scale);
}

Selection MaxPrFptas(const LinearQueryFunction& f,
                     const std::vector<double>& stddevs,
                     const std::vector<double>& costs, double budget,
                     double eps) {
  int n = static_cast<int>(costs.size());
  std::vector<double> variances(n);
  for (int i = 0; i < n; ++i) variances[i] = stddevs[i] * stddevs[i];
  return SolveFptas(MinVarModularWeights(f, variances, n), costs, budget,
                    eps);
}

double ModularRemainingVariance(const std::vector<double>& weights,
                                const std::vector<int>& cleaned) {
  double total = 0.0;
  for (double w : weights) total += w;
  for (int i : cleaned) {
    FC_CHECK_LT(static_cast<size_t>(i), weights.size());
    total -= weights[i];
  }
  return total;
}

}  // namespace factcheck
