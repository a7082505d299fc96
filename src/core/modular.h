// The complete modular-objective pipeline of Section 3.2 in one place:
// Lemma 3.1's weight reductions plus Lemma 3.2/3.3's exact
// pseudo-polynomial ("Optimum") and FPTAS solvers, returning cleaning
// selections directly.  Registered with the Planner facade as
// "knapsack_dp_minvar" / "knapsack_fptas_minvar" / "knapsack_dp_maxpr" /
// "knapsack_fptas_maxpr", which run the solvers at their default
// `cost_scale` and `eps`.

#ifndef FACTCHECK_CORE_MODULAR_H_
#define FACTCHECK_CORE_MODULAR_H_

#include <string>

#include "core/greedy.h"
#include "core/query_function.h"

namespace factcheck {

// Lemma 3.1 (MinVar): w_i = a_i^2 Var[X_i]; dense vector of length n.
std::vector<double> MinVarModularWeights(const LinearQueryFunction& f,
                                         const std::vector<double>& variances,
                                         int n);

// Whether every coefficient a_i of `f`, every weight a_i^2 Var[X_i] over
// `problem`, and the weights' sum are finite: the precondition of the
// modular and knapsack solvers, whose value scaling would otherwise cast
// an infinity to an integer.  False, with a diagnostic naming the first
// offending object, otherwise.  `f`'s references must index `problem`.
bool CheckModularWeightsFinite(const LinearQueryFunction& f,
                               const CleaningProblem& problem,
                               std::string* error);

// "Optimum" (Lemma 3.2, first bullet): exact maximum removed variance via
// the O(n * C) dynamic program.  Real costs are scaled to integers at
// `cost_scale` (resolution 1/cost_scale); exactness is up to that rounding.
Selection MinVarOptimumDp(const LinearQueryFunction& f,
                          const std::vector<double>& variances,
                          const std::vector<double>& costs, double budget,
                          double cost_scale = 10.0);

// Lemma 3.2, second bullet: (1 + eps)-approximation in O(nt + n^3 / eps).
Selection MinVarFptas(const LinearQueryFunction& f,
                      const std::vector<double>& variances,
                      const std::vector<double>& costs, double budget,
                      double eps = 0.1);

// Lemma 3.3 analogues for MaxPr under independent centered normals
// (weights a_i^2 sigma_i^2).
Selection MaxPrOptimumDp(const LinearQueryFunction& f,
                         const std::vector<double>& stddevs,
                         const std::vector<double>& costs, double budget,
                         double cost_scale = 10.0);
Selection MaxPrFptas(const LinearQueryFunction& f,
                     const std::vector<double>& stddevs,
                     const std::vector<double>& costs, double budget,
                     double eps = 0.1);

// Variance of f(X) remaining after cleaning `cleaned` in the modular case:
// sum of the weights outside the cleaned set.
double ModularRemainingVariance(const std::vector<double>& weights,
                                const std::vector<int>& cleaned);

}  // namespace factcheck

#endif  // FACTCHECK_CORE_MODULAR_H_
