// The Algorithm-1 claims greedy as every claims workload runs it: the
// engine greedy driven by a Theorem-3.8 evaluator's incremental objective,
// with its batch EV as the engine's set objective.

#ifndef FACTCHECK_TESTS_CLAIMS_GREEDY_H_
#define FACTCHECK_TESTS_CLAIMS_GREEDY_H_

#include <memory>
#include <vector>

#include "claims/ev_fast.h"
#include "core/greedy.h"
#include "core/incremental.h"
#include "core/problem.h"

namespace factcheck {

inline Selection ClaimsGreedyMinVar(const ClaimEvEvaluator& evaluator,
                                    const CleaningProblem& problem,
                                    double budget) {
  std::unique_ptr<IncrementalObjective> incremental =
      evaluator.MakeIncremental();
  GreedyOptions options;
  options.incremental = incremental.get();
  return AdaptiveGreedyMinimize(
      problem.Costs(), budget,
      [&evaluator](const std::vector<int>& t) { return evaluator.EV(t); },
      options);
}

}  // namespace factcheck

#endif  // FACTCHECK_TESTS_CLAIMS_GREEDY_H_
