// Human-readable cleaning-plan reports.
//
// A fact-checker handed a Selection needs to know *why* each value is
// worth cleaning: what it costs, how much claim-quality uncertainty its
// cleaning removes (given everything cleaned before it), and which
// perturbations it feeds.  This module renders that explanation, both as
// structured rows and as plain text.

#ifndef FACTCHECK_CLAIMS_EXPLAIN_H_
#define FACTCHECK_CLAIMS_EXPLAIN_H_

#include <string>

#include "claims/ev_fast.h"
#include "core/greedy.h"

namespace factcheck {

// One step of the plan, in execution order.
struct PlanStep {
  int object = -1;
  std::string label;
  double cost = 0.0;
  double marginal_benefit = 0.0;   // EV drop when added after predecessors
  double ev_after = 0.0;           // EV of the prefix including this step
  int claims_touched = 0;          // perturbations referencing the object
};

struct CleaningPlanExplanation {
  double prior_variance = 0.0;
  double final_variance = 0.0;
  double total_cost = 0.0;
  std::vector<PlanStep> steps;

  // Plain-text rendering (one line per step plus a summary).
  std::string ToText() const;
};

// Explains `selection` (in its pick order) against the evaluator's claim
// context.
CleaningPlanExplanation ExplainSelection(const CleaningProblem& problem,
                                         const ClaimEvEvaluator& evaluator,
                                         const Selection& selection);

}  // namespace factcheck

#endif  // FACTCHECK_CLAIMS_EXPLAIN_H_
