// Monte Carlo instantiations of GreedyMinVar / GreedyMaxPr (Section 3.1:
// "one possibility is to estimate delta_i using Monte Carlo methods").
// These are the fallback when exact enumeration of the benefit is
// intractable — wide references, huge supports, or black-box query
// functions.  Registered with the Planner facade as "mc_greedy_minvar" /
// "mc_greedy_maxpr" (EngineOptions::mc_samples sets the outer sample
// count, kMonteCarloInnerSamples the inner one, EngineOptions::seed the
// stream).

#ifndef FACTCHECK_MONTECARLO_MC_GREEDY_H_
#define FACTCHECK_MONTECARLO_MC_GREEDY_H_

#include "core/greedy.h"
#include "montecarlo/sampler.h"

namespace factcheck {

// The inner sample count the Planner's "mc_greedy_minvar" runs with.
inline constexpr int kMonteCarloInnerSamples = 64;

// Adaptive greedy on the Monte Carlo EV estimate.  `outer`/`inner` are the
// sample counts of MonteCarloEV per objective evaluation; the same seeded
// substream is replayed for every evaluation within one run (common random
// numbers), which keeps the greedy's comparisons low-variance.  Because the
// estimator re-seeds a local Rng per evaluation, the objective is safe for
// the engine's thread pool and its memoized values equal recomputation, so
// `options` (lazy driver, pool) behaves exactly as in core/greedy.
Selection GreedyMinVarMonteCarlo(const QueryFunction& f,
                                 const CleaningProblem& problem,
                                 double budget, int outer, int inner,
                                 Rng& rng, const GreedyOptions& options = {});

// Adaptive greedy on the Monte Carlo surprise-probability estimate.
Selection GreedyMaxPrMonteCarlo(const QueryFunction& f,
                                const CleaningProblem& problem,
                                double budget, double tau, int samples,
                                Rng& rng, const GreedyOptions& options = {});

}  // namespace factcheck

#endif  // FACTCHECK_MONTECARLO_MC_GREEDY_H_
