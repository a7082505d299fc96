// The greedy selection family of Section 3.1 (Algorithm 1) and baselines.
//
// Algorithm 1 is parameterized by a benefit estimator beta.  Instantiations:
//   * Random              — uniform random order (baseline)
//   * GreedyNaiveCostBlind — beta = Var[X_i], ignores costs
//   * GreedyNaive          — beta = Var[X_i], picks by beta / cost
//   * GreedyMinVar         — adaptive beta = EV(T) - EV(T + {i})
//   * GreedyMaxPr          — adaptive beta = Pr(T + {i}) - Pr(T)
//   * GreedyDep            — GreedyMinVar with a covariance-aware EV
// All variants implement the final single-item check (lines 5-8) that
// upgrades density greedy to a 2-approximation on modular objectives.

#ifndef FACTCHECK_CORE_GREEDY_H_
#define FACTCHECK_CORE_GREEDY_H_

#include <functional>
#include <vector>

#include "core/ev.h"
#include "core/maxpr.h"
#include "core/problem.h"
#include "core/query_function.h"
#include "dist/mvn.h"
#include "util/random.h"

namespace factcheck {

class ThreadPool;
class CancelToken;
struct EngineStats;
class EvalEngine;
class IncrementalObjective;

// The outcome of a selection algorithm.
struct Selection {
  std::vector<int> cleaned;  // object indices, ascending
  std::vector<int> order;    // same indices in the order they were picked
  double cost = 0.0;         // sum of their cleaning costs
};

// SetObjective (the T -> objective-value map the adaptive variants drive)
// lives in core/ev.h, next to the evaluators that implement it.

// Establishes the Selection post-condition shared by every driver:
// `order` holds the pick order, `cleaned` the same indices sorted.
void FinishSelection(Selection& sel);

struct GreedyOptions {
  // Run the Algorithm-1 lines 5-8 single-item check.
  bool final_check = true;
  // Divide benefits by cost when ranking (beta(o)/c_o); the cost-blind
  // baseline disables this.
  bool cost_aware = true;
  // Run EvalEngine::Greedy's heap loop in lazy (CELF) mode: a stale
  // candidate is re-probed only when it reaches the top of the heap,
  // instead of every stale candidate before each pick.  Selects the same
  // set whenever marginal benefits are non-increasing (submodular
  // objectives).
  bool lazy = false;
  // Optional evaluation pool (not owned); each round's candidate batch is
  // spread across it with bit-stable results for any pool size.  In lazy
  // mode only the first round is a batch — CELF re-probes are inherently
  // one-at-a-time, so the pool does not speed up later rounds.
  ThreadPool* pool = nullptr;
  // Optional O(Δ) marginal-gain evaluator mirroring the objective
  // (core/incremental.h).  When set, EvalEngine::Greedy probes and
  // commits through it instead of batch-evaluating the SetObjective,
  // selecting the same set with O(1)–O(Δ) work per candidate.  Borrowed,
  // must outlive the call; single-run state, never share an instance
  // across concurrent selections.
  IncrementalObjective* incremental = nullptr;
  // Optional persistent engine (core/engine.h) whose Greedy runs the
  // selection instead of a fresh per-call engine's, so a long-lived holder
  // (the planning service) keeps the set-objective memo warm across
  // requests.  Borrowed, must outlive the call; its retained objective
  // must compute the same function as the `objective` argument (which is
  // then ignored), and its direction must match the driver.  The engine
  // enforces one in-flight API call at a time, so callers sharing one
  // engine must serialize selections themselves.
  EvalEngine* engine = nullptr;
  // When set, the engine-backed drivers copy their EvalEngine's final
  // counters here (evaluations / cache hits / incremental probes and
  // commits / key bytes hashed) on EVERY exit path, including the
  // empty-candidate and no-gain early breaks; engine-free algorithms
  // leave it untouched.  Borrowed, must outlive the call.
  EngineStats* stats_out = nullptr;
  // Optional cooperative cancellation (util/cancel.h), polled by
  // EvalEngine::Greedy at round boundaries — before the initial
  // evaluation (or incremental Reset) and before each round's probes.  A
  // cancelled run returns early with whatever partial selection it built
  // (callers discard it — Planner::TryPlan turns a cancelled run into an
  // error) and skips the final single-item check; the engine memo stays
  // consistent because no batch is ever abandoned half-committed.
  // Borrowed, must outlive the call; polled from the calling thread only.
  const CancelToken* cancel = nullptr;
};

// Uniformly random selection (skips objects that no longer fit).
Selection RandomSelect(const std::vector<double>& costs, double budget,
                       Rng& rng);

// Non-adaptive greedy over fixed per-object benefits.
Selection StaticGreedy(const std::vector<double>& benefits,
                       const std::vector<double>& costs, double budget,
                       const GreedyOptions& options = {});

// Adaptive greedy that re-estimates marginal benefits after every pick,
// running on the shared evaluation engine (core/engine): objective values
// are memoized per cleaned set, each round is evaluated as one batch
// (parallel when options.pool is set), and options.lazy switches the
// engine's greedy loop to CELF.  Without the lazy flag `objective` is
// evaluated O(n^2) times.  Minimize: picks by (obj(T) - obj(T+{i})) / c_i, stops when the
// budget is exhausted; the final check swaps to the best single item if it
// alone beats T.
Selection AdaptiveGreedyMinimize(const std::vector<double>& costs,
                                 double budget, const SetObjective& objective,
                                 const GreedyOptions& options = {});

// Maximize: picks by (obj(T+{i}) - obj(T)) / c_i and stops early once no
// candidate improves the objective (the paper's "refuses to clean more"
// behaviour visible in Fig 12b).
Selection AdaptiveGreedyMaximize(const std::vector<double>& costs,
                                 double budget, const SetObjective& objective,
                                 const GreedyOptions& options = {});

// --- Named instantiations -------------------------------------------------

// GreedyNaive / GreedyNaiveCostBlind: benefit Var[X_i] for objects the
// query references, 0 otherwise.
Selection GreedyNaive(const QueryFunction& f, const CleaningProblem& problem,
                      double budget);
Selection GreedyNaiveCostBlind(const QueryFunction& f,
                               const CleaningProblem& problem, double budget);

// GreedyMinVar over the exact enumeration EV (general f, independent X).
Selection GreedyMinVar(const QueryFunction& f, const CleaningProblem& problem,
                       double budget, const GreedyOptions& options = {});

// GreedyMaxPr over exact enumeration (general f, independent discrete X).
Selection GreedyMaxPr(const QueryFunction& f, const CleaningProblem& problem,
                      double budget, double tau,
                      const GreedyOptions& options = {});

// GreedyMaxPr in the normal closed form (affine f, independent normals).
Selection GreedyMaxPrNormal(const LinearQueryFunction& f,
                            const std::vector<double>& means,
                            const std::vector<double>& stddevs,
                            const std::vector<double>& current,
                            const std::vector<double>& costs, double budget,
                            double tau, const GreedyOptions& options = {});

// GreedyDep: adaptive MinVar greedy that knows the full covariance matrix
// (linear f); EV is the Schur-complement conditional variance.
Selection GreedyDep(const LinearQueryFunction& f,
                    const MultivariateNormal& model,
                    const std::vector<double>& costs, double budget,
                    const GreedyOptions& options = {});

// Covariance-unaware MinVar greedy for linear f under an MVN whose off-
// diagonal entries it cannot see (treats values as independent).
Selection GreedyMinVarLinearIndependent(const LinearQueryFunction& f,
                                        const std::vector<double>& variances,
                                        const std::vector<double>& costs,
                                        double budget);

}  // namespace factcheck

#endif  // FACTCHECK_CORE_GREEDY_H_
