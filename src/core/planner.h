// The unified Planner facade over every selection algorithm in the
// library.  A caller builds one typed PlanRequest — problem, query
// (optionally linear), objective kind, budget, engine options — and asks
// for any algorithm by its registry name; the Planner adapts the request
// to the algorithm's native calling convention, runs it, and packages the
// outcome as a PlanResult (selection + objective trajectory + engine
// stats + timing, JSON-serializable).
//
// The algorithm catalogue lives in core/registry.h; tools/factcheck_cli.cc
// is the command-line driver.  The registry-equivalence suite
// (tests/planner_test.cc) pins every adapter to its direct free-function
// call bit-for-bit, including with a thread pool and the lazy driver.

#ifndef FACTCHECK_CORE_PLANNER_H_
#define FACTCHECK_CORE_PLANNER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/plan_result.h"
#include "core/problem.h"
#include "core/query_function.h"
#include "util/random.h"

namespace factcheck {

class AlgorithmRegistry;
class CancelToken;

// Which paper objective the plan optimizes (Section 2.2).
enum class ObjectiveKind {
  kMinVar,  // minimize EV(T), the expected posterior variance
  kMaxPr,   // maximize Pr[f drops by more than tau]
};

// "minvar" / "maxpr".
const char* ObjectiveKindName(ObjectiveKind kind);
std::optional<ObjectiveKind> ParseObjectiveKind(const std::string& name);

// Execution knobs shared by every algorithm run.
struct EngineOptions {
  int threads = 1;        // >1 attaches a ThreadPool to the evaluation engine
  bool lazy = false;      // CELF lazy greedy instead of full rescans
  int mc_samples = 200;   // outer sample count of the Monte Carlo algorithms
  std::uint64_t seed = 2019;  // RNG seed (random / Monte Carlo algorithms)
};

// One selection task.  Pointers are borrowed and must outlive the call.
struct PlanRequest {
  const CleaningProblem* problem = nullptr;  // required
  const QueryFunction* query = nullptr;      // required
  // Optional: the same query in affine form; enables the closed-form /
  // knapsack algorithms (their registry entries set needs_linear).
  const LinearQueryFunction* linear_query = nullptr;

  // Optional objective override for the SetObjective-driven algorithms
  // (greedy_minvar, greedy_maxpr, best_minvar, brute_force) and the
  // trajectory: when set, it replaces the exact enumeration objective.
  // Used by claims-level callers whose EV comes from the Theorem-3.8 fast
  // evaluator instead of support enumeration.  Must accept canonical
  // (sorted, duplicate-free) sets and be safe for concurrent invocation
  // when threads > 1.
  SetObjective custom_objective;

  // Optional factory for an O(Δ) incremental evaluator mirroring the
  // objective above (custom or exact; core/incremental.h).  The Planner
  // builds one fresh instance per run and attaches it to
  // GreedyOptions::incremental — but only for algorithms whose registry
  // entry sets uses_objective, i.e. the ones that actually greedy-drive
  // this request's objective; the Monte Carlo greedies build their own
  // sampling objective and must not inherit an evaluator that mirrors a
  // different function.  The engine then probes marginal gains instead
  // of batch-evaluating — same selections, a fraction of the work
  // (stats report probes/commits instead of evaluations).
  IncrementalFactory custom_incremental;

  // Optional persistent evaluation engine shared across requests (the
  // serving layer's cross-request memo).  It is the plan's engine for
  // the request's objective: attached to GreedyOptions::engine for
  // algorithms whose registry entry sets uses_objective (for the same
  // reason as custom_incremental above), and it evaluates every
  // algorithm's trajectory prefixes, so a repeat request on the same
  // problem serves both the selection and the trajectory from cache.
  // Without one, TryPlan builds a plan-local engine when the algorithm
  // drives the objective or a trajectory is due.  The engine's retained
  // objective must compute the same function as this request's
  // objective, and its direction must match `objective`.  Borrowed;
  // callers sharing one engine across threads must serialize requests
  // (the engine aborts on concurrent API calls).
  EvalEngine* session_engine = nullptr;

  ObjectiveKind objective = ObjectiveKind::kMinVar;
  double budget = 0.0;
  double tau = 0.0;  // MaxPr surprise threshold (finite, >= 0)

  // Optional cooperative deadline (util/cancel.h).  Checked on entry,
  // threaded to the engine-backed drivers through GreedyOptions::cancel
  // (polled at round boundaries), and checked again after the run: a
  // cancelled plan returns nullopt with error "deadline exceeded" and its
  // partial selection is discarded — the session engine's memo stays
  // consistent, so the next request on the same engine plans as if the
  // cancelled one never happened.  Borrowed, polled from this thread only.
  const CancelToken* cancel = nullptr;

  EngineOptions engine;
  // Report the objective on every pick prefix as PlanResult::trajectory.
  // Skipped automatically when the exact objective is infeasible (see
  // Planner::kTrajectoryScenarioLimit).  The prefixes are one batch on the
  // plan's engine (see session_engine), AFTER the timed selection
  // (wall_seconds covers the algorithm only): the engine's batch greedy
  // already memoized every prefix, and a warm session engine has them all
  // from an earlier request, so only prefixes the engine has never seen
  // cost an objective evaluation.
  bool with_trajectory = true;
};

// Everything an algorithm adapter receives: the request plus the
// pre-built SetObjective, costs, seeded RNG, and engine options already
// folded into GreedyOptions.  This is the one calling convention every
// registered algorithm adapts to.
struct PlanContext {
  const PlanRequest& request;
  const CleaningProblem& problem;
  const QueryFunction& query;
  const LinearQueryFunction* linear;  // null unless the request provided it
  // The request's objective: custom_objective if set, else the exact
  // MinVar / MaxPr evaluator.
  SetObjective objective;
  OptimizeDirection direction;
  std::vector<double> costs;
  // lazy / pool / stats_out prefilled from EngineOptions; adapters pass
  // this straight to the engine-backed drivers.
  GreedyOptions greedy;
  Rng* rng;  // seeded with request.engine.seed
};

class Planner {
 public:
  // Uses the process-wide registry (with all built-in algorithms) when
  // `registry` is null.
  explicit Planner(const AlgorithmRegistry* registry = nullptr);

  // Runs the named algorithm.  Returns nullopt (and a diagnostic in
  // `error`) on an unknown name, an objective-kind mismatch, a missing
  // linear query, or an instance larger than the algorithm supports.
  std::optional<PlanResult> TryPlan(const PlanRequest& request,
                                    const std::string& algorithm,
                                    std::string* error = nullptr) const;

  // As TryPlan, but aborts on error (programmer-error convention).
  PlanResult Plan(const PlanRequest& request,
                  const std::string& algorithm) const;

  const AlgorithmRegistry& registry() const { return *registry_; }

  // The trajectory is only recomputed exactly when the enumeration cost —
  // the product of the support sizes of the query's references — stays
  // below this bound (custom objectives are always trusted).
  static constexpr double kTrajectoryScenarioLimit = 1 << 20;

 private:
  const AlgorithmRegistry* registry_;  // not owned
};

}  // namespace factcheck

#endif  // FACTCHECK_CORE_PLANNER_H_
