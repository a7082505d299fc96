// IncrementalObjective: the O(Δ) marginal-gain protocol behind the
// evaluation engine's incremental greedy path (Theorem 3.8's locality
// argument, generalized): cleaning one more object only perturbs the
// objective terms that reference it, so a probe of EV(T ∪ {i}) should
// cost O(Δ) — the size of i's footprint — instead of a full-objective
// recomputation.
//
// An implementation mirrors one batch SetObjective f.  The engine drives
// it as:
//
//   Reset(T)       rebuild internal state for the cleaned set T
//   Value()        f(T), consistent with the batch objective on the same
//                  set (implementations accumulate in the batch
//                  evaluator's term order so the value is bit-equal
//                  whenever the terms themselves are)
//   ProbeGain(i)   f(T ∪ {i}) − f(T) without mutating T  (i ∉ T)
//   Commit(i)      T ← T ∪ {i}                           (i ∉ T)
//   Footprint(i)   after Commit(i): the objects whose ProbeGain may have
//                  moved (default: all of them)
//
// The engine reads Value() only for the Algorithm-1 final check (once
// after Reset, once after the last Commit), so an implementation whose
// value is an O(m) re-sum may compute it on demand instead of on every
// Commit.
//
// Instances are stateful and NOT thread-safe: one instance per selection
// run, driven from one thread (the engine never probes through its thread
// pool — the whole point is that a probe is too cheap to ship to a
// worker).  EvalEngine::Greedy probes through an attached
// IncrementalObjective when GreedyOptions::incremental is set and through
// batches of the memoized SetObjective otherwise, in one heap loop; the
// incremental-equivalence suite pins both probe kinds to the same
// selections, and the footprint to a full re-probe after every pick.
//
// Closed-form instantiations for the paper's Section-3 objectives live
// below; the covariance-aware one is in dist/mvn.h (it needs the MVN
// model) and the Theorem-3.8 claim-quality one in claims/ev_fast.h.

#ifndef FACTCHECK_CORE_INCREMENTAL_H_
#define FACTCHECK_CORE_INCREMENTAL_H_

#include <functional>
#include <memory>
#include <vector>

namespace factcheck {

class MultivariateNormal;

class IncrementalObjective {
 public:
  virtual ~IncrementalObjective() = default;

  // Rebuilds the internal state for cleaned set T (any order, duplicates
  // tolerated).  Cost: one full-objective evaluation.  Must be called
  // before the first Value/ProbeGain/Commit — constructors deliberately
  // skip the initial build (the engine Resets before probing anyway);
  // the expensive implementations FC_CHECK this.
  virtual void Reset(const std::vector<int>& cleaned) = 0;

  // f(T) for the current set.
  virtual double Value() const = 0;

  // f(T ∪ {i}) − f(T); must not mutate the committed set.  Precondition:
  // i is not in T.
  virtual double ProbeGain(int i) = 0;

  // Extends the committed set: T ← T ∪ {i}.  Precondition: i not in T.
  virtual void Commit(int i) = 0;

  // Called after Commit(i).  Returns true and fills `out` (any order,
  // duplicate-free, may include committed objects) with every object
  // whose ProbeGain may differ from before the commit; every object left
  // out must probe BITWISE the same gain as before, which is what lets
  // the engine keep its cached gain and still select exactly what a full
  // re-probe selects.  Returning false means "all objects".
  virtual bool Footprint(int i, std::vector<int>* out) const {
    (void)i;
    (void)out;
    return false;
  }
};

// Builds a fresh IncrementalObjective per selection run.  Factories are
// how incremental evaluators travel through PlanRequest / Workload: the
// instances are single-run state machines, so sharing one across runs
// (or threads) is a bug — share the factory instead.
using IncrementalFactory =
    std::function<std::unique_ptr<IncrementalObjective>()>;

// Modular MinVar (Lemma 3.1): f(T) = sum of `weights` outside T — the
// remaining-variance metric of the fairness workloads.  ProbeGain is
// exactly -weights[i] (O(1)) whatever T is, so the footprint of a commit
// is empty; Commit re-sums the uncleaned weights in index order so
// Value() matches the batch metric's accumulation bit-for-bit.
std::unique_ptr<IncrementalObjective> MakeModularIncremental(
    std::vector<double> weights);

// Normal closed-form MaxPr (Lemma 3.3): f(T) = Phi((-tau - shift) / sd)
// with shift = sum_{i in T} a_i (mean_i - u_i) and sd^2 = sum_{i in T}
// a_i^2 stddev_i^2 — the running sufficient statistics.  ProbeGain adds
// i's two terms and re-evaluates Phi (O(1)); Commit re-sums both
// statistics over the committed set in ascending index order, matching
// SurpriseProbabilityNormal's loop.  All vectors are dense length-n;
// `coeffs` holds a_i (zero for objects the query ignores, skipped exactly
// like the batch evaluator skips them).
std::unique_ptr<IncrementalObjective> MakeNormalMaxPrIncremental(
    std::vector<double> coeffs, std::vector<double> means,
    std::vector<double> stddevs, std::vector<double> current, double tau);

// Covariance-aware EV (Section 3.4, the GreedyDep objective): f(T) is the
// conditional variance of a' X given X_T under `model`, mirroring
// MultivariateNormal::ExpectedConditionalVariance.  The implementation
// maintains the running conditional covariance Σ^{(T)} by one
// SchurConditionInPlace rank-1 downdate per Commit (linalg/cholesky),
// plus the vector g = Σ^{(T)} a restricted to the uncleaned coordinates —
// which makes ProbeGain(i) a closed form in g_i and Σ^{(T)}_{ii}: O(1)
// per probe instead of a fresh O(|T|^3) Schur complement.  Near-zero
// pivots (a coordinate already determined, or a semi-definite model) are
// skipped like the batch path's jitter guard.  `model` is borrowed and
// must outlive the objective; `weights` is the dense functional a.
std::unique_ptr<IncrementalObjective> MakeConditionalVarianceIncremental(
    const MultivariateNormal& model, std::vector<double> weights);

}  // namespace factcheck

#endif  // FACTCHECK_CORE_INCREMENTAL_H_
