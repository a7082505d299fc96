// Built-in workload catalogue: every Section-4 figure workload (Figs 1-12
// plus the counter-finding and ratio-claim experiments) and the synthetic
// scaling workloads, as WorkloadRegistry entries keyed by name.  The
// figure benchmarks in bench/ fetch their instances from here, so one
// construction is shared by the TSV figure output, the `factcheck_cli
// bench` driver, and the determinism test suite.
//
// The ad-hoc builders below are for instances that depend on run-time
// state (per-world redraws in Figs 12 / Section 4.3); they produce the
// same Workload shape without a registry entry.

#ifndef FACTCHECK_EXP_WORKLOADS_H_
#define FACTCHECK_EXP_WORKLOADS_H_

#include <memory>
#include <string>

#include "exp/workload.h"
#include "exp/workload_registry.h"

namespace factcheck {
namespace exp {

// The budget sweep shared by the effectiveness figures (Figs 1-9, 11).
const std::vector<double>& EffectivenessBudgetFractions();

// Median sum of the perturbation claims at the current values — a
// "contested" Gamma that puts the claim threshold where the indicator can
// go either way (the interesting regime of Figs 2-5).
double MedianPerturbationValue(const CleaningProblem& problem,
                               const PerturbationSet& context);

// A modular-fairness workload over an externally built problem/context
// (Fig 1 datasets, the per-world Section-4.3 instances).  The bias linear
// form uses `bias_reference` = q*(u); the naive-greedy quality query uses
// `quality_reference` (Fig 11 passes 0).  The metric is the remaining
// bias variance after cleaning.
Workload MakeModularFairnessWorkload(
    std::string name, std::shared_ptr<const CleaningProblem> problem,
    std::shared_ptr<const PerturbationSet> context, double bias_reference,
    double quality_reference);

// A claim-quality workload (Theorem-3.8 EV metric, the engine greedy on a
// fresh evaluator's incremental objective registered as
// "claims_greedy_minvar") over an externally built problem/context.
Workload MakeClaimsWorkload(std::string name,
                            std::shared_ptr<const CleaningProblem> problem,
                            std::shared_ptr<const PerturbationSet> context,
                            QualityMeasure measure, double reference,
                            StrengthDirection direction);

// A MaxPr workload in the normal closed form (Lemma 3.3) for an affine
// bias over the given problem — the Fig 12 / Section 4.3 per-world shape.
Workload MakeMaxPrNormalWorkload(
    std::string name, std::shared_ptr<const CleaningProblem> problem,
    std::shared_ptr<const LinearQueryFunction> bias, double tau);

// The engine benchmark's exact-enumeration workload: URx with support 3
// per object and a window-sum indicator query over `num_refs` objects
// (one EV evaluation enumerates 3^num_refs scenarios).  Deterministic in
// (size, num_refs, seed); bench_engine uses seed = 2019 + size.
Workload MakeUrxWindowExact(int size, int num_refs, std::uint64_t seed);

}  // namespace exp
}  // namespace factcheck

#endif  // FACTCHECK_EXP_WORKLOADS_H_
