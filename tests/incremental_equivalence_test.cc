// Equivalence tier for the engine's incremental-objective path
// (core/incremental.h): every IncrementalObjective must drive the greedy
// to the identical selection — same set, same pick order, same cost, and
// bitwise the same objective trajectory — as the from-scratch batch
// SetObjective path, across pool sizes and lazy modes; the stats must
// show the work moving from full evaluations to O(Δ) probes.  The
// footprint tier checks each objective's Footprint contract (gains outside
// it stay bitwise unchanged) and that the engine's footprint-driven loop
// selects exactly what a full re-probe after every pick selects.  Also the
// collision-path tier for the engine's 64-bit set-signature memo (the
// exact-key fallback must keep the cache sound under a degenerate hash)
// and the stats_out-on-early-exit contract.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "claims/ev_fast.h"
#include "claims/perturbation.h"
#include "claims/ratio.h"
#include "core/engine.h"
#include "core/greedy.h"
#include "core/incremental.h"
#include "core/maxpr.h"
#include "core/planner.h"
#include "data/synthetic.h"
#include "dist/mvn.h"
#include "exp/workload_registry.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace factcheck {
namespace {

void ExpectSameSelection(const Selection& a, const Selection& b,
                         const std::string& context) {
  EXPECT_EQ(a.cleaned, b.cleaned) << context;
  EXPECT_EQ(a.order, b.order) << context;
  EXPECT_EQ(a.cost, b.cost) << context;  // bit-equal
}

// One (batch objective, incremental factory) pair plus the instance data
// it closes over.
struct Family {
  std::string name;
  OptimizeDirection direction;
  std::vector<double> costs;
  double budget = 0.0;
  SetObjective batch;
  IncrementalFactory make_incremental;
  // Keep-alive for state captured by reference in the closures.
  std::shared_ptr<void> holder;
};

Family ModularFamily(std::uint64_t seed) {
  const int n = 14;
  Rng rng(seed);
  auto weights = std::make_shared<std::vector<double>>();
  Family f;
  for (int i = 0; i < n; ++i) {
    weights->push_back(rng.Uniform(0.0, 3.0));
    f.costs.push_back(rng.Uniform(0.5, 2.0));
  }
  f.name = "modular";
  f.direction = OptimizeDirection::kMinimize;
  f.budget = 0.4 * n;
  f.batch = [weights](const std::vector<int>& cleaned) {
    std::vector<bool> in(weights->size(), false);
    for (int i : cleaned) in[i] = true;
    double acc = 0.0;
    for (size_t i = 0; i < weights->size(); ++i) {
      if (!in[i]) acc += (*weights)[i];
    }
    return acc;
  };
  f.make_incremental = [weights] { return MakeModularIncremental(*weights); };
  f.holder = weights;
  return f;
}

Family NormalMaxPrFamily(std::uint64_t seed) {
  const int n = 12;
  Rng rng(seed);
  struct State {
    std::unique_ptr<LinearQueryFunction> f;
    std::vector<double> means, stddevs, current;
  };
  auto state = std::make_shared<State>();
  std::vector<int> refs;
  std::vector<double> coeffs;
  Family f;
  for (int i = 0; i < n; ++i) {
    state->means.push_back(rng.Uniform(40.0, 60.0));
    state->current.push_back(state->means.back() + rng.Uniform(-4.0, 4.0));
    state->stddevs.push_back(rng.Uniform(0.5, 4.0));
    f.costs.push_back(rng.Uniform(0.5, 2.0));
    if (i % 3 != 2) {  // leave some objects unreferenced (coefficient 0)
      refs.push_back(i);
      coeffs.push_back(rng.Uniform(-1.5, 1.5));
    }
  }
  state->f = std::make_unique<LinearQueryFunction>(refs, coeffs);
  const double tau = 2.0;
  f.name = "normal_maxpr";
  f.direction = OptimizeDirection::kMaximize;
  f.budget = 0.5 * n;
  f.batch = MaxPrNormalObjective(*state->f, state->means, state->stddevs,
                                 state->current, tau);
  f.make_incremental = [state, tau, n] {
    return MakeNormalMaxPrIncremental(state->f->DenseWeights(n),
                                      state->means, state->stddevs,
                                      state->current, tau);
  };
  f.holder = state;
  return f;
}

Family MvnFamily(std::uint64_t seed) {
  const int n = 10;
  Rng rng(seed);
  struct State {
    std::unique_ptr<MultivariateNormal> model;
    std::vector<double> a;
  };
  auto state = std::make_shared<State>();
  Vector mean(n, 0.0), stddevs(n);
  Family f;
  for (int i = 0; i < n; ++i) {
    stddevs[i] = rng.Uniform(0.5, 3.0);
    state->a.push_back(rng.Uniform(-1.0, 1.0));
    f.costs.push_back(rng.Uniform(0.5, 2.0));
  }
  state->model = std::make_unique<MultivariateNormal>(
      mean, GeometricDecayCovariance(stddevs, 0.7));
  f.name = "mvn_conditional";
  f.direction = OptimizeDirection::kMinimize;
  f.budget = 0.45 * n;
  f.batch = [state](const std::vector<int>& cleaned) {
    return state->model->ExpectedConditionalVariance(state->a, cleaned);
  };
  f.make_incremental = [state] {
    return MakeConditionalVarianceIncremental(*state->model, state->a);
  };
  f.holder = state;
  return f;
}

Family ClaimsFamily(std::uint64_t seed) {
  const int n = 12;
  struct State {
    CleaningProblem problem;
    PerturbationSet context;
    std::unique_ptr<ClaimEvEvaluator> evaluator;
  };
  auto state = std::make_shared<State>();
  state->problem =
      data::MakeSynthetic(data::SyntheticFamily::kUniformRandom, seed,
                          {.size = n, .min_support = 2, .max_support = 3});
  state->context = SlidingWindowSumPerturbations(n, 3, 0, 1.5);
  double reference =
      state->context.original.Evaluate(state->problem.CurrentValues());
  state->evaluator = std::make_unique<ClaimEvEvaluator>(
      &state->problem, &state->context, QualityMeasure::kDuplicity,
      reference);
  Family f;
  f.name = "claims_thm38";
  f.direction = OptimizeDirection::kMinimize;
  f.costs = state->problem.Costs();
  f.budget = 0.45 * state->problem.TotalCost();
  f.batch = [state](const std::vector<int>& cleaned) {
    return state->evaluator->EV(cleaned);
  };
  f.make_incremental = [state] {
    return state->evaluator->MakeIncremental();
  };
  f.holder = state;
  return f;
}

// Ratio-claim quality (the ratio extension): disjoint claims, so a pick's
// footprint is the members of its one claim.
Family RatioFamily(std::uint64_t seed) {
  const int n = 16;
  struct State {
    CleaningProblem problem;
    RatioPerturbationSet context;
    std::unique_ptr<RatioEvEvaluator> evaluator;
  };
  auto state = std::make_shared<State>();
  state->problem =
      data::MakeSynthetic(data::SyntheticFamily::kUniformRandom, seed,
                          {.size = n, .min_support = 2, .max_support = 3});
  state->context = NonOverlappingRatioPerturbations(n, 2, 4, 1.5);
  state->evaluator = std::make_unique<RatioEvEvaluator>(
      &state->problem, &state->context, QualityMeasure::kDuplicity, 0.1);
  Family f;
  f.name = "ratio";
  f.direction = OptimizeDirection::kMinimize;
  f.costs = state->problem.Costs();
  f.budget = 0.3 * state->problem.TotalCost();
  f.batch = [state](const std::vector<int>& cleaned) {
    return state->evaluator->EV(cleaned);
  };
  f.make_incremental = [state] {
    return state->evaluator->MakeIncremental();
  };
  f.holder = state;
  return f;
}

std::vector<Family> AllFamilies(std::uint64_t seed) {
  return {ModularFamily(seed), NormalMaxPrFamily(seed), MvnFamily(seed),
          ClaimsFamily(seed), RatioFamily(seed)};
}

// --- Value / probe / commit consistency -----------------------------------

TEST(IncrementalConsistency, ValueProbeAndCommitMatchBatchObjective) {
  for (std::uint64_t seed : {3u, 11u}) {
    for (Family& family : AllFamilies(seed)) {
      SCOPED_TRACE(family.name);
      const int n = static_cast<int>(family.costs.size());
      std::unique_ptr<IncrementalObjective> inc = family.make_incremental();
      Rng rng(seed + 17);
      for (int trial = 0; trial < 4; ++trial) {
        std::vector<int> set =
            rng.SampleWithoutReplacement(n, rng.UniformInt(0, n - 2));
        inc->Reset(set);
        double batch_value = family.batch([&] {
          std::vector<int> canonical = set;
          std::sort(canonical.begin(), canonical.end());
          return canonical;
        }());
        double scale = 1.0 + std::abs(batch_value);
        EXPECT_NEAR(inc->Value(), batch_value, 1e-9 * scale);
        // Probe every absent object against a from-scratch evaluation.
        std::vector<bool> in(n, false);
        for (int i : set) in[i] = true;
        for (int i = 0; i < n; ++i) {
          if (in[i]) continue;
          std::vector<int> with = set;
          with.push_back(i);
          std::sort(with.begin(), with.end());
          double probed = inc->Value() + inc->ProbeGain(i);
          double exact = family.batch(with);
          EXPECT_NEAR(probed, exact, 1e-9 * (1.0 + std::abs(exact)))
              << "object " << i;
        }
      }
      // Commit replay: committing one-by-one must land where Reset lands.
      inc->Reset({});
      std::vector<int> order = rng.SampleWithoutReplacement(n, n / 2);
      for (int i : order) inc->Commit(i);
      double committed = inc->Value();
      inc->Reset(order);
      EXPECT_NEAR(committed, inc->Value(),
                  1e-9 * (1.0 + std::abs(committed)));
    }
  }
}

// --- Greedy arms -----------------------------------------------------------

// Forwards every call but Footprint, so the engine falls back to
// re-probing every candidate after each pick: the reference the
// footprint-driven loop must reproduce.
class FullReprobe final : public IncrementalObjective {
 public:
  explicit FullReprobe(std::unique_ptr<IncrementalObjective> inner)
      : inner_(std::move(inner)) {}
  void Reset(const std::vector<int>& cleaned) override {
    inner_->Reset(cleaned);
  }
  double Value() const override { return inner_->Value(); }
  double ProbeGain(int i) override { return inner_->ProbeGain(i); }
  void Commit(int i) override { inner_->Commit(i); }

 private:
  std::unique_ptr<IncrementalObjective> inner_;
};

// The three greedy paths under comparison: the batch SetObjective path, the
// incremental path with the objective's footprint, and the incremental
// path re-probing everything after each pick.
enum class Arm { kBatch, kFootprint, kFullReprobe };

Selection RunEngine(const Family& family, Arm arm, bool lazy,
                    int pool_threads, EngineStats* stats) {
  GreedyOptions options;
  options.lazy = lazy;
  options.stats_out = stats;
  std::unique_ptr<ThreadPool> pool;
  if (pool_threads > 0) {
    pool = std::make_unique<ThreadPool>(pool_threads);
    options.pool = pool.get();
  }
  std::unique_ptr<IncrementalObjective> inc;
  if (arm != Arm::kBatch) {
    inc = family.make_incremental();
    if (arm == Arm::kFullReprobe) {
      inc = std::make_unique<FullReprobe>(std::move(inc));
    }
    options.incremental = inc.get();
  }
  return family.direction == OptimizeDirection::kMinimize
             ? AdaptiveGreedyMinimize(family.costs, family.budget,
                                      family.batch, options)
             : AdaptiveGreedyMaximize(family.costs, family.budget,
                                      family.batch, options);
}

// --- Footprint contract ----------------------------------------------------

// Commits the greedy's pick order, then every remaining object, one at a
// time: after each commit, every uncommitted object outside the
// footprint must probe bitwise the gain it probed before the commit.
TEST(IncrementalFootprint, GainsOutsideTheFootprintStayBitwiseUnchanged) {
  int checked = 0;
  for (std::uint64_t seed : {3u, 11u}) {
    for (Family& family : AllFamilies(seed)) {
      SCOPED_TRACE(family.name + " seed=" + std::to_string(seed));
      const int n = static_cast<int>(family.costs.size());
      std::vector<int> order =
          RunEngine(family, Arm::kFootprint, /*lazy=*/false, 0, nullptr)
              .order;
      std::vector<bool> taken(n, false);
      for (int i : order) taken[i] = true;
      for (int i = 0; i < n; ++i) {
        if (!taken[i]) order.push_back(i);
      }

      std::unique_ptr<IncrementalObjective> inc = family.make_incremental();
      inc->Reset({});
      std::vector<double> gain(n);
      for (int i = 0; i < n; ++i) gain[i] = inc->ProbeGain(i);
      std::fill(taken.begin(), taken.end(), false);
      std::vector<int> footprint;
      for (int pick : order) {
        inc->Commit(pick);
        taken[pick] = true;
        std::vector<bool> moved(n, true);
        if (inc->Footprint(pick, &footprint)) {
          std::fill(moved.begin(), moved.end(), false);
          for (int i : footprint) moved[i] = true;
        }
        for (int i = 0; i < n; ++i) {
          if (taken[i]) continue;
          const double now = inc->ProbeGain(i);
          if (!moved[i]) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(now),
                      std::bit_cast<std::uint64_t>(gain[i]))
                << "object " << i << " after committing " << pick;
            ++checked;
          }
          gain[i] = now;
        }
      }
    }
  }
  // The modular, claims and ratio families declare real footprints.
  EXPECT_GT(checked, 0);
}

// --- Engine equivalence: incremental path vs batch path -------------------

TEST(IncrementalEngineEquivalence, SameSelectionAcrossPoolsAndLazyModes) {
  for (std::uint64_t seed : {2u, 7u, 19u}) {
    for (Family& family : AllFamilies(seed)) {
      for (bool lazy : {false, true}) {
        // Batch reference at pool size 0; the engine guarantees pool-size
        // bit-stability, so one batch reference per lazy mode suffices.
        EngineStats batch_stats;
        Selection batch = RunEngine(family, Arm::kBatch, lazy, 0,
                                    &batch_stats);
        for (int pool_threads : {0, 1, 4}) {
          SCOPED_TRACE(family.name + (lazy ? " lazy" : " plain") +
                       " pool=" + std::to_string(pool_threads) + " seed=" +
                       std::to_string(seed));
          EngineStats inc_stats, full_stats;
          Selection inc = RunEngine(family, Arm::kFootprint, lazy,
                                    pool_threads, &inc_stats);
          Selection full = RunEngine(family, Arm::kFullReprobe, lazy,
                                     pool_threads, &full_stats);
          ExpectSameSelection(batch, inc, family.name);
          ExpectSameSelection(full, inc, family.name + " full re-probe");
          EXPECT_LE(inc_stats.probes, full_stats.probes);
          // The work must have moved from full evaluations to probes:
          // one Reset-evaluation, everything else O(Δ).
          EXPECT_EQ(inc_stats.evaluations, 1);
          EXPECT_GT(inc_stats.probes, 0);
          EXPECT_LE(inc_stats.commits, inc_stats.probes);
          EXPECT_GT(batch_stats.evaluations, inc_stats.evaluations);
          // Identical selections imply bitwise-identical objective
          // trajectories; pin it explicitly through the batch evaluator.
          std::vector<int> prefix;
          for (size_t k = 0; k < batch.order.size(); ++k) {
            prefix.push_back(batch.order[k]);
            std::vector<int> canonical = prefix;
            std::sort(canonical.begin(), canonical.end());
            std::vector<int> other(inc.order.begin(),
                                   inc.order.begin() + k + 1);
            std::sort(other.begin(), other.end());
            EXPECT_EQ(family.batch(canonical), family.batch(other));
          }
        }
      }
    }
  }
}

// --- Workload-level equivalence through the Planner -----------------------

// Every registered workload that ships an incremental factory must select
// identically with and without it, and with its footprint hidden, for
// threads in {1, 4} x lazy on/off, including the (bitwise) objective
// trajectory the Planner recomputes through the workload metric.  A
// workload's own claims_greedy_minvar (the same engine greedy on a fresh
// evaluator) must select exactly what greedy_minvar selects.
TEST(WorkloadIncrementalEquivalence, AllRegisteredWorkloadsMatchBatchPath) {
  using exp::Workload;
  using exp::WorkloadOptions;
  using exp::WorkloadRegistry;
  int covered = 0;
  int claims_covered = 0;
  for (const auto* entry : WorkloadRegistry::Global().Sorted()) {
    SCOPED_TRACE(entry->name);
    WorkloadOptions options;
    options.size = 48;  // keep the synthetic families test-sized
    Workload w = entry->build(options);
    w.name = entry->name;
    PlanRequest request = w.MakeRequest(0.3 * w.TotalCost());
    if (request.custom_incremental == nullptr) continue;
    ASSERT_EQ(w.objective, ObjectiveKind::kMinVar);
    ++covered;
    request.with_trajectory = true;
    Planner planner(w.registry());
    for (bool lazy : {false, true}) {
      for (int threads : {1, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " lazy=" + std::to_string(lazy));
        request.engine.threads = threads;
        request.engine.lazy = lazy;
        PlanResult with_inc = planner.Plan(request, "greedy_minvar");
        PlanRequest batch_request = request;
        batch_request.custom_incremental = nullptr;
        PlanResult batch = planner.Plan(batch_request, "greedy_minvar");
        PlanRequest full_request = request;
        full_request.custom_incremental =
            [factory = request.custom_incremental] {
              return std::unique_ptr<IncrementalObjective>(
                  std::make_unique<FullReprobe>(factory()));
            };
        PlanResult full = planner.Plan(full_request, "greedy_minvar");
        ExpectSameSelection(batch.selection, with_inc.selection,
                            entry->name);
        ExpectSameSelection(full.selection, with_inc.selection,
                            entry->name + " full re-probe");
        EXPECT_LE(with_inc.stats.probes, full.stats.probes);
        ASSERT_EQ(batch.trajectory.size(), with_inc.trajectory.size());
        ASSERT_EQ(full.trajectory.size(), with_inc.trajectory.size());
        for (size_t k = 0; k < batch.trajectory.size(); ++k) {
          EXPECT_EQ(batch.trajectory[k], with_inc.trajectory[k]);  // bitwise
          EXPECT_EQ(full.trajectory[k], with_inc.trajectory[k]);
        }
        if (planner.registry().Find("claims_greedy_minvar") != nullptr) {
          PlanResult claims = planner.Plan(request, "claims_greedy_minvar");
          ExpectSameSelection(claims.selection, with_inc.selection,
                              entry->name + " claims_greedy_minvar");
          EXPECT_EQ(claims.trajectory, with_inc.trajectory);
          EXPECT_EQ(claims.stats.probes, with_inc.stats.probes);
          ++claims_covered;
        }
        EXPECT_EQ(with_inc.stats.evaluations, 1);
        EXPECT_GT(with_inc.stats.probes, 0);
        EXPECT_GT(with_inc.stats.commits, 0);
        EXPECT_EQ(batch.stats.probes, 0);
        EXPECT_GT(batch.stats.evaluations, with_inc.stats.evaluations);
      }
    }
  }
  // The catalogue must actually exercise the path: the fairness, claims,
  // dependency, and engine-gate workloads all ship factories.
  EXPECT_GE(covered, 10);
  EXPECT_GT(claims_covered, 0);
}

// The incremental factory mirrors the workload METRIC; algorithms that
// greedy-drive a different objective — the Monte Carlo estimators build
// their own sampling objective — must not inherit it, or they would
// silently become the exact greedy.
TEST(WorkloadIncrementalEquivalence, MonteCarloKeepsItsOwnObjective) {
  using exp::Workload;
  using exp::WorkloadRegistry;
  Workload w = WorkloadRegistry::Global().Build("adoptions_fairness");
  PlanRequest request = w.MakeRequest(0.3 * w.TotalCost());
  ASSERT_NE(request.custom_incremental, nullptr);
  request.engine.mc_samples = 16;
  Planner planner(w.registry());
  PlanResult mc = planner.Plan(request, "mc_greedy_minvar");
  // The Monte Carlo objective must actually have been evaluated: many
  // full evaluations, no incremental probes.
  EXPECT_GT(mc.stats.evaluations, 1);
  EXPECT_EQ(mc.stats.probes, 0);
  EXPECT_EQ(mc.stats.commits, 0);
}

// --- Signature-collision fallback -----------------------------------------

TEST(SignatureCollision, DegenerateHashStaysSoundThroughExactKeyFallback) {
  int calls = 0;
  SetObjective objective = [&calls](const std::vector<int>& t) {
    ++calls;
    double acc = 1.0;
    for (int i : t) acc += (i + 1) * (i + 1);
    return acc;
  };
  EvalEngine engine(objective, OptimizeDirection::kMinimize);
  engine.UseDegenerateSignatureForTest();
  // Distinct sets, all colliding on the degenerate signature.
  EXPECT_EQ(engine.Evaluate({0, 1}), 1.0 + 1.0 + 4.0);
  EXPECT_EQ(engine.Evaluate({2}), 1.0 + 9.0);
  EXPECT_EQ(engine.Evaluate({0, 3}), 1.0 + 1.0 + 16.0);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(engine.stats().evaluations, 3);
  // Re-querying must hit the memo (primary slot or exact-key fallback).
  EXPECT_EQ(engine.Evaluate({0, 1}), 6.0);
  EXPECT_EQ(engine.Evaluate({2}), 10.0);
  EXPECT_EQ(engine.Evaluate({1, 0, 0}), 6.0);  // canonicalization
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(engine.stats().cache_hits, 3);
  EXPECT_GT(engine.stats().key_bytes_hashed, 0);
}

TEST(SignatureCollision, GreedySelectsAndCountsIdenticallyUnderCollisions) {
  Family family = ModularFamily(23);
  for (bool lazy : {false, true}) {
    SCOPED_TRACE(lazy ? "lazy" : "plain");
    EvalEngine normal(family.batch, family.direction);
    EvalEngine degenerate(family.batch, family.direction);
    degenerate.UseDegenerateSignatureForTest();
    GreedyOptions options;
    options.lazy = lazy;
    Selection a = normal.Greedy(family.costs, family.budget, options);
    Selection b = degenerate.Greedy(family.costs, family.budget, options);
    ExpectSameSelection(a, b, "degenerate signature");
    // The fallback must not change what is memoized, only where.
    EXPECT_EQ(normal.stats().evaluations, degenerate.stats().evaluations);
    EXPECT_EQ(normal.stats().cache_hits, degenerate.stats().cache_hits);
    EXPECT_GT(degenerate.stats().key_bytes_hashed,
              normal.stats().key_bytes_hashed);
  }
}

// --- stats_out population on early exits ----------------------------------

EngineStats SentinelStats() {
  EngineStats stats;
  stats.evaluations = -7;
  stats.cache_hits = -7;
  stats.probes = -7;
  stats.commits = -7;
  stats.key_bytes_hashed = -7;
  return stats;
}

TEST(StatsOut, PopulatedWhenNothingIsAffordable) {
  for (Family& family : AllFamilies(5)) {
    family.budget = 0.0;
    for (Arm arm : {Arm::kBatch, Arm::kFootprint}) {
      for (bool lazy : {false, true}) {
        SCOPED_TRACE(family.name +
                     (arm == Arm::kBatch ? " batch" : " incremental") +
                     (lazy ? " lazy" : " plain"));
        EngineStats stats = SentinelStats();
        Selection sel = RunEngine(family, arm, lazy, 0, &stats);
        EXPECT_TRUE(sel.cleaned.empty());
        // The empty-candidate early break still reports: one evaluation
        // for the empty set, nothing else.
        EXPECT_EQ(stats.evaluations, 1);
        EXPECT_EQ(stats.probes, 0);
        EXPECT_EQ(stats.commits, 0);
        EXPECT_EQ(stats.cache_hits, 0);  // fully assigned, no sentinel
        EXPECT_GE(stats.key_bytes_hashed, 0);
      }
    }
  }
}

TEST(StatsOut, PopulatedOnMaximizeNoGainEarlyBreak) {
  const int n = 6;
  std::vector<double> costs(n, 1.0);
  SetObjective constant = [](const std::vector<int>&) { return 0.25; };
  for (bool lazy : {false, true}) {
    SCOPED_TRACE(lazy ? "lazy" : "plain");
    EngineStats stats = SentinelStats();
    GreedyOptions options;
    options.lazy = lazy;
    options.stats_out = &stats;
    Selection sel =
        AdaptiveGreedyMaximize(costs, /*budget=*/100.0, constant, options);
    EXPECT_TRUE(sel.cleaned.empty());  // no candidate improves the constant
    EXPECT_EQ(stats.evaluations, n + 1);  // empty set + the first round
    EXPECT_EQ(stats.probes, 0);
    EXPECT_EQ(stats.commits, 0);
  }
}

}  // namespace
}  // namespace factcheck
