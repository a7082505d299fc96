// Registry-equivalence suite for the Planner facade: every registered
// algorithm must return the identical Selection as its direct
// free-function call on small problems, including with a thread pool and
// the lazy driver; plus the golden list-algos text, PlanResult JSON, the
// trajectory contract, and the registry error paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>

#include "cli/cli.h"
#include "core/brute_force.h"
#include "core/ev.h"
#include "core/greedy.h"
#include "core/maxpr.h"
#include "core/modular.h"
#include "core/planner.h"
#include "core/registry.h"
#include "data/problem_io.h"
#include "data/synthetic.h"
#include "montecarlo/mc_greedy.h"
#include "submodular/issc.h"
#include "util/thread_pool.h"

namespace factcheck {
namespace {

constexpr std::uint64_t kSeed = 123;
constexpr int kMcSamples = 40;
constexpr double kTau = 0.5;

struct Fixture {
  CleaningProblem problem;
  LinearQueryFunction query;
  double budget;

  static Fixture Make(int n = 8) {
    CleaningProblem problem = data::MakeSynthetic(
        data::SyntheticFamily::kUniformRandom, 77,
        {.size = n, .min_support = 2, .max_support = 3});
    std::vector<int> refs(n);
    std::vector<double> coeffs(n);
    for (int i = 0; i < n; ++i) {
      refs[i] = i;
      coeffs[i] = (i % 2 == 0 ? 1.0 : -1.0) * (1.0 + 0.1 * i);
    }
    double budget = 0.4 * problem.TotalCost();
    return {std::move(problem), LinearQueryFunction(refs, coeffs), budget};
  }

  PlanRequest Request(ObjectiveKind kind, int threads = 1,
                      bool lazy = false) const {
    PlanRequest request;
    request.problem = &problem;
    request.query = &query;
    request.linear_query = &query;
    request.objective = kind;
    request.budget = budget;
    request.tau = kTau;
    request.engine.threads = threads;
    request.engine.lazy = lazy;
    request.engine.mc_samples = kMcSamples;
    request.engine.seed = kSeed;
    return request;
  }
};

void ExpectSameSelection(const PlanResult& facade, const Selection& direct) {
  EXPECT_EQ(facade.selection.cleaned, direct.cleaned);
  EXPECT_EQ(facade.selection.order, direct.order);
  EXPECT_DOUBLE_EQ(facade.selection.cost, direct.cost);
}

// Runs `direct` against the facade for all pool/lazy combinations the
// engine-backed algorithms support.
void CheckEngineAlgorithm(
    const Fixture& fx, const std::string& name, ObjectiveKind kind,
    const std::function<Selection(const GreedyOptions&)>& direct) {
  for (int threads : {1, 4}) {
    for (bool lazy : {false, true}) {
      SCOPED_TRACE(name + " threads=" + std::to_string(threads) +
                   " lazy=" + std::to_string(lazy));
      PlanResult facade =
          Planner().Plan(fx.Request(kind, threads, lazy), name);
      std::optional<ThreadPool> pool;
      if (threads > 1) pool.emplace(threads);
      GreedyOptions options;
      options.lazy = lazy;
      options.pool = pool.has_value() ? &*pool : nullptr;
      ExpectSameSelection(facade, direct(options));
    }
  }
}

TEST(RegistryEquivalence, GreedyMinVar) {
  Fixture fx = Fixture::Make();
  CheckEngineAlgorithm(fx, "greedy_minvar", ObjectiveKind::kMinVar,
                       [&](const GreedyOptions& options) {
                         return GreedyMinVar(fx.query, fx.problem, fx.budget,
                                             options);
                       });
}

TEST(RegistryEquivalence, GreedyMaxPr) {
  Fixture fx = Fixture::Make();
  CheckEngineAlgorithm(fx, "greedy_maxpr", ObjectiveKind::kMaxPr,
                       [&](const GreedyOptions& options) {
                         return GreedyMaxPr(fx.query, fx.problem, fx.budget,
                                            kTau, options);
                       });
}

TEST(RegistryEquivalence, GreedyMaxPrNormal) {
  Fixture fx = Fixture::Make();
  std::vector<double> stddevs = fx.problem.Variances();
  for (double& v : stddevs) v = std::sqrt(v);
  CheckEngineAlgorithm(
      fx, "greedy_maxpr_normal", ObjectiveKind::kMaxPr,
      [&](const GreedyOptions& options) {
        return GreedyMaxPrNormal(fx.query, fx.problem.Means(), stddevs,
                                 fx.problem.CurrentValues(),
                                 fx.problem.Costs(), fx.budget, kTau,
                                 options);
      });
}

TEST(RegistryEquivalence, McGreedyMinVar) {
  Fixture fx = Fixture::Make();
  CheckEngineAlgorithm(fx, "mc_greedy_minvar", ObjectiveKind::kMinVar,
                       [&](const GreedyOptions& options) {
                         Rng rng(kSeed);
                         return GreedyMinVarMonteCarlo(
                             fx.query, fx.problem, fx.budget, kMcSamples,
                             kMonteCarloInnerSamples, rng, options);
                       });
}

TEST(RegistryEquivalence, McGreedyMaxPr) {
  Fixture fx = Fixture::Make();
  CheckEngineAlgorithm(fx, "mc_greedy_maxpr", ObjectiveKind::kMaxPr,
                       [&](const GreedyOptions& options) {
                         Rng rng(kSeed);
                         return GreedyMaxPrMonteCarlo(fx.query, fx.problem,
                                                      fx.budget, kTau,
                                                      kMcSamples, rng,
                                                      options);
                       });
}

TEST(RegistryEquivalence, Random) {
  Fixture fx = Fixture::Make();
  PlanResult facade =
      Planner().Plan(fx.Request(ObjectiveKind::kMinVar), "random");
  Rng rng(kSeed);
  ExpectSameSelection(facade,
                      RandomSelect(fx.problem.Costs(), fx.budget, rng));
}

TEST(RegistryEquivalence, GreedyNaiveBothFlavors) {
  Fixture fx = Fixture::Make();
  ExpectSameSelection(
      Planner().Plan(fx.Request(ObjectiveKind::kMinVar), "greedy_naive"),
      GreedyNaive(fx.query, fx.problem, fx.budget));
  ExpectSameSelection(
      Planner().Plan(fx.Request(ObjectiveKind::kMinVar),
                     "greedy_naive_cost_blind"),
      GreedyNaiveCostBlind(fx.query, fx.problem, fx.budget));
}

TEST(RegistryEquivalence, GreedyMinVarLinear) {
  Fixture fx = Fixture::Make();
  ExpectSameSelection(
      Planner().Plan(fx.Request(ObjectiveKind::kMinVar),
                     "greedy_minvar_linear"),
      GreedyMinVarLinearIndependent(fx.query, fx.problem.Variances(),
                                    fx.problem.Costs(), fx.budget));
}

TEST(RegistryEquivalence, BestMinVar) {
  Fixture fx = Fixture::Make();
  PlanResult facade =
      Planner().Plan(fx.Request(ObjectiveKind::kMinVar), "best_minvar");
  ExpectSameSelection(facade, BestMinVar(MinVarObjective(fx.query, fx.problem),
                                         fx.problem.Costs(), fx.budget));
}

TEST(RegistryEquivalence, KnapsackFamily) {
  Fixture fx = Fixture::Make();
  std::vector<double> stddevs = fx.problem.Variances();
  for (double& v : stddevs) v = std::sqrt(v);
  ExpectSameSelection(
      Planner().Plan(fx.Request(ObjectiveKind::kMinVar),
                     "knapsack_dp_minvar"),
      MinVarOptimumDp(fx.query, fx.problem.Variances(), fx.problem.Costs(),
                      fx.budget));
  ExpectSameSelection(
      Planner().Plan(fx.Request(ObjectiveKind::kMinVar),
                     "knapsack_fptas_minvar"),
      MinVarFptas(fx.query, fx.problem.Variances(), fx.problem.Costs(),
                  fx.budget, /*eps=*/0.1));
  ExpectSameSelection(
      Planner().Plan(fx.Request(ObjectiveKind::kMaxPr), "knapsack_dp_maxpr"),
      MaxPrOptimumDp(fx.query, stddevs, fx.problem.Costs(), fx.budget));
  ExpectSameSelection(
      Planner().Plan(fx.Request(ObjectiveKind::kMaxPr),
                     "knapsack_fptas_maxpr"),
      MaxPrFptas(fx.query, stddevs, fx.problem.Costs(), fx.budget,
                 /*eps=*/0.1));
}

// A budget above the total cost buys every object, so the knapsack DP must
// not size itself by budget * cost_scale: 1e12 overflowed the int capacity
// (an empty plan) and 1e7 allocated over a GiB.
TEST(RegistryEquivalence, KnapsackDpBudgetAboveTotalCostBuysEverything) {
  // testdata/problem_small.csv: six objects whose costs sum to 8.
  std::optional<CleaningProblem> problem = data::ProblemFromCsv(
      "label,current,cost,support,probs\n"
      "crimes/2013,8900,1,8820;8900;8980,0.3;0.4;0.3\n"
      "crimes/2014,9010,1,8930;9010;9090,0.25;0.5;0.25\n"
      "crimes/2015,9275,1,9195;9275;9355,0.25;0.5;0.25\n"
      "crimes/2016,9300,2,9220;9300;9380,0.25;0.5;0.25\n"
      "crimes/2017,9125,1,9045;9125;9205,0.2;0.6;0.2\n"
      "crimes/2018,9430,2,9350;9430;9510,0.25;0.5;0.25\n");
  ASSERT_TRUE(problem.has_value());
  ASSERT_EQ(problem->TotalCost(), 8.0);
  const LinearQueryFunction query =
      LinearQueryFunction::FromDense(std::vector<double>(6, 1.0));
  for (ObjectiveKind kind : {ObjectiveKind::kMinVar, ObjectiveKind::kMaxPr}) {
    const std::string algo = kind == ObjectiveKind::kMinVar
                                 ? "knapsack_dp_minvar"
                                 : "knapsack_dp_maxpr";
    SCOPED_TRACE(algo);
    PlanRequest request;
    request.problem = &*problem;
    request.query = &query;
    request.linear_query = &query;
    request.objective = kind;
    request.tau = 50.0;
    request.budget = 8.0;
    const PlanResult total = Planner().Plan(request, algo);
    EXPECT_EQ(total.selection.cleaned.size(), 6u);
    for (double budget : {1e7, 1e12}) {
      request.budget = budget;
      const PlanResult huge = Planner().Plan(request, algo);
      EXPECT_EQ(huge.selection.cleaned, total.selection.cleaned) << budget;
      EXPECT_EQ(huge.selection.order, total.selection.order) << budget;
    }
  }
}

TEST(RegistryEquivalence, BruteForceBothDirections) {
  Fixture fx = Fixture::Make(7);
  ExpectSameSelection(
      Planner().Plan(fx.Request(ObjectiveKind::kMinVar), "brute_force"),
      BruteForceMinimize(fx.problem.Costs(), fx.budget,
                         MinVarObjective(fx.query, fx.problem)));
  ExpectSameSelection(
      Planner().Plan(fx.Request(ObjectiveKind::kMaxPr), "brute_force"),
      BruteForceMaximize(fx.problem.Costs(), fx.budget,
                         MaxPrObjective(fx.query, fx.problem, kTau)));
}

// Every registered algorithm runs end to end under its native objective
// kind and returns a feasible selection with labels attached — the CLI
// `--algo all` guarantee.
TEST(RegistryEquivalence, EveryAlgorithmRunsOnTheFixture) {
  Fixture fx = Fixture::Make();
  Planner planner;
  int ran = 0;
  for (const auto* algo : planner.registry().Sorted()) {
    SCOPED_TRACE(algo->name);
    PlanRequest request = fx.Request(
        algo->objective.value_or(ObjectiveKind::kMinVar));
    std::string error;
    std::optional<PlanResult> result =
        planner.TryPlan(request, algo->name, &error);
    ASSERT_TRUE(result.has_value()) << error;
    EXPECT_LE(result->selection.cost, fx.budget + 1e-9);
    EXPECT_EQ(result->labels.size(), result->selection.cleaned.size());
    // The trajectory covers every pick (falling back to the cleaned set
    // for the set-producing algorithms) and ends at the objective of the
    // final selection.
    ASSERT_TRUE(result->has_objective_value);
    EXPECT_EQ(result->trajectory.size(),
              result->selection.cleaned.size() + 1);
    SetObjective objective =
        request.objective == ObjectiveKind::kMinVar
            ? MinVarObjective(fx.query, fx.problem)
            : MaxPrObjective(fx.query, fx.problem, kTau);
    EXPECT_DOUBLE_EQ(result->objective_value,
                     objective(result->selection.cleaned));
    ++ran;
  }
  EXPECT_EQ(ran, planner.registry().size());
}

TEST(PlannerTest, TrajectoryIsPrefixObjectives) {
  Fixture fx = Fixture::Make();
  PlanResult result =
      Planner().Plan(fx.Request(ObjectiveKind::kMinVar), "greedy_minvar");
  SetObjective objective = MinVarObjective(fx.query, fx.problem);
  ASSERT_TRUE(result.has_objective_value);
  ASSERT_EQ(result.trajectory.size(), result.selection.order.size() + 1);
  EXPECT_DOUBLE_EQ(result.trajectory.front(), objective({}));
  std::vector<int> prefix;
  for (size_t k = 0; k < result.selection.order.size(); ++k) {
    prefix.push_back(result.selection.order[k]);
    std::vector<int> canonical = prefix;
    std::sort(canonical.begin(), canonical.end());
    EXPECT_DOUBLE_EQ(result.trajectory[k + 1], objective(canonical));
  }
  EXPECT_DOUBLE_EQ(result.objective_value, result.trajectory.back());
  // The engine-backed run reports its evaluation counters.
  EXPECT_GT(result.stats.evaluations, 0);
}

// A session-less engine greedy reads its trajectory from the memo its own
// selection filled: every prefix of the pick order is a set the greedy
// already evaluated, so the objective runs exactly the selection's
// evaluations and never once more for the trajectory.
TEST(PlannerTest, TrajectoryReadsTheSelectionsMemo) {
  Fixture fx = Fixture::Make();
  const SetObjective exact = MinVarObjective(fx.query, fx.problem);
  for (bool lazy : {false, true}) {
    SCOPED_TRACE(lazy ? "lazy" : "plain");
    std::int64_t calls = 0;
    PlanRequest request = fx.Request(ObjectiveKind::kMinVar, 1, lazy);
    request.custom_objective = [&](const std::vector<int>& cleaned) {
      ++calls;
      return exact(cleaned);
    };
    PlanResult result = Planner().Plan(request, "greedy_minvar");
    ASSERT_EQ(result.trajectory.size(), result.selection.order.size() + 1);
    EXPECT_EQ(calls, result.stats.evaluations);
  }
}

TEST(PlannerTest, CustomObjectiveDrivesTheEngineAlgorithms) {
  Fixture fx = Fixture::Make();
  // A transparent modular objective: the negated sum of per-object
  // weights, so minimization wants high-weight objects first.
  std::vector<double> weights(fx.problem.size());
  for (int i = 0; i < fx.problem.size(); ++i) weights[i] = 1.0 + i;
  PlanRequest request = fx.Request(ObjectiveKind::kMinVar);
  request.custom_objective = [&weights](const std::vector<int>& cleaned) {
    double acc = 0.0;
    for (int i : cleaned) acc -= weights[i];
    return acc;
  };
  PlanResult facade = Planner().Plan(request, "greedy_minvar");
  Selection direct = AdaptiveGreedyMinimize(
      fx.problem.Costs(), fx.budget, request.custom_objective);
  ExpectSameSelection(facade, direct);
  // The trajectory trusts the custom objective as well.
  ASSERT_TRUE(facade.has_objective_value);
  EXPECT_DOUBLE_EQ(facade.objective_value,
                   request.custom_objective(facade.selection.cleaned));
}

TEST(PlannerTest, JsonSerializationContainsTheContract) {
  Fixture fx = Fixture::Make();
  PlanResult result =
      Planner().Plan(fx.Request(ObjectiveKind::kMinVar), "greedy_minvar");
  std::string json = result.ToJson();
  EXPECT_NE(json.find("\"algorithm\":\"greedy_minvar\""), std::string::npos);
  EXPECT_NE(json.find("\"objective\":\"minvar\""), std::string::npos);
  EXPECT_NE(json.find("\"selection\":{\"cleaned\":["), std::string::npos);
  EXPECT_NE(json.find("\"order\":["), std::string::npos);
  EXPECT_NE(json.find("\"labels\":["), std::string::npos);
  EXPECT_NE(json.find("\"objective_value\":"), std::string::npos);
  EXPECT_NE(json.find("\"trajectory\":["), std::string::npos);
  EXPECT_NE(json.find("\"stats\":{\"evaluations\":"), std::string::npos);
  EXPECT_NE(json.find("\"wall_ms\":"), std::string::npos);
  // Balanced structure (no raw braces appear in this fixture's labels).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(PlannerTest, TryPlanReportsErrors) {
  Fixture fx = Fixture::Make();
  Planner planner;
  std::string error;
  EXPECT_FALSE(planner
                   .TryPlan(fx.Request(ObjectiveKind::kMinVar), "no_such_algo",
                            &error)
                   .has_value());
  EXPECT_NE(error.find("unknown algorithm"), std::string::npos);

  // Objective-kind mismatch.
  EXPECT_FALSE(planner
                   .TryPlan(fx.Request(ObjectiveKind::kMaxPr), "greedy_minvar",
                            &error)
                   .has_value());
  EXPECT_NE(error.find("optimizes minvar"), std::string::npos);

  // Missing linear query.
  PlanRequest no_linear = fx.Request(ObjectiveKind::kMaxPr);
  no_linear.linear_query = nullptr;
  EXPECT_FALSE(
      planner.TryPlan(no_linear, "greedy_maxpr_normal", &error).has_value());
  EXPECT_NE(error.find("affine form"), std::string::npos);

  // Instance-size cap.
  Fixture big = Fixture::Make(30);
  EXPECT_FALSE(planner
                   .TryPlan(big.Request(ObjectiveKind::kMinVar), "brute_force",
                            &error)
                   .has_value());
  EXPECT_NE(error.find("at most 25"), std::string::npos);
}

TEST(PlannerTest, RegistrarSelfRegistersIntoALocalRegistry) {
  AlgorithmRegistry local;
  internal::RegisterBuiltinAlgorithms(local);
  const int builtins = local.size();
  AlgorithmRegistrar registrar(
      {.name = "fixed_pick",
       .summary = "test-only: always cleans object 0",
       .objective = std::nullopt,
       .run =
           [](const PlanContext& ctx) {
             Selection sel;
             sel.cleaned = {0};
             sel.cost = ctx.costs[0];
             FinishSelection(sel);
             return sel;
           }},
      &local);
  EXPECT_EQ(local.size(), builtins + 1);
  Fixture fx = Fixture::Make();
  PlanResult result = Planner(&local).Plan(fx.Request(ObjectiveKind::kMinVar),
                                           "fixed_pick");
  EXPECT_EQ(result.selection.cleaned, std::vector<int>({0}));
  // The global registry is untouched.
  EXPECT_EQ(AlgorithmRegistry::Global().Find("fixed_pick"), nullptr);
}

TEST(PlannerTest, WideQuerySkipsTheExactTrajectory) {
  // 30 objects, all referenced: the scenario count blows past the cap, so
  // the trajectory must be skipped rather than enumerated.
  Fixture fx = Fixture::Make(30);
  PlanResult result =
      Planner().Plan(fx.Request(ObjectiveKind::kMinVar), "greedy_naive");
  EXPECT_TRUE(result.trajectory.empty());
  EXPECT_FALSE(result.has_objective_value);
  std::string json = result.ToJson();
  EXPECT_NE(json.find("\"objective_value\":null"), std::string::npos);
}

// The golden list-algos output: freezes the catalogue names, their
// requirement columns, and the one-line summaries the CLI prints.
TEST(CliTest, GoldenListAlgos) {
  const std::string kGolden =
      "algorithm                objective needs    summary\n"
      "best_minvar              minvar    -        ISSC submodular-cover "
      "approximation (\"Best\", Thm 3.7)\n"
      "brute_force              either    -        exhaustive subset search "
      "(\"OPT\"), n <= 25\n"
      "greedy_maxpr             maxpr     -        adaptive greedy on the "
      "exact surprise probability\n"
      "greedy_maxpr_normal      maxpr     linear   MaxPr greedy in the "
      "normal closed form (Lemma 3.3)\n"
      "greedy_minvar            minvar    -        adaptive greedy on the "
      "exact (or custom) EV objective\n"
      "greedy_minvar_linear     minvar    linear   modular MinVar greedy "
      "for affine queries (Lemma 3.1)\n"
      "greedy_naive             either    -        static greedy on "
      "Var[X_i]/cost of referenced objects\n"
      "greedy_naive_cost_blind  either    -        static greedy on "
      "Var[X_i], ignoring costs\n"
      "knapsack_dp_maxpr        maxpr     linear   exact modular MaxPr via "
      "knapsack DP (Lemma 3.3)\n"
      "knapsack_dp_minvar       minvar    linear   exact modular MinVar via "
      "knapsack DP (Lemma 3.2)\n"
      "knapsack_fptas_maxpr     maxpr     linear   modular MaxPr FPTAS "
      "(Lemma 3.3, value scaling)\n"
      "knapsack_fptas_minvar    minvar    linear   modular MinVar FPTAS "
      "(Lemma 3.2, value scaling)\n"
      "mc_greedy_maxpr          maxpr     -        adaptive greedy on the "
      "Monte Carlo surprise estimate\n"
      "mc_greedy_minvar         minvar    -        adaptive greedy on the "
      "Monte Carlo EV estimate\n"
      "random                   either    -        uniform random baseline "
      "(seeded)\n";
  EXPECT_EQ(cli::ListAlgosText(), kGolden);
}

}  // namespace
}  // namespace factcheck
