// Seeded inputs of the three workloads: the problems the daemon is given
// (as CSV over `register`), the request lines the clients send, and the
// claims seed cycle.  Everything here is a pure function of the seed, so
// the same --seed always sends byte-identical request lines; the program
// under test only ever sees these generated inputs.

#ifndef FCBENCH_STREAMS_H_
#define FCBENCH_STREAMS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace fcbench {

// splitmix64: the repository's seeded-generator idiom (util/fault.h uses
// it for its schedules); small, fast, and identical on every platform.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  // Uniform integer in [0, n); n > 0.
  int Below(int n) { return static_cast<int>(Next() % static_cast<std::uint64_t>(n)); }

 private:
  std::uint64_t state_;
};

// An n-object cleaning problem with two-point error supports and unit
// costs, so one exact MinVar evaluation enumerates exactly 2^n scenarios
// and a budget fraction fixes the number of picks whatever the seed: the
// seed moves values, not the amount of work.
struct GeneratedProblem {
  std::string name;
  std::vector<double> current;  // integers
  std::vector<double> cost;     // all 1
  std::vector<std::vector<double>> support;  // {current - a, current + b}
  std::vector<std::vector<double>> probs;    // {p, 1 - p}, p in k/8
  double tau = 0.0;                          // MaxPr surprise threshold

  // data/problem_io.h CSV: label,current,cost,support,probs.
  std::string Csv() const;
};

GeneratedProblem MakeBinaryProblem(const std::string& name, std::uint64_t seed,
                                   int objects);

// --- Request lines ----------------------------------------------------------

std::string RegisterLine(const GeneratedProblem& problem);
// tau < 0 omits the "tau" member (MinVar algorithms).
std::string PlanLine(const std::string& problem, const std::string& algo,
                     double budget_frac, double tau);
std::string SetCostLine(const GeneratedProblem& problem, int object);
std::string CleanLine(const GeneratedProblem& problem, int object, double value);
// Undoes CleanLine: the object's original distribution and current value.
std::string RestoreLine(const GeneratedProblem& problem, int object);
constexpr char kPingLine[] = "{\"op\":\"ping\"}";
constexpr char kStatsLine[] = "{\"op\":\"stats\"}";

// The observed value a `clean` of `object` reports: one atom of its
// support, chosen by `seed`.
double TruthValue(const std::vector<double>& support, int object,
                  std::uint64_t seed);

// --- advise_warm ------------------------------------------------------------

// Request classes.  kPlan is the exact class (greedy_minvar / greedy_maxpr
// answered from warm memos), kLinear the closed-form class
// (greedy_minvar_linear, whose trajectory re-enumerates), kUpdate an
// update line, kReplan the plan sent right after an update.
enum class OpKind { kPlan, kLinear, kUpdate, kReplan };
constexpr int kOpKinds = 4;
const char* OpKindName(OpKind kind);

struct Request {
  OpKind kind = OpKind::kPlan;
  std::string line;
};

struct AdviseWorkload {
  std::vector<GeneratedProblem> problems;
  // Every distinct plan line of the stream, in set-up order: sending each
  // once warms the daemon's memos and records the reference response.
  std::vector<std::string> warm_lines;
  // The timed phase sends these in order, cycling.
  std::vector<Request> stream;
};

// 16 problems of 12 objects, every plan at half the total cost.  Plans
// draw their problem from the seed; of every four, one is greedy_maxpr,
// two are greedy_minvar and one is the closed-form class.  Every 32nd plan
// is preceded by a cost-only update (a set_cost that re-prices an object
// at its current cost) and the exact greedy_minvar plan that follows it
// is the replan: a cost-only change must evict nothing, so it too is
// answered from the warm memo.
AdviseWorkload MakeAdviseWorkload(std::uint64_t seed, int plans,
                                  int problems = 16, int objects = 12);

// --- clean_replan -----------------------------------------------------------

// One connection's problem and the plan it repeats (greedy_minvar at half
// the total cost).  The clean/restore lines depend on the set-up plan's
// first pick and are built once it is known.
struct CleanReplanConnection {
  GeneratedProblem problem;
  std::string plan_line;
  std::uint64_t truth_seed = 0;
};

std::vector<CleanReplanConnection> MakeCleanReplanWorkload(std::uint64_t seed,
                                                           int connections,
                                                           int objects = 12);

// --- claims_cold ------------------------------------------------------------

// The claims workload seeds one run cycles through.
std::vector<std::uint64_t> ClaimsSeedCycle(std::uint64_t seed, int length);

}  // namespace fcbench

#endif  // FCBENCH_STREAMS_H_
