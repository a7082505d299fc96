#include "streams.h"

#include <cstdio>

#include "util/json.h"

namespace fcbench {

using factcheck::JsonNumber;
using factcheck::JsonWriter;

std::uint64_t SplitMix64::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string GeneratedProblem::Csv() const {
  std::string csv = "label,current,cost,support,probs\n";
  for (size_t i = 0; i < current.size(); ++i) {
    csv += "o" + std::to_string(i) + "," + JsonNumber(current[i]) + "," +
           JsonNumber(cost[i]) + ",";
    for (size_t k = 0; k < support[i].size(); ++k) {
      csv += (k > 0 ? ";" : "") + JsonNumber(support[i][k]);
    }
    csv += ",";
    for (size_t k = 0; k < probs[i].size(); ++k) {
      csv += (k > 0 ? ";" : "") + JsonNumber(probs[i][k]);
    }
    csv += "\n";
  }
  return csv;
}

GeneratedProblem MakeBinaryProblem(const std::string& name, std::uint64_t seed,
                                   int objects) {
  SplitMix64 rng(seed);
  GeneratedProblem p;
  p.name = name;
  double spread = 0.0;
  for (int i = 0; i < objects; ++i) {
    const double value = 1000 + rng.Below(9000);
    const double below = 10 + rng.Below(90);
    const double above = 10 + rng.Below(90);
    // Multiples of 1/8 are exact in binary, so the CSV round-trips and the
    // two probabilities sum to exactly 1.
    const double p_low = (1 + rng.Below(7)) / 8.0;
    p.current.push_back(value);
    p.cost.push_back(1.0);
    p.support.push_back({value - below, value + above});
    p.probs.push_back({p_low, 1.0 - p_low});
    spread += below;
  }
  // A threshold about a third of the way into the combined downside, so
  // the surprise probability neither vanishes nor saturates.
  p.tau = static_cast<double>(static_cast<int>(spread / 3.0));
  return p;
}

std::string RegisterLine(const GeneratedProblem& problem) {
  JsonWriter w;
  w.BeginObject()
      .Key("op")
      .String("register")
      .Key("problem")
      .String(problem.name)
      .Key("csv")
      .String(problem.Csv())
      .EndObject();
  return w.str();
}

std::string PlanLine(const std::string& problem, const std::string& algo,
                     double budget_frac, double tau) {
  JsonWriter w;
  w.BeginObject()
      .Key("op")
      .String("plan")
      .Key("problem")
      .String(problem)
      .Key("algo")
      .String(algo)
      .Key("budget_frac")
      .Number(budget_frac);
  if (tau >= 0.0) w.Key("tau").Number(tau);
  w.EndObject();
  return w.str();
}

namespace {

JsonWriter& BeginUpdate(JsonWriter& w, const std::string& problem) {
  return w.BeginObject()
      .Key("op")
      .String("update")
      .Key("problem")
      .String(problem)
      .Key("deltas")
      .BeginArray();
}

std::string EndUpdate(JsonWriter& w) {
  w.EndArray().EndObject();
  return w.str();
}

}  // namespace

std::string SetCostLine(const GeneratedProblem& problem, int object) {
  JsonWriter w;
  BeginUpdate(w, problem.name)
      .BeginObject()
      .Key("kind")
      .String("set_cost")
      .Key("object")
      .Int(object)
      .Key("cost")
      .Number(problem.cost[object])
      .EndObject();
  return EndUpdate(w);
}

std::string CleanLine(const GeneratedProblem& problem, int object,
                      double value) {
  JsonWriter w;
  BeginUpdate(w, problem.name)
      .BeginObject()
      .Key("kind")
      .String("clean")
      .Key("object")
      .Int(object)
      .Key("value")
      .Number(value)
      .EndObject();
  return EndUpdate(w);
}

std::string RestoreLine(const GeneratedProblem& problem, int object) {
  JsonWriter w;
  BeginUpdate(w, problem.name)
      .BeginObject()
      .Key("kind")
      .String("replace_dist")
      .Key("object")
      .Int(object)
      .Key("support")
      .BeginArray();
  for (double v : problem.support[object]) w.Number(v);
  w.EndArray().Key("probs").BeginArray();
  for (double v : problem.probs[object]) w.Number(v);
  w.EndArray()
      .EndObject()
      .BeginObject()
      .Key("kind")
      .String("set_value")
      .Key("object")
      .Int(object)
      .Key("value")
      .Number(problem.current[object])
      .EndObject();
  return EndUpdate(w);
}

double TruthValue(const std::vector<double>& support, int object,
                  std::uint64_t seed) {
  SplitMix64 rng(seed ^ (0x51ed270b0ull * static_cast<std::uint64_t>(object + 1)));
  return support[rng.Below(static_cast<int>(support.size()))];
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kPlan:
      return "plan";
    case OpKind::kLinear:
      return "plan_linear";
    case OpKind::kUpdate:
      return "update";
    case OpKind::kReplan:
      return "replan";
  }
  return "?";
}

AdviseWorkload MakeAdviseWorkload(std::uint64_t seed, int plans, int problems,
                                  int objects) {
  constexpr double kFrac = 0.5;
  AdviseWorkload w;
  SplitMix64 rng(seed);
  for (int i = 0; i < problems; ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "p%02d", i);
    w.problems.push_back(MakeBinaryProblem(name, rng.Next(), objects));
  }
  auto line = [&](int problem, const char* algo, double frac) {
    const GeneratedProblem& p = w.problems[problem];
    const bool maxpr = std::string(algo) == "greedy_maxpr";
    return PlanLine(p.name, algo, frac, maxpr ? p.tau : -1.0);
  };
  for (int i = 0; i < problems; ++i) {
    for (const char* algo :
         {"greedy_minvar", "greedy_maxpr", "greedy_minvar_linear"}) {
      w.warm_lines.push_back(line(i, algo, kFrac));
    }
  }
  for (int j = 0; j < plans; ++j) {
    const int problem = rng.Below(problems);
    if (j % 32 == 31) {
      const GeneratedProblem& p = w.problems[problem];
      w.stream.push_back({OpKind::kUpdate, SetCostLine(p, rng.Below(objects))});
      w.stream.push_back(
          {OpKind::kReplan, line(problem, "greedy_minvar", kFrac)});
    } else if (j % 4 == 3) {
      w.stream.push_back(
          {OpKind::kLinear, line(problem, "greedy_minvar_linear", kFrac)});
    } else {
      // One maxpr plan (the faster exact sub-class) and two minvar plans
      // per four: sorted, the plans run maxpr | minvar | closed-form in
      // shares 1:2:1, so p50 is the middle of the minvar plans and p90
      // sits well inside the closed-form ones.
      const char* algo = j % 4 == 0 ? "greedy_maxpr" : "greedy_minvar";
      w.stream.push_back({OpKind::kPlan, line(problem, algo, kFrac)});
    }
  }
  return w;
}

std::vector<CleanReplanConnection> MakeCleanReplanWorkload(std::uint64_t seed,
                                                           int connections,
                                                           int objects) {
  SplitMix64 rng(seed ^ 0xc1ea4e91a4ull);
  std::vector<CleanReplanConnection> out;
  for (int c = 0; c < connections; ++c) {
    CleanReplanConnection conn;
    std::string name = "c";
    name += std::to_string(c);
    conn.problem = MakeBinaryProblem(name, rng.Next(), objects);
    conn.plan_line = PlanLine(conn.problem.name, "greedy_minvar", 0.5, -1.0);
    conn.truth_seed = rng.Next();
    out.push_back(std::move(conn));
  }
  return out;
}

std::vector<std::uint64_t> ClaimsSeedCycle(std::uint64_t seed, int length) {
  SplitMix64 rng(seed ^ 0xc1a1b5c0debull);
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < length; ++i) seeds.push_back(rng.Next() % 1000000007ull);
  return seeds;
}

}  // namespace fcbench
