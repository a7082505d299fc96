#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>

#include "claims/perturbation.h"
#include "core/delta.h"
#include "core/ev.h"
#include "core/maxpr.h"
#include "core/planner.h"
#include "core/registry.h"
#include "daemon.h"
#include "data/problem_io.h"
#include "data/synthetic.h"
#include "exp/workload_registry.h"
#include "exp/workloads.h"
#include "serve/changelog.h"
#include "serve/json_value.h"
#include "serve/server.h"
#include "serve/service.h"
#include "stats.h"
#include "trace.h"

namespace fcbench {

using factcheck::CacheDependency;
using factcheck::CleaningProblem;
using factcheck::EvalEngine;
using factcheck::LinearQueryFunction;
using factcheck::ObjectiveKind;
using factcheck::OptimizeDirection;
using factcheck::PlanRequest;
using factcheck::PlanResult;
using factcheck::Planner;
using factcheck::ProblemDelta;
using factcheck::serve::ChangelogStore;
using factcheck::serve::JsonValue;
using factcheck::serve::LineClient;
using factcheck::serve::PlanningService;

std::int64_t RunResult::attempted() const {
  std::int64_t total = 0;
  for (const OpCounts& c : ops) total += c.attempted;
  return total;
}

std::int64_t RunResult::failed() const {
  std::int64_t total = 0;
  for (const OpCounts& c : ops) total += c.failed;
  return total;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"advise_warm", "clean_replan",
                                                 "claims_cold"};
  return names;
}

int WorkloadConnections(const std::string& workload) {
  return workload == "clean_replan" ? 2 : 1;
}

namespace {

constexpr int kCleanReplanConnections = 2;
constexpr int kCompactEvery = 64;  // PlanningService's snapshot cadence
constexpr double kClaimsBudgetFrac = 0.3;
constexpr int kClaimsSetupSeeds = 8;

bool IsOk(const std::string& response) {
  return response.compare(0, 10, "{\"ok\":true") == 0;
}

// The part of a plan response that must repeat exactly for equal inputs:
// selection, objective value and trajectory (everything from "selection"
// up to the engine counters, which grow).
std::string_view PlanKey(const std::string& response) {
  const size_t begin = response.find("\"selection\":");
  if (begin == std::string::npos) return {};
  const size_t end = response.find(",\"stats\":", begin);
  if (end == std::string::npos) return {};
  return std::string_view(response).substr(begin, end - begin);
}

std::string PlanKeyOf(const PlanResult& result) {
  return std::string(PlanKey("{\"result\":" + result.ToJson() + "}"));
}

// Pulls a numeric member out of a flat response without a full parse.
double NumberAfter(const std::string& response, const char* key) {
  const size_t at = response.find(key);
  if (at == std::string::npos) return 0.0;
  return std::strtod(response.c_str() + at + std::strlen(key), nullptr);
}

// One timed phase's raw outcome.
struct Phase {
  double wall_s = 0.0;
  std::array<std::vector<double>, kOpKinds> latency_ms;
  std::array<OpCounts, kOpKinds> ops{};
  std::int64_t mismatches = 0;
  std::vector<std::string> notes;

  std::int64_t Ok() const {
    std::int64_t ok = 0;
    for (const OpCounts& c : ops) ok += c.attempted - c.failed;
    return ok;
  }
  std::int64_t Failed() const {
    std::int64_t failed = 0;
    for (const OpCounts& c : ops) failed += c.failed;
    return failed;
  }
  std::int64_t OkOf(OpKind kind) const {
    const OpCounts& c = ops[static_cast<int>(kind)];
    return c.attempted - c.failed;
  }
  std::vector<double>& Samples(OpKind kind) {
    return latency_ms[static_cast<int>(kind)];
  }
  void Mismatch(const std::string& note) {
    ++mismatches;
    if (notes.size() < 4) notes.push_back(note);
  }
  void Merge(const Phase& other) {
    wall_s = std::max(wall_s, other.wall_s);
    for (int k = 0; k < kOpKinds; ++k) {
      latency_ms[k].insert(latency_ms[k].end(), other.latency_ms[k].begin(),
                           other.latency_ms[k].end());
      ops[k].attempted += other.ops[k].attempted;
      ops[k].failed += other.ops[k].failed;
    }
    mismatches += other.mismatches;
    for (const std::string& note : other.notes) {
      if (notes.size() < 4) notes.push_back(note);
    }
  }
};

// Raw per-layer samples of a traced phase (spans already reduced to the
// quantity each metric reports).
struct LayerSamples {
  std::vector<double> ping_us, transport_us, response_bytes, register_ms,
      parse_us, plan_us, plan_linear_us, update_us, append_us, snapshot_us,
      select_ms, trajectory_ms, evaluate_us, apply_us, build_ms, csv_parse_ms,
      service_self_us, try_plan_us;
  // claims_cold's per-plan engine and kernel counters.
  std::vector<double> evaluations, cache_hits, probes, kernel_calls,
      kernel_atoms;

  void Merge(const LayerSamples& o) {
    auto add = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    add(ping_us, o.ping_us);
    add(transport_us, o.transport_us);
    add(response_bytes, o.response_bytes);
    add(register_ms, o.register_ms);
    add(parse_us, o.parse_us);
    add(plan_us, o.plan_us);
    add(plan_linear_us, o.plan_linear_us);
    add(update_us, o.update_us);
    add(append_us, o.append_us);
    add(snapshot_us, o.snapshot_us);
    add(select_ms, o.select_ms);
    add(trajectory_ms, o.trajectory_ms);
    add(evaluate_us, o.evaluate_us);
    add(apply_us, o.apply_us);
    add(build_ms, o.build_ms);
    add(csv_parse_ms, o.csv_parse_ms);
    add(service_self_us, o.service_self_us);
    add(try_plan_us, o.try_plan_us);
    add(evaluations, o.evaluations);
    add(cache_hits, o.cache_hits);
    add(probes, o.probes);
    add(kernel_calls, o.kernel_calls);
    add(kernel_atoms, o.kernel_atoms);
  }
};

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// Engine and robustness counters summed over the daemon's /stats.
struct DaemonStats {
  std::int64_t evaluations = 0, cache_hits = 0, probes = 0, evictions = 0,
               full_rebuilds = 0, sheds = 0, deadline_exceeded = 0,
               retries = 0, fsyncs = 0;
};

bool FetchStats(LineClient& client, DaemonStats* out, std::string* error) {
  std::string response;
  if (!client.Call(kStatsLine, &response, error)) return false;
  std::optional<JsonValue> doc = JsonValue::Parse(response, error);
  const JsonValue* stats = doc.has_value() ? doc->Find("stats") : nullptr;
  if (stats == nullptr) {
    *error = "bad stats response: " + response.substr(0, 200);
    return false;
  }
  *out = DaemonStats();
  auto count = [](const JsonValue* obj, const char* key) -> std::int64_t {
    const JsonValue* v = obj != nullptr ? obj->Find(key) : nullptr;
    return v != nullptr && v->is_number() ? static_cast<std::int64_t>(v->number())
                                          : 0;
  };
  for (const JsonValue& problem : stats->Find("problems")->array()) {
    for (const JsonValue& engine : problem.Find("engines")->array()) {
      out->evaluations += count(&engine, "evaluations");
      out->cache_hits += count(&engine, "cache_hits");
      out->probes += count(&engine, "probes");
      out->evictions += count(&engine, "cache_evictions");
      out->full_rebuilds += count(&engine, "full_rebuilds");
    }
  }
  const JsonValue* robustness = stats->Find("robustness");
  out->sheds = count(robustness, "sheds");
  out->deadline_exceeded = count(robustness, "deadline_exceeded");
  out->retries = count(robustness, "retries");
  out->fsyncs = count(robustness, "fsyncs");
  return true;
}

// One problem's planning state as PlanningService keeps it: the problem,
// its all-ones linear query, and one engine per objective bound with the
// service's cache-dependency policy.  The traced run keeps two per problem
// (with and without the trajectory) in step with the daemon by applying
// the same updates.
class PlanMirror {
 public:
  explicit PlanMirror(CleaningProblem problem)
      : problem_(std::move(problem)), query_(AllRefs(problem_.size()),
                                             std::vector<double>(problem_.size(), 1.0)) {}
  PlanMirror(const PlanMirror&) = delete;
  PlanMirror& operator=(const PlanMirror&) = delete;

  std::optional<PlanResult> Plan(const std::string& algo, double budget_frac,
                                 double tau, bool with_trajectory,
                                 std::string* error) {
    const factcheck::AlgorithmRegistry::Algorithm* entry =
        planner_.registry().Find(algo);
    if (entry == nullptr) {
      *error = "unknown algorithm " + algo;
      return std::nullopt;
    }
    PlanRequest request;
    request.problem = &problem_;
    request.query = &query_;
    request.linear_query = &query_;
    request.objective = entry->objective.value_or(ObjectiveKind::kMinVar);
    request.tau = tau;
    request.budget = budget_frac * problem_.TotalCost();
    request.session_engine = EngineFor(request.objective, tau);
    request.with_trajectory = with_trajectory;
    return planner_.TryPlan(request, algo, error);
  }

  bool Apply(const std::vector<ProblemDelta>& deltas, std::string* error) {
    CleaningProblem scratch = problem_;
    for (const ProblemDelta& delta : deltas) {
      if (!factcheck::ValidateDelta(scratch, delta, error)) return false;
      scratch.Apply(delta);
    }
    for (const ProblemDelta& delta : deltas) problem_.Apply(delta);
    return true;
  }

  const CleaningProblem& problem() const { return problem_; }
  const LinearQueryFunction& query() const { return query_; }

 private:
  static std::vector<int> AllRefs(int n) {
    std::vector<int> refs(n);
    for (int i = 0; i < n; ++i) refs[i] = i;
    return refs;
  }

  EvalEngine* EngineFor(ObjectiveKind kind, double tau) {
    const std::string key = kind == ObjectiveKind::kMinVar
                                ? "minvar"
                                : "maxpr@" + factcheck::JsonNumber(tau);
    std::unique_ptr<EvalEngine>& engine = engines_[key];
    if (engine == nullptr) {
      const bool minvar = kind == ObjectiveKind::kMinVar;
      engine = std::make_unique<EvalEngine>(
          minvar ? factcheck::MinVarObjective(query_, problem_)
                 : factcheck::MaxPrObjective(query_, problem_, tau),
          minvar ? OptimizeDirection::kMinimize : OptimizeDirection::kMaximize);
      engine->BindProblem(&problem_, minvar ? CacheDependency::kAllObjects
                                            : CacheDependency::kCleanedSubset);
    }
    return engine.get();
  }

  Planner planner_;
  CleaningProblem problem_;
  LinearQueryFunction query_;
  std::map<std::string, std::unique_ptr<EvalEngine>> engines_;
};

// The in-process layers a traced serving run replays each request
// through, all kept in the daemon's state.
struct ServingMirror {
  PlanningService* service = nullptr;  // HandleLine of the same line
  std::map<std::string, std::unique_ptr<PlanMirror>> with_trajectory;
  std::map<std::string, std::unique_ptr<PlanMirror>> without_trajectory;
  // Changelog layer (clean_replan only): the same records on a store of
  // the benchmark's own.
  std::unique_ptr<ChangelogStore> store;
  std::map<std::string, std::int64_t> last_seq, log_records;

  // Builds both plan mirrors of `problem` from its CSV, timing the parse.
  bool Add(const GeneratedProblem& problem, LayerSamples* samples,
           std::string* error) {
    for (auto* mirrors : {&with_trajectory, &without_trajectory}) {
      const double t0 = NowSeconds();
      std::optional<CleaningProblem> parsed =
          factcheck::data::ProblemFromCsv(problem.Csv(), error);
      samples->csv_parse_ms.push_back((NowSeconds() - t0) * 1e3);
      if (!parsed.has_value()) return false;
      (*mirrors)[problem.name] = std::make_unique<PlanMirror>(std::move(*parsed));
    }
    return true;
  }
};

// The plan parameters of a generated plan line.
struct PlanArgs {
  explicit PlanArgs(const JsonValue& json)
      : algo(json.Find("algo")->string()),
        budget_frac(json.Find("budget_frac")->number()),
        tau(json.Find("tau") != nullptr ? json.Find("tau")->number() : 0.0) {}
  std::string algo;
  double budget_frac;
  double tau;
};

// Sends a set-up plan line through every mirror, so the mirrors' memos
// are as warm as the daemon's.
void WarmMirror(ServingMirror& mirror, const std::string& line) {
  mirror.service->HandleLine(line);
  const JsonValue json = *JsonValue::Parse(line);
  const std::string name = json.Find("problem")->string();
  const PlanArgs args(json);
  std::string error;
  mirror.with_trajectory[name]->Plan(args.algo, args.budget_frac, args.tau, true,
                                     &error);
  mirror.without_trajectory[name]->Plan(args.algo, args.budget_frac, args.tau,
                                        false, &error);
}

// Replays one request through the mirrors after its round trip `call`,
// recording a span around each layer call.  The calls run one after
// another, so each span is a sibling of `call` under the request's span
// `top`; the layer differences (transport = call - handle_line, service =
// handle_line - parse - try_plan) are taken across siblings.
void ReplayTraced(const Request& request, const std::string& response,
                  int call, int top, std::int64_t id, Tracer& tracer,
                  ServingMirror& mirror, LayerSamples& samples, Phase& phase) {
  const int handle = tracer.Begin("serve.service.handle_line", id, top);
  mirror.service->HandleLine(request.line);
  tracer.End(handle);
  const int parse = tracer.Begin("serve.json_value.parse", id, top);
  std::optional<JsonValue> json = JsonValue::Parse(request.line);
  tracer.End(parse);
  const double handle_us = tracer.span(handle).Us();
  samples.parse_us.push_back(tracer.span(parse).Us());
  const std::string name = json->Find("problem")->string();
  std::string error;

  if (request.kind == OpKind::kUpdate) {
    samples.update_us.push_back(handle_us);
    if (mirror.store != nullptr) {
      // clean_replan's plans are cold, so their round trip minus HandleLine
      // is the difference of two noisy multi-millisecond numbers; its
      // updates do the same small work on both sides instead.
      samples.transport_us.push_back(tracer.span(call).Us() - handle_us);
    }
    std::vector<ProblemDelta> deltas;
    for (const JsonValue& item : json->Find("deltas")->array()) {
      ProblemDelta delta;
      factcheck::serve::DeltaFromJson(item, &delta, &error);
      deltas.push_back(std::move(delta));
    }
    const int apply = tracer.Begin("core.delta.apply", id, top);
    const bool applied = mirror.with_trajectory[name]->Apply(deltas, &error);
    tracer.End(apply);
    samples.apply_us.push_back(tracer.span(apply).Us());
    if (!applied || !mirror.without_trajectory[name]->Apply(deltas, &error)) {
      phase.Mismatch("mirror rejected an update the daemon accepted: " + error);
    }
    if (mirror.store != nullptr) {
      std::vector<std::string> records;
      for (const ProblemDelta& delta : deltas) {
        records.push_back(
            factcheck::serve::EncodeLogRecord(++mirror.last_seq[name], delta));
      }
      const int append = tracer.Begin("serve.changelog.append", id, top);
      mirror.store->AppendRecords(name, records, &error);
      tracer.End(append);
      samples.append_us.push_back(tracer.span(append).Us());
      mirror.log_records[name] += static_cast<std::int64_t>(records.size());
      if (mirror.log_records[name] >= kCompactEvery) {
        const PlanMirror& m = *mirror.with_trajectory[name];
        const std::string snapshot = factcheck::serve::EncodeSnapshot(
            m.problem(), m.query().References(), m.query().coefficients(),
            mirror.last_seq[name]);
        const int save = tracer.Begin("serve.changelog.snapshot", id, top);
        mirror.store->SaveSnapshot(name, snapshot, &error);
        tracer.End(save);
        samples.snapshot_us.push_back(tracer.span(save).Us());
        mirror.log_records[name] = 0;
      }
    }
    return;
  }

  const PlanArgs args(*json);
  const int plan = tracer.Begin("core.planner.try_plan", id, top);
  std::optional<PlanResult> result = mirror.with_trajectory[name]->Plan(
      args.algo, args.budget_frac, args.tau, true, &error);
  tracer.End(plan);
  const int bare = tracer.Begin("core.planner.try_plan_no_trajectory", id, top);
  mirror.without_trajectory[name]->Plan(args.algo, args.budget_frac, args.tau,
                                        false, &error);
  tracer.End(bare);
  if (!result.has_value()) {
    phase.Mismatch("mirror plan failed: " + error);
    return;
  }
  if (PlanKeyOf(*result) != PlanKey(response)) {
    phase.Mismatch("daemon plan differs from the in-process mirror for " +
                   request.line);
  }
  const double plan_us = tracer.span(plan).Us();
  samples.trajectory_ms.push_back((plan_us - tracer.span(bare).Us()) * 1e-3);
  samples.select_ms.push_back(NumberAfter(response, "\"wall_ms\":"));
  samples.response_bytes.push_back(static_cast<double>(response.size()));
  if (request.kind == OpKind::kLinear) {
    samples.plan_linear_us.push_back(handle_us);
  } else {
    samples.plan_us.push_back(handle_us);
    if (mirror.store == nullptr) {
      samples.transport_us.push_back(tracer.span(call).Us() - handle_us);
    }
    samples.service_self_us.push_back(handle_us - tracer.span(parse).Us() -
                                      plan_us);
    samples.try_plan_us.push_back(plan_us);
  }
  // One exact EV evaluation of the chosen set on a fresh engine.
  const PlanMirror& m = *mirror.with_trajectory[name];
  EvalEngine fresh(factcheck::MinVarObjective(m.query(), m.problem()),
                   OptimizeDirection::kMinimize);
  const int evaluate = tracer.Begin("core.ev.evaluate", id, top);
  fresh.Evaluate(result->selection.cleaned);
  tracer.End(evaluate);
  samples.evaluate_us.push_back(tracer.span(evaluate).Us());
}

// Sends one request, times it, and books it into `phase`; false when the
// op failed (a transport error, after which it reconnects, or an ok:false
// response).  The round trip's span is a child of the request's span `top`.
bool SendOp(LineClient& client, const std::string& socket_path,
            const Request& request, Phase& phase, std::string* response,
            Tracer& tracer, std::int64_t id, int top, int* call_span) {
  const int kind = static_cast<int>(request.kind);
  ++phase.ops[kind].attempted;
  std::string error;
  *call_span = tracer.Begin("serve.server.call", id, top);
  const double t0 = NowSeconds();
  const bool sent = client.Call(request.line, response, &error);
  const double ms = (NowSeconds() - t0) * 1e3;
  tracer.End(*call_span);
  if (!sent) {
    // A transport error: the op failed; reconnect for the next one.
    ++phase.ops[kind].failed;
    client.Close();
    client.Connect(socket_path, &error);
    return false;
  }
  if (!IsOk(*response)) {
    ++phase.ops[kind].failed;
    return false;
  }
  phase.latency_ms[kind].push_back(ms);
  return true;
}

// Layer metrics shared by the serving workloads, plus the catalogue entry
// for each name (unit, what it should move, where it should not).
struct LayerInfo {
  const char* name;
  const char* unit;
  const char* moves;
  const char* unchanged;
};

const std::vector<LayerInfo>& LayerCatalogue() {
  static const std::vector<LayerInfo> catalogue = {
      {"serve.server.ping_us", "us", "plan_p50_ms@advise_warm", "claims_cold"},
      {"serve.server.transport_us", "us", "plan_p50_ms@advise_warm",
       "claims_cold; <1% of replan_p50_ms@clean_replan"},
      {"serve.server.response_bytes", "bytes", "plan_p50_ms@advise_warm",
       "claims_cold"},
      {"serve.server.register_ms", "ms", "setup_s@advise_warm,clean_replan",
       "steady-state metrics"},
      {"serve.json_value.parse_us", "us",
       "plan_p50_ms@advise_warm; update_p50_ms@clean_replan", "claims_cold"},
      {"serve.service.plan_us", "us", "plan_p50_ms@advise_warm", "claims_cold"},
      {"serve.service.plan_linear_us", "us",
       "plan_p90_ms,ops_per_s@advise_warm", "clean_replan, claims_cold"},
      {"serve.service.update_us", "us", "update_p50_ms@clean_replan",
       "claims_cold"},
      {"serve.changelog.append_us", "us", "update_p50_ms@clean_replan",
       "advise_warm, claims_cold"},
      {"serve.changelog.snapshot_us", "us", "update_p90_ms@clean_replan",
       "claims_cold"},
      {"serve.changelog.fsyncs_per_update", "count",
       "update_p50_ms@clean_replan", "advise_warm"},
      {"core.planner.select_ms", "ms",
       "plan_p50_ms,replan_p50_ms@clean_replan; plan_p50_ms@claims_cold",
       "~0 for advise_warm's exact class"},
      {"core.planner.trajectory_ms", "ms", "plan_p90_ms,ops_per_s@advise_warm",
       "clean_replan (memo-served), claims_cold (off)"},
      {"core.engine.evaluations_per_plan", "count",
       "plan_p50_ms,replan_p50_ms@clean_replan", "must stay 0 @advise_warm"},
      {"core.engine.hit_ratio", "ratio", "plan_p50_ms@advise_warm (expect 1)",
       "claims_cold"},
      {"core.engine.evictions_per_update", "count",
       "replan_p50_ms@clean_replan", "advise_warm"},
      {"core.engine.full_rebuilds", "count", "- (must stay 0)", "all"},
      {"core.engine.probes_per_plan", "count", "plan_p50_ms@claims_cold",
       "advise_warm"},
      {"core.ev.evaluate_us", "us", "plan_p50_ms,replan_p50_ms@clean_replan",
       "advise_warm, claims_cold"},
      {"core.delta.apply_us", "us", "update_p50_ms@clean_replan",
       "advise_warm, claims_cold"},
      {"dist.kernels.calls_per_plan", "count", "plan_p50_ms@claims_cold",
       "serving workloads (0)"},
      {"dist.kernels.atoms_per_plan", "count", "plan_p50_ms@claims_cold",
       "serving workloads (0)"},
      {"dist.kernels.bytes_per_plan", "bytes",
       "plan_p50_ms@claims_cold (computed: atoms x 16 B)",
       "serving workloads (0)"},
      {"exp.workload_build_ms", "ms", "plan_p50_ms,ops_per_s@claims_cold",
       "serving workloads"},
      {"data.problem_io.parse_ms", "ms", "setup_s@advise_warm,clean_replan",
       "claims_cold"},
      {"proc.cpu_ms_per_op", "ms", "ops_per_s@each workload", "-"},
      {"proc.ctx_switches_per_op", "count", "plan_p50_ms@advise_warm", "-"},
  };
  return catalogue;
}

// Per-layer values keyed by catalogue name.
using LayerValues = std::map<std::string, double>;

// The client's exact-plan round trip split into layer self times (span
// minus the next layer down on the same request), medians.
std::string Decomposition(const LayerSamples& s) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "exact-plan self times (median us): transport %.2f, parse %.2f, "
                "service %.2f, planner %.2f (daemon-reported select %.2f)",
                Median(s.transport_us), Median(s.parse_us), Median(s.service_self_us),
                Median(s.try_plan_us), Median(s.select_ms) * 1e3);
  return line;
}

void FillServingLayers(const LayerSamples& s, LayerValues& v) {
  v["serve.server.ping_us"] = Median(s.ping_us);
  v["serve.server.transport_us"] = Median(s.transport_us);
  v["serve.server.response_bytes"] = Mean(s.response_bytes);
  v["serve.server.register_ms"] = Median(s.register_ms);
  v["serve.json_value.parse_us"] = Median(s.parse_us);
  v["serve.service.plan_us"] = Median(s.plan_us);
  v["serve.service.plan_linear_us"] = Median(s.plan_linear_us);
  v["serve.service.update_us"] = Median(s.update_us);
  v["serve.changelog.append_us"] = Median(s.append_us);
  v["serve.changelog.snapshot_us"] = Median(s.snapshot_us);
  v["core.planner.select_ms"] = Median(s.select_ms);
  v["core.planner.trajectory_ms"] = Median(s.trajectory_ms);
  v["core.ev.evaluate_us"] = Median(s.evaluate_us);
  v["core.delta.apply_us"] = Median(s.apply_us);
  v["data.problem_io.parse_ms"] = Median(s.csv_parse_ms);
}

void FillEngineCounters(const DaemonStats& before, const DaemonStats& after,
                        std::int64_t plans, std::int64_t updates,
                        LayerValues& v) {
  const double evals = static_cast<double>(after.evaluations - before.evaluations);
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  auto per = [](double x, std::int64_t n) {
    return n > 0 ? x / static_cast<double>(n) : 0.0;
  };
  v["core.engine.evaluations_per_plan"] = per(evals, plans);
  v["core.engine.hit_ratio"] = hits + evals > 0 ? hits / (hits + evals) : 0.0;
  v["core.engine.evictions_per_update"] =
      per(static_cast<double>(after.evictions - before.evictions), updates);
  v["core.engine.full_rebuilds"] = static_cast<double>(after.full_rebuilds);
  v["core.engine.probes_per_plan"] =
      per(static_cast<double>(after.probes - before.probes), plans);
  v["serve.changelog.fsyncs_per_update"] =
      per(static_cast<double>(after.fsyncs - before.fsyncs), updates);
}

std::string Format(const char* fmt, double a) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a);
  return buf;
}

// The end-to-end metrics of one untraced phase.  "plan" pools both plan
// classes (advise_warm's exact and closed-form requests).
std::vector<Metric> EndToEnd(Phase& phase, double setup_s, double peak_rss_mib) {
  std::vector<double> plans = phase.Samples(OpKind::kPlan);
  const std::vector<double>& linear = phase.Samples(OpKind::kLinear);
  plans.insert(plans.end(), linear.begin(), linear.end());
  const std::vector<double>& replans = phase.Samples(OpKind::kReplan);
  const std::vector<double>& updates = phase.Samples(OpKind::kUpdate);
  return {
      {"ops_per_s", static_cast<double>(phase.Ok()) / phase.wall_s, "1/s"},
      {"plan_p50_ms", Percentile(plans, 0.5), "ms"},
      {"plan_p90_ms", Percentile(plans, 0.9), "ms"},
      {"replan_p50_ms", Percentile(replans, 0.5), "ms"},
      {"replan_p90_ms", Percentile(replans, 0.9), "ms"},
      {"update_p50_ms", Percentile(updates, 0.5), "ms"},
      {"update_p90_ms", Percentile(updates, 0.9), "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mib, "MiB"},
  };
}

void ReportPhase(const char* label, Phase& phase, RunResult& out) {
  char line[512];
  std::snprintf(line, sizeof(line), "%s phase: %.3f s, %lld ops ok", label,
                phase.wall_s, static_cast<long long>(phase.Ok()));
  out.report.push_back(line);
  for (int k = 0; k < kOpKinds; ++k) {
    const OpCounts& c = phase.ops[k];
    if (c.attempted == 0) continue;
    const std::vector<double>& lat = phase.latency_ms[k];
    std::snprintf(line, sizeof(line),
                  "  %-12s attempted=%lld ok=%lld failed=%lld p50=%.4f ms "
                  "p90=%.4f ms (%d samples above p90)",
                  OpKindName(static_cast<OpKind>(k)),
                  static_cast<long long>(c.attempted),
                  static_cast<long long>(c.attempted - c.failed),
                  static_cast<long long>(c.failed), Percentile(lat, 0.5),
                  Percentile(lat, 0.9), CountAbove(lat, 0.9));
    out.report.push_back(line);
  }
}

// Finishes a run: e2e metrics from the untraced phase, per-layer metrics
// and the overhead lines from the traced one.
void Finish(const Phase& settle, Phase& untraced, Phase* traced, double setup_s,
            double rss, const std::vector<double>& setup_times,
            const LayerValues& layers, RunResult& out) {
  out.mismatches += settle.mismatches;
  for (const std::string& note : settle.notes) out.mismatch_notes.push_back(note);
  if (settle.Failed() > 0) {
    ++out.mismatches;
    out.mismatch_notes.push_back("an op failed while settling");
  }
  std::string setups = "setup: " + std::to_string(setup_times.size()) + " runs [";
  for (size_t i = 0; i < setup_times.size(); ++i) {
    setups += Format(i == 0 ? "%.4f" : " %.4f", setup_times[i]);
  }
  out.report.push_back(setups + "] s, median " + Format("%.4f s", setup_s));
  out.report.push_back(Format("settle: %.3f s of untimed load before timing", settle.wall_s) +
                       ", " + std::to_string(settle.Ok()) + " ops");
  ReportPhase("untraced", untraced, out);
  out.ops = untraced.ops;
  out.mismatches += untraced.mismatches;
  for (const std::string& note : untraced.notes) out.mismatch_notes.push_back(note);
  out.end_to_end = EndToEnd(untraced, setup_s, rss);
  const std::int64_t attempted = out.attempted();
  out.report.push_back(Format("fail_frac = %.6g", attempted > 0
                                                       ? static_cast<double>(out.failed()) /
                                                             static_cast<double>(attempted)
                                                       : 0.0));
  if (traced == nullptr) return;
  ReportPhase("traced", *traced, out);
  out.mismatches += traced->mismatches;
  for (const std::string& note : traced->notes) out.mismatch_notes.push_back(note);
  std::vector<Metric> traced_e2e = EndToEnd(*traced, setup_s, rss);
  out.report.push_back(
      Format("tracing overhead: ops_per_s traced - untraced = %+.2f 1/s",
             traced_e2e[0].value - out.end_to_end[0].value) +
      Format(", plan_p50_ms traced - untraced = %+.5f ms",
             traced_e2e[1].value - out.end_to_end[1].value));
  std::map<std::string, double> e2e;
  for (const Metric& m : out.end_to_end) e2e[m.name] = m.value;
  out.report.push_back("per-layer metrics (traced) -> end-to-end metric it should move "
                       "(untraced value on this workload):");
  for (const LayerInfo& info : LayerCatalogue()) {
    auto it = layers.find(info.name);
    const double value = it != layers.end() ? it->second : 0.0;
    out.per_layer.push_back({info.name, value, info.unit});
    // The e2e metric named first in `moves`, shown with this run's value.
    std::string moved = info.moves;
    const std::string target = moved.substr(0, moved.find_first_of(",@; "));
    std::string shown;
    if (e2e.count(target) > 0) shown = Format(" [%.5g here]", e2e[target]);
    char line[512];
    std::snprintf(line, sizeof(line), "  %-36s %14.6g %-6s -> %s%s; unchanged on: %s",
                  info.name, value, info.unit, info.moves, shown.c_str(),
                  info.unchanged);
    out.report.push_back(line);
  }
}

// The daemon's failure-path counters; a closed loop at this load never
// sheds, misses a deadline or retries.
void ReportRobustness(const DaemonStats& stats, RunResult& out) {
  out.report.push_back(
      "robustness: sheds=" + std::to_string(stats.sheds) +
      " deadline_exceeded=" + std::to_string(stats.deadline_exceeded) +
      " retries=" + std::to_string(stats.retries) + " (expect 0)");
  if (stats.sheds + stats.deadline_exceeded + stats.retries != 0) {
    ++out.mismatches;
    out.mismatch_notes.push_back("robustness counters are not 0");
  }
}

// ---------------------------------------------------------------------------
// advise_warm
// ---------------------------------------------------------------------------

RunResult RunAdviseWarm(const RunOptions& o) {
  RunResult out;
  const AdviseWorkload aw =
      MakeAdviseWorkload(o.seed, /*plans=*/4096, o.advise_problems);
  std::map<std::string, int> ref_index;
  for (size_t i = 0; i < aw.warm_lines.size(); ++i) {
    ref_index[aw.warm_lines[i]] = static_cast<int>(i);
  }
  std::vector<int> stream_ref;
  for (const Request& r : aw.stream) {
    stream_ref.push_back(r.kind == OpKind::kUpdate ? -1 : ref_index.at(r.line));
  }
  std::vector<std::string> refs(aw.warm_lines.size());

  const std::string socket_path = o.run_dir + "/daemon.sock";
  const std::string log_path = o.run_dir + "/daemon.log";
  Daemon daemon;
  LineClient client;
  LayerSamples setup_samples;
  std::vector<double> setup_times;
  std::string error, response;
  for (int rep = 0; rep < o.setup_reps; ++rep) {
    const double t0 = NowSeconds();
    if (!daemon.Start(o.serve_bin, socket_path, {"--threads", "1"}, log_path,
                      &error) ||
        !daemon.Connect(&client, &error)) {
      out.error = error;
      return out;
    }
    for (const GeneratedProblem& p : aw.problems) {
      const double r0 = NowSeconds();
      if (!client.Call(RegisterLine(p), &response, &error) || !IsOk(response)) {
        out.error = "register " + p.name + ": " + error + response;
        return out;
      }
      setup_samples.register_ms.push_back((NowSeconds() - r0) * 1e3);
    }
    for (size_t i = 0; i < aw.warm_lines.size(); ++i) {
      if (!client.Call(aw.warm_lines[i], &response, &error) || !IsOk(response)) {
        out.error = "warm-up " + aw.warm_lines[i] + ": " + error + response;
        return out;
      }
      const std::string key(PlanKey(response));
      if (rep == 0) {
        refs[i] = key;
      } else if (refs[i] != key) {
        ++out.mismatches;
        out.mismatch_notes.push_back("set-up plan changed between set-ups: " +
                                     aw.warm_lines[i]);
      }
    }
    setup_times.push_back(NowSeconds() - t0);
    if (rep + 1 < o.setup_reps) {
      client.Close();
      daemon.Stop();
    }
  }

  auto run_phase = [&](double seconds, size_t* cursor, Tracer& tracer,
                       ServingMirror* mirror, LayerSamples* samples) {
    Phase phase;
    const double start = NowSeconds();
    const double deadline = start + seconds;
    std::string reply;
    std::int64_t id = 0;
    while (NowSeconds() < deadline) {
      const size_t at = (*cursor)++ % aw.stream.size();
      const Request& request = aw.stream[at];
      int call = -1;
      ++id;
      const int top = tracer.Begin("fcbench.request", id);
      const bool ok =
          SendOp(client, socket_path, request, phase, &reply, tracer, id, top, &call);
      if (ok && request.kind != OpKind::kUpdate &&
          PlanKey(reply) != refs[stream_ref[at]]) {
        phase.Mismatch("response differs from the set-up response for " +
                       request.line);
      }
      if (ok && mirror != nullptr) {
        ReplayTraced(request, reply, call, top, id, tracer, *mirror, *samples, phase);
        if (id % 16 == 0) {
          const int ping = tracer.Begin("serve.server.ping", id, top);
          client.Call(kPingLine, &reply, &error);
          tracer.End(ping);
          samples->ping_us.push_back(tracer.span(ping).Us());
        }
      }
      tracer.End(top);
    }
    phase.wall_s = NowSeconds() - start;
    return phase;
  };
  DaemonStats before, middle, after;
  if (!FetchStats(client, &before, &error)) {
    out.error = error;
    return out;
  }
  size_t cursor = 0;
  Tracer untraced_tracer(false);
  ProcSample proc0, proc1;
  Phase settle = run_phase(o.settle_seconds, &cursor, untraced_tracer, nullptr,
                           nullptr);
  ReadProcSample(daemon.pid(), &proc0);
  Phase untraced = run_phase(o.trace ? o.seconds / 2 : o.seconds, &cursor,
                             untraced_tracer, nullptr, nullptr);
  ReadProcSample(daemon.pid(), &proc1);
  if (!FetchStats(client, &middle, &error)) {
    out.error = error;
    return out;
  }

  Phase traced;
  Tracer tracer(true);
  LayerSamples samples = setup_samples;
  LayerValues layers;
  if (o.trace) {
    PlanningService service;
    ServingMirror mirror;
    mirror.service = &service;
    for (const GeneratedProblem& p : aw.problems) {
      service.HandleLine(RegisterLine(p));
      if (!mirror.Add(p, &samples, &error)) {
        out.error = error;
        return out;
      }
    }
    for (const std::string& line : aw.warm_lines) WarmMirror(mirror, line);
    traced = run_phase(o.seconds / 2, &cursor, tracer, &mirror, &samples);
  }
  if (!FetchStats(client, &after, &error)) {
    out.error = error;
    return out;
  }
  client.Close();
  double rss = 0.0;
  daemon.Stop(&rss);

  // Warm memos answer every timed plan: no new evaluations anywhere.
  if (after.evaluations != before.evaluations) {
    ++out.mismatches;
    out.mismatch_notes.push_back(
        "daemon evaluations grew during the timed phase (" +
        std::to_string(before.evaluations) + " -> " +
        std::to_string(after.evaluations) + ")");
  }
  if (o.trace) {
    FillServingLayers(samples, layers);
    const std::int64_t plans = traced.OkOf(OpKind::kPlan) +
                               traced.OkOf(OpKind::kLinear) +
                               traced.OkOf(OpKind::kReplan);
    FillEngineCounters(middle, after, plans, traced.OkOf(OpKind::kUpdate), layers);
    const double ops = static_cast<double>(untraced.Ok());
    layers["proc.cpu_ms_per_op"] = (proc1.cpu_ms - proc0.cpu_ms) / ops;
    layers["proc.ctx_switches_per_op"] =
        static_cast<double>(proc1.ctx_switches - proc0.ctx_switches) / ops;
    tracer.Write(o.run_dir + "/trace.jsonl");
  }
  Finish(settle, untraced, o.trace ? &traced : nullptr, Median(setup_times), rss,
         setup_times, layers, out);
  if (o.trace) out.report.push_back(Decomposition(samples));
  ReportRobustness(after, out);
  return out;
}

// ---------------------------------------------------------------------------
// clean_replan
// ---------------------------------------------------------------------------

// One connection's four-step cycle and the responses it must repeat.
struct CleanCycle {
  std::array<Request, 4> steps;
  std::string plan_ref;    // the set-up plan; every plan after a restore
  std::string replan_ref;  // the first replan; every later replan
  int first_pick = -1;
  double truth = 0.0;
};

int FirstPick(const std::string& response) {
  std::optional<JsonValue> json = JsonValue::Parse(response);
  const JsonValue* result = json.has_value() ? json->Find("result") : nullptr;
  const JsonValue* selection = result != nullptr ? result->Find("selection") : nullptr;
  const JsonValue* order = selection != nullptr ? selection->Find("order") : nullptr;
  if (order == nullptr || !order->is_array() || order->array().empty()) return -1;
  return static_cast<int>(order->array()[0].number());
}

RunResult RunCleanReplan(const RunOptions& o) {
  RunResult out;
  const std::vector<CleanReplanConnection> conns =
      MakeCleanReplanWorkload(o.seed, kCleanReplanConnections);
  const int n = static_cast<int>(conns.size());
  const std::string socket_path = o.run_dir + "/daemon.sock";
  const std::string log_path = o.run_dir + "/daemon.log";
  Daemon daemon;
  std::vector<LineClient> clients(n);
  std::vector<CleanCycle> cycles(n);
  LayerSamples setup_samples;
  std::vector<double> setup_times;
  std::string error, response;

  // Sends one cycle step outside any timed phase, checking the response.
  auto untimed = [&](int c, int step) {
    const Request& request = cycles[c].steps[step];
    if (!clients[c].Call(request.line, &response, &error) || !IsOk(response)) {
      out.error = "set-up " + request.line + ": " + error + response;
      return false;
    }
    if (request.kind == OpKind::kPlan && PlanKey(response) != cycles[c].plan_ref) {
      ++out.mismatches;
      out.mismatch_notes.push_back("plan after a restore differs from the set-up "
                                   "plan on " + conns[c].problem.name);
    }
    if (request.kind == OpKind::kReplan) {
      const std::string key(PlanKey(response));
      if (cycles[c].replan_ref.empty()) cycles[c].replan_ref = key;
      if (key != cycles[c].replan_ref) {
        ++out.mismatches;
        out.mismatch_notes.push_back("set-up replan changed on " +
                                     conns[c].problem.name);
      }
    }
    return true;
  };

  for (int rep = 0; rep < o.setup_reps; ++rep) {
    const double t0 = NowSeconds();
    const std::string changelog = o.run_dir + "/changelog-" + std::to_string(rep);
    // --fsync off: the changelog has to live inside the checkout, whose
    // disk is shared with whatever else runs on the machine; a flush there
    // would measure that disk, not the program.  Under this policy the
    // store skips the group-commit fsync of each append and the temp-file,
    // directory and log fsyncs of each snapshot, so the durability path is
    // not measured: updates time encoding, the log write and compaction.
    if (!daemon.Start(o.serve_bin, socket_path,
                      {"--threads", std::to_string(n), "--changelog", changelog,
                       "--fsync", "off"},
                      log_path, &error)) {
      out.error = error;
      return out;
    }
    for (int c = 0; c < n; ++c) {
      if (!daemon.Connect(&clients[c], &error)) {
        out.error = error;
        return out;
      }
      const GeneratedProblem& problem = conns[c].problem;
      const double r0 = NowSeconds();
      if (!clients[c].Call(RegisterLine(problem), &response, &error) ||
          !IsOk(response)) {
        out.error = "register " + problem.name + ": " + error + response;
        return out;
      }
      setup_samples.register_ms.push_back((NowSeconds() - r0) * 1e3);
      if (!clients[c].Call(conns[c].plan_line, &response, &error) ||
          !IsOk(response)) {
        out.error = "set-up plan: " + error + response;
        return out;
      }
      CleanCycle& cycle = cycles[c];
      const std::string key(PlanKey(response));
      if (rep == 0) {
        cycle.plan_ref = key;
        cycle.first_pick = FirstPick(response);
        if (cycle.first_pick < 0) {
          out.error = "set-up plan picked nothing: " + response;
          return out;
        }
        cycle.truth = TruthValue(problem.support[cycle.first_pick],
                                 cycle.first_pick, conns[c].truth_seed);
        cycle.steps = {
            Request{OpKind::kPlan, conns[c].plan_line},
            Request{OpKind::kUpdate, CleanLine(problem, cycle.first_pick, cycle.truth)},
            Request{OpKind::kReplan, conns[c].plan_line},
            Request{OpKind::kUpdate, RestoreLine(problem, cycle.first_pick)}};
      } else if (key != cycle.plan_ref) {
        ++out.mismatches;
        out.mismatch_notes.push_back("set-up plan changed between set-ups on " +
                                     problem.name);
      }
      // Warm-up: two full cycles (the first one's replan is the reference).
      for (int step = 1; step < 8; ++step) {
        if (!untimed(c, step % 4)) return out;
      }
    }
    setup_times.push_back(NowSeconds() - t0);
    if (rep + 1 < o.setup_reps) {
      for (LineClient& client : clients) client.Close();
      daemon.Stop();
    }
  }

  // Each connection's position in its cycle carries over between phases.
  std::vector<int> step(n, 0);
  auto run_phase = [&](double seconds, std::vector<Tracer>* tracers,
                       std::vector<std::unique_ptr<ServingMirror>>* mirrors,
                       std::vector<LayerSamples>* samples) {
    std::vector<Phase> phases(n);
    const double start = NowSeconds();
    const double deadline = start + seconds;
    auto connection = [&](int c) {
      Phase& phase = phases[c];
      Tracer off(false);
      Tracer& tracer = tracers != nullptr ? (*tracers)[c] : off;
      std::string reply, ping_error;
      std::int64_t id = 0;
      while (NowSeconds() < deadline) {
        const Request& request = cycles[c].steps[step[c]];
        step[c] = (step[c] + 1) % 4;
        int call = -1;
        ++id;
        const int top = tracer.Begin("fcbench.request", id);
        const bool ok = SendOp(clients[c], socket_path, request, phase, &reply, tracer,
                               id, top, &call);
        if (ok && request.kind == OpKind::kPlan && PlanKey(reply) != cycles[c].plan_ref) {
          phase.Mismatch("plan after a restore differs from the set-up plan on " +
                         conns[c].problem.name);
        }
        if (ok && request.kind == OpKind::kReplan &&
            PlanKey(reply) != cycles[c].replan_ref) {
          phase.Mismatch("replan differs from the first replan on " +
                         conns[c].problem.name);
        }
        if (ok && mirrors != nullptr) {
          LayerSamples& s = (*samples)[c];
          ReplayTraced(request, reply, call, top, id, tracer, *(*mirrors)[c], s, phase);
          if (id % 16 == 0) {
            const int ping = tracer.Begin("serve.server.ping", id, top);
            clients[c].Call(kPingLine, &reply, &ping_error);
            tracer.End(ping);
            s.ping_us.push_back(tracer.span(ping).Us());
          }
        }
        tracer.End(top);
      }
      phase.wall_s = NowSeconds() - start;
    };
    std::vector<std::thread> threads;
    for (int c = 0; c < n; ++c) threads.emplace_back(connection, c);
    for (std::thread& t : threads) t.join();
    Phase merged;
    for (const Phase& phase : phases) merged.Merge(phase);
    return merged;
  };

  DaemonStats before, middle, after;
  if (!FetchStats(clients[0], &before, &error)) {
    out.error = error;
    return out;
  }
  ProcSample proc0, proc1;
  Phase settle = run_phase(o.settle_seconds, nullptr, nullptr, nullptr);
  ReadProcSample(daemon.pid(), &proc0);
  Phase untraced = run_phase(o.trace ? o.seconds / 2 : o.seconds, nullptr,
                             nullptr, nullptr);
  ReadProcSample(daemon.pid(), &proc1);

  Phase traced;
  LayerSamples samples = setup_samples;
  LayerValues layers;
  std::vector<Tracer> tracers;
  PlanningService service;
  if (o.trace) {
    // Finish every open cycle, so the daemon's problems are back in their
    // registered state: the mirrors start from the same CSV.
    for (int c = 0; c < n; ++c) {
      while (step[c] != 0) {
        if (!untimed(c, step[c])) return out;
        step[c] = (step[c] + 1) % 4;
      }
    }
    if (!service.EnablePersistence(o.run_dir + "/mirror-service", &error)) {
      out.error = error;
      return out;
    }
    service.store()->set_fsync_policy(factcheck::serve::FsyncPolicy::kOff);
    std::vector<std::unique_ptr<ServingMirror>> mirrors;
    std::vector<LayerSamples> per_connection(n);
    for (int c = 0; c < n; ++c) {
      tracers.emplace_back(true);
      const GeneratedProblem& problem = conns[c].problem;
      service.HandleLine(RegisterLine(problem));
      auto mirror = std::make_unique<ServingMirror>();
      mirror->service = &service;
      mirror->store = std::make_unique<ChangelogStore>(
          o.run_dir + "/mirror-store-" + std::to_string(c));
      mirror->store->set_fsync_policy(factcheck::serve::FsyncPolicy::kOff);
      if (!mirror->store->Init(&error) || !mirror->Add(problem, &samples, &error)) {
        out.error = error;
        return out;
      }
      const PlanMirror& m = *mirror->with_trajectory[problem.name];
      mirror->store->SaveSnapshot(
          problem.name,
          factcheck::serve::EncodeSnapshot(m.problem(), m.query().References(),
                                           m.query().coefficients(), 0),
          &error);
      mirrors.push_back(std::move(mirror));
    }
    if (!FetchStats(clients[0], &middle, &error)) {
      out.error = error;
      return out;
    }
    traced = run_phase(o.seconds / 2, &tracers, &mirrors, &per_connection);
    for (const LayerSamples& s : per_connection) samples.Merge(s);
  }
  if (!FetchStats(clients[0], &after, &error)) {
    out.error = error;
    return out;
  }
  for (LineClient& client : clients) client.Close();
  double rss = 0.0;
  daemon.Stop(&rss);

  // The first replan must equal a cold from-scratch plan of the cleaned
  // problem.
  for (int c = 0; c < n; ++c) {
    const CleanCycle& cycle = cycles[c];
    std::optional<CleaningProblem> cleaned =
        factcheck::data::ProblemFromCsv(conns[c].problem.Csv(), &error);
    cleaned->Apply(ProblemDelta::Clean(cycle.first_pick, cycle.truth));
    std::vector<int> refs;
    for (int i = 0; i < cleaned->size(); ++i) refs.push_back(i);
    const LinearQueryFunction query(refs, std::vector<double>(refs.size(), 1.0));
    PlanRequest request;
    request.problem = &*cleaned;
    request.query = &query;
    request.linear_query = &query;
    request.objective = ObjectiveKind::kMinVar;
    request.budget = 0.5 * cleaned->TotalCost();
    std::optional<PlanResult> oracle =
        Planner().TryPlan(request, "greedy_minvar", &error);
    if (!oracle.has_value() || PlanKeyOf(*oracle) != cycle.replan_ref) {
      ++out.mismatches;
      out.mismatch_notes.push_back("replan on " + conns[c].problem.name +
                                   " differs from a cold plan of the cleaned "
                                   "problem");
    }
  }
  if (o.trace) {
    FillServingLayers(samples, layers);
    FillEngineCounters(middle, after,
                       traced.OkOf(OpKind::kPlan) + traced.OkOf(OpKind::kReplan),
                       traced.OkOf(OpKind::kUpdate), layers);
    const double ops = static_cast<double>(untraced.Ok());
    layers["proc.cpu_ms_per_op"] = (proc1.cpu_ms - proc0.cpu_ms) / ops;
    layers["proc.ctx_switches_per_op"] =
        static_cast<double>(proc1.ctx_switches - proc0.ctx_switches) / ops;
    Tracer all(true);
    for (const Tracer& t : tracers) all.Merge(t);
    all.Write(o.run_dir + "/trace.jsonl");
  }
  Finish(settle, untraced, o.trace ? &traced : nullptr, Median(setup_times), rss,
         setup_times, layers, out);
  if (o.trace) out.report.push_back(Decomposition(samples));
  ReportRobustness(after, out);
  return out;
}

// ---------------------------------------------------------------------------
// claims_cold
// ---------------------------------------------------------------------------

std::string SelectionKey(const PlanResult& result) {
  std::string key;
  for (int i : result.selection.order) key += std::to_string(i) + ",";
  return key + "cost=" + factcheck::JsonNumber(result.selection.cost);
}

struct ClaimsKeys {
  std::string plan, replan;
};

using Claims = std::shared_ptr<const factcheck::PerturbationSet>;

// The registered dist_kernels workload's claims: overlapping width-6,
// stride-2 window-sum fragility claims, so every greedy step drives the
// 1-D and 2-D convolution kernels.  They depend on the size only, so the
// run takes them from the registry once.
Claims DistKernelsClaims(int size) {
  return factcheck::exp::WorkloadRegistry::Global()
      .Build("dist_kernels", {.size = size})
      .claims;
}

// One claims_cold workload: dist_kernels' URx objects (data::MakeSynthetic)
// and Gamma (the median perturbation value), with the structure fixed —
// exactly 3 atoms and cost 1 per object where the registered build draws
// 3-5 atoms and U[1, 10] costs — so the budget fixes the number of picks
// whatever the seed.
factcheck::exp::Workload BuildClaims(std::uint64_t seed, int size,
                                     const Claims& claims) {
  auto problem = std::make_shared<const CleaningProblem>(factcheck::data::MakeSynthetic(
      factcheck::data::SyntheticFamily::kUniformRandom, seed,
      {.size = size, .min_support = 3, .max_support = 3, .cost_lo = 1.0,
       .cost_hi = 1.0}));
  const double gamma = factcheck::exp::MedianPerturbationValue(*problem, *claims);
  return factcheck::exp::MakeClaimsWorkload(
      "claims_cold", problem, claims, factcheck::QualityMeasure::kFragility, gamma,
      factcheck::StrengthDirection::kHigherIsStronger);
}

// One claims op, all cold: build the claims workload of `seed` and plan
// it (the plan sample), clean the first pick in a copy of the problem (the
// update sample), then build the claims workload over the cleaned problem
// and plan again (the replan sample).
bool ClaimsOp(std::uint64_t seed, const Claims& claims, int size, Phase* phase,
              Tracer& tracer, LayerSamples* samples, std::int64_t id,
              ClaimsKeys* keys, std::string* error) {
  auto attempt = [&](OpKind kind) {
    if (phase != nullptr) ++phase->ops[static_cast<int>(kind)].attempted;
  };
  auto fail = [&](OpKind kind) {
    if (phase != nullptr) ++phase->ops[static_cast<int>(kind)].failed;
    return false;
  };
  auto plan_request = [](const factcheck::exp::Workload& w) {
    PlanRequest request = w.MakeRequest(kClaimsBudgetFrac * w.TotalCost());
    request.objective = ObjectiveKind::kMinVar;
    return request;
  };
  attempt(OpKind::kPlan);
  const double t0 = NowSeconds();
  const int build = tracer.Begin("exp.workload_build", id);
  const factcheck::exp::Workload w = BuildClaims(seed, size, claims);
  tracer.End(build);
  const int plan = tracer.Begin("core.planner.try_plan", id);
  std::optional<PlanResult> first =
      Planner(w.registry()).TryPlan(plan_request(w), "claims_greedy_minvar", error);
  tracer.End(plan);
  const double t1 = NowSeconds();
  if (!first.has_value() || first->selection.order.empty()) return fail(OpKind::kPlan);

  attempt(OpKind::kUpdate);
  CleaningProblem cleaned = *w.problem;
  const int pick = first->selection.order[0];
  const ProblemDelta clean = ProblemDelta::Clean(
      pick, TruthValue(cleaned.object(pick).dist.values(), pick, seed));
  const double t2 = NowSeconds();
  const int apply = tracer.Begin("core.delta.apply", id);
  const bool valid = factcheck::ValidateDelta(cleaned, clean, error);
  if (valid) cleaned.Apply(clean);
  tracer.End(apply);
  const double t3 = NowSeconds();
  if (!valid) return fail(OpKind::kUpdate);

  attempt(OpKind::kReplan);
  const int rebuild = tracer.Begin("exp.workload_rebuild", id);
  const factcheck::exp::Workload w2 = factcheck::exp::MakeClaimsWorkload(
      w.name, std::make_shared<const CleaningProblem>(std::move(cleaned)),
      w.claims, w.measure, w.reference, w.direction);
  tracer.End(rebuild);
  const int replan = tracer.Begin("core.planner.try_plan", id);
  std::optional<PlanResult> second =
      Planner(w2.registry()).TryPlan(plan_request(w2), "claims_greedy_minvar", error);
  tracer.End(replan);
  const double t4 = NowSeconds();
  if (!second.has_value()) return fail(OpKind::kReplan);

  keys->plan = SelectionKey(*first);
  keys->replan = SelectionKey(*second);
  if (phase != nullptr) {
    phase->Samples(OpKind::kPlan).push_back((t1 - t0) * 1e3);
    phase->Samples(OpKind::kUpdate).push_back((t3 - t2) * 1e3);
    phase->Samples(OpKind::kReplan).push_back((t4 - t3) * 1e3);
  }
  if (samples != nullptr) {
    samples->build_ms.push_back(tracer.span(build).Us() * 1e-3);
    samples->apply_us.push_back(tracer.span(apply).Us());
    for (const PlanResult* r : {&*first, &*second}) {
      samples->select_ms.push_back(r->wall_seconds * 1e3);
      samples->evaluations.push_back(static_cast<double>(r->stats.evaluations));
      samples->cache_hits.push_back(static_cast<double>(r->stats.cache_hits));
      samples->probes.push_back(static_cast<double>(r->stats.probes));
      samples->kernel_calls.push_back(static_cast<double>(r->stats.kernel_calls));
      samples->kernel_atoms.push_back(static_cast<double>(r->stats.kernel_atoms));
    }
    // One Theorem-3.8 EV evaluation of the chosen set on a fresh engine.
    EvalEngine fresh(w.metric, OptimizeDirection::kMinimize);
    const int evaluate = tracer.Begin("core.ev.evaluate", id);
    fresh.Evaluate(first->selection.cleaned);
    tracer.End(evaluate);
    samples->evaluate_us.push_back(tracer.span(evaluate).Us());
  }
  return true;
}

RunResult RunClaimsCold(const RunOptions& o) {
  RunResult out;
  // Each seed's selections, recorded at its first op: every later op of
  // that seed must repeat them.
  const std::vector<std::uint64_t> cycle = ClaimsSeedCycle(o.seed, o.claims_cycle);
  std::map<std::uint64_t, ClaimsKeys> refs;
  auto check = [&refs](std::uint64_t seed, const ClaimsKeys& keys) {
    auto [it, first] = refs.try_emplace(seed, keys);
    return first || (it->second.plan == keys.plan && it->second.replan == keys.replan);
  };
  std::vector<double> setup_times;
  std::string error;
  Tracer off(false);
  Claims claims;
  // Set-up: the claims, then the first kClaimsSetupSeeds workloads of the
  // cycle, planned cold, establishing their references.
  for (int rep = 0; rep < o.setup_reps; ++rep) {
    const double t0 = NowSeconds();
    claims = DistKernelsClaims(o.claims_size);
    for (size_t i = 0; i < std::min<size_t>(kClaimsSetupSeeds, cycle.size()); ++i) {
      ClaimsKeys keys;
      if (!ClaimsOp(cycle[i], claims, o.claims_size, nullptr, off, nullptr, 0, &keys,
                    &error)) {
        out.error = "claims set-up, seed " + std::to_string(cycle[i]) + ": " + error;
        return out;
      }
      if (!check(cycle[i], keys)) {
        ++out.mismatches;
        out.mismatch_notes.push_back("claims selection changed between set-ups, seed " +
                                     std::to_string(cycle[i]));
      }
    }
    setup_times.push_back(NowSeconds() - t0);
  }

  size_t cursor = 0;
  auto run_phase = [&](double seconds, Tracer& tracer, LayerSamples* samples) {
    Phase phase;
    const double start = NowSeconds();
    std::int64_t id = 0;
    while (NowSeconds() < start + seconds) {
      const std::uint64_t seed = cycle[cursor++ % cycle.size()];
      ClaimsKeys keys;
      if (!ClaimsOp(seed, claims, o.claims_size, &phase, tracer, samples, ++id, &keys,
                    &error)) {
        continue;
      }
      if (!check(seed, keys)) {
        phase.Mismatch("claims selection of seed " + std::to_string(seed) +
                       " differs from its first op");
      }
    }
    phase.wall_s = NowSeconds() - start;
    return phase;
  };

  ProcSample proc0, proc1;
  Phase settle = run_phase(o.settle_seconds, off, nullptr);
  ReadProcSample(getpid(), &proc0);
  Phase untraced = run_phase(o.trace ? o.seconds / 2 : o.seconds, off, nullptr);
  ReadProcSample(getpid(), &proc1);
  const double rss = SelfPeakRssMiB();

  Phase traced;
  LayerValues layers;
  if (o.trace) {
    Tracer tracer(true);
    LayerSamples s;
    traced = run_phase(o.seconds / 2, tracer, &s);
    double hits = 0.0, evals = 0.0;
    for (double v : s.cache_hits) hits += v;
    for (double v : s.evaluations) evals += v;
    layers["core.planner.select_ms"] = Median(s.select_ms);
    layers["core.engine.evaluations_per_plan"] = Mean(s.evaluations);
    layers["core.engine.hit_ratio"] = hits + evals > 0 ? hits / (hits + evals) : 0.0;
    layers["core.engine.probes_per_plan"] = Mean(s.probes);
    layers["core.ev.evaluate_us"] = Median(s.evaluate_us);
    layers["core.delta.apply_us"] = Median(s.apply_us);
    layers["dist.kernels.calls_per_plan"] = Mean(s.kernel_calls);
    layers["dist.kernels.atoms_per_plan"] = Mean(s.kernel_atoms);
    // Computed, not measured: each atom is a (value, probability) pair of
    // doubles written by a kernel.
    layers["dist.kernels.bytes_per_plan"] = Mean(s.kernel_atoms) * 16.0;
    layers["exp.workload_build_ms"] = Median(s.build_ms);
    const double ops = static_cast<double>(untraced.Ok());
    layers["proc.cpu_ms_per_op"] = (proc1.cpu_ms - proc0.cpu_ms) / ops;
    layers["proc.ctx_switches_per_op"] =
        static_cast<double>(proc1.ctx_switches - proc0.ctx_switches) / ops;
    tracer.Write(o.run_dir + "/trace.jsonl");
  }
  Finish(settle, untraced, o.trace ? &traced : nullptr, Median(setup_times), rss,
         setup_times, layers, out);
  return out;
}

}  // namespace

RunResult RunWorkload(const RunOptions& options) {
  if (options.workload == "advise_warm") return RunAdviseWarm(options);
  if (options.workload == "clean_replan") return RunCleanReplan(options);
  if (options.workload == "claims_cold") return RunClaimsCold(options);
  RunResult out;
  out.error = "unknown workload " + options.workload;
  return out;
}

}  // namespace fcbench
