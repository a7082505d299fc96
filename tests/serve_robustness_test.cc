// Failure-path behaviour of the serving stack: the SIGPIPE regression
// (a peer vanishing mid-response must never kill the daemon), graceful
// Stop() draining in-flight responses without tearing them, request
// deadlines rejected at the planner boundary with the engine memo left
// consistent, request lines that used to abort the daemon (a negative
// tau, coefficients whose weights overflow) answered with an error,
// bounded-admission overload shedding, the update
// idempotency contract RequestSession retries lean on, and the
// journal-overrun full-rebuild fallback for streams past the problem's
// delta-journal capacity.
//
// Carries the `stress` label: the socket and drain tests are TSan
// targets.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/delta.h"
#include "core/engine.h"
#include "core/ev.h"
#include "core/greedy.h"
#include "core/problem.h"
#include "core/query_function.h"
#include "data/problem_io.h"
#include "serve/client.h"
#include "serve/json_value.h"
#include "serve/server.h"
#include "serve/service.h"
#include "util/cancel.h"
#include "util/json.h"

namespace factcheck {
namespace serve {
namespace {

CleaningProblem MakeProblem(int n = 6) {
  std::vector<UncertainObject> objects;
  objects.reserve(n);
  for (int i = 0; i < n; ++i) {
    UncertainObject object;
    object.label = "o" + std::to_string(i);
    object.current_value = 10.0 + i;
    object.cost = 1.0 + 0.25 * (i % 3);
    double mid = 10.0 + i;
    object.dist = DiscreteDistribution({mid - 1.0, mid, mid + 2.0 + 0.5 * i},
                                       {0.25, 0.5, 0.25});
    objects.push_back(std::move(object));
  }
  return CleaningProblem(std::move(objects));
}

std::string RegisterLine(const std::string& name, const std::string& csv) {
  JsonWriter writer;
  writer.BeginObject()
      .Key("op")
      .String("register")
      .Key("problem")
      .String(name)
      .Key("csv")
      .String(csv)
      .EndObject();
  return writer.str();
}

std::string PlanLine(const std::string& name, double budget) {
  return "{\"op\":\"plan\",\"problem\":\"" + name +
         "\",\"algo\":\"greedy_minvar\",\"budget\":" + std::to_string(budget) +
         "}";
}

std::string DeltaJson(const ProblemDelta& delta) {
  JsonWriter writer;
  WriteDeltaJson(delta, writer);
  return writer.str();
}

JsonValue ParseOk(const std::string& response) {
  std::string error;
  std::optional<JsonValue> value = JsonValue::Parse(response, &error);
  EXPECT_TRUE(value.has_value()) << error << " in " << response;
  EXPECT_TRUE(value->Find("ok") != nullptr && value->Find("ok")->boolean())
      << response;
  return std::move(*value);
}

std::vector<int> CleanedOf(const JsonValue& plan_response) {
  const JsonValue* cleaned =
      plan_response.Find("result")->Find("selection")->Find("cleaned");
  std::vector<int> out;
  for (const JsonValue& item : cleaned->array()) {
    out.push_back(static_cast<int>(item.number()));
  }
  return out;
}

std::int64_t RobustnessStat(PlanningService& service, const std::string& key) {
  JsonValue stats = ParseOk(service.HandleLine("{\"op\":\"stats\"}"));
  return static_cast<std::int64_t>(
      stats.Find("stats")->Find("robustness")->Find(key)->number());
}

std::string TestSocket(const char* tag) {
  return "/tmp/fc_robust_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

// --- SIGPIPE --------------------------------------------------------------

// The regression: before MSG_NOSIGNAL, a peer that closed its socket
// before the response was written delivered SIGPIPE to the whole process
// and killed the daemon.  Now the send fails with EPIPE, the connection
// is reaped, and the next client is served normally.
TEST(SocketServer, PeerVanishingMidResponseDoesNotKillTheProcess) {
  PlanningService service;
  std::string error;
  ASSERT_TRUE(service.RegisterProblem(
      "p", data::ProblemToCsv(MakeProblem()), {}, {}, &error))
      << error;
  ServerOptions options;
  options.socket_path = TestSocket("sigpipe");
  options.threads = 2;
  SocketServer server(&service, options);
  ASSERT_TRUE(server.Start(&error)) << error;

  // Several rounds: fire a plan request and slam the connection shut
  // without reading, so the server's response send races our close and
  // regularly lands on a dead socket.
  const std::string request = PlanLine("p", 3.0) + "\n";
  for (int round = 0; round < 8; ++round) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, options.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    ::close(fd);  // gone before the response
  }

  // Still alive and serving: a well-behaved client gets a full response.
  LineClient client;
  ASSERT_TRUE(client.Connect(options.socket_path, &error)) << error;
  std::string response;
  ASSERT_TRUE(client.Call(PlanLine("p", 3.0), &response, &error)) << error;
  ParseOk(response);
  server.Stop();
}

// --- Graceful shutdown ----------------------------------------------------

// Stop() must drain: every response a client DOES receive is a complete
// JSON line, even when shutdown lands mid-burst — a torn response means
// the drain logic cut a handler off mid-write.
TEST(SocketServer, StopDrainsInFlightResponsesWithoutTearing) {
  PlanningService service;
  std::string error;
  ASSERT_TRUE(service.RegisterProblem(
      "p", data::ProblemToCsv(MakeProblem()), {}, {}, &error))
      << error;
  ServerOptions options;
  options.socket_path = TestSocket("drain");
  options.threads = 2;
  SocketServer server(&service, options);
  ASSERT_TRUE(server.Start(&error)) << error;

  std::atomic<bool> first_response{false};
  std::atomic<int> completed{0};
  std::thread burst([&] {
    LineClient client;
    std::string client_error;
    if (!client.Connect(options.socket_path, &client_error)) return;
    const std::string line = PlanLine("p", 3.0);
    for (int i = 0; i < 50; ++i) {
      std::string response;
      if (!client.Call(line, &response, &client_error)) break;
      // A received response is NEVER torn: it parses as a full document.
      std::string parse_error;
      std::optional<JsonValue> parsed =
          JsonValue::Parse(response, &parse_error);
      EXPECT_TRUE(parsed.has_value()) << parse_error << " in " << response;
      ++completed;
      first_response.store(true);
    }
  });
  // Stop mid-burst, after at least one request proved the loop is live.
  while (!first_response.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Stop();
  burst.join();
  EXPECT_GE(completed.load(), 1);
}

// --- Deadlines ------------------------------------------------------------

// A born-expired deadline is rejected whole — plan AND update — with the
// failure counted, the epoch untouched, and the next undeadlined plan
// bit-identical to a fresh service's (the memo was never perturbed).
TEST(PlanningService, ExpiredDeadlineIsRejectedWholeAndCounted) {
  CleaningProblem problem = MakeProblem();
  PlanningService service;
  ParseOk(service.HandleLine(RegisterLine("p", data::ProblemToCsv(problem))));

  const std::string expired_plan =
      "{\"op\":\"plan\",\"problem\":\"p\",\"algo\":\"greedy_minvar\","
      "\"budget\":3.0,\"deadline_ms\":0}";
  std::optional<JsonValue> rejected =
      JsonValue::Parse(service.HandleLine(expired_plan));
  ASSERT_TRUE(rejected.has_value());
  EXPECT_FALSE(rejected->Find("ok")->boolean());
  EXPECT_NE(rejected->Find("error")->string().find("deadline"),
            std::string::npos);

  const std::string expired_update =
      "{\"op\":\"update\",\"problem\":\"p\",\"deltas\":[" +
      DeltaJson(ProblemDelta::SetCost(0, 9.0)) + "],\"deadline_ms\":0}";
  std::optional<JsonValue> update_rejected =
      JsonValue::Parse(service.HandleLine(expired_update));
  ASSERT_TRUE(update_rejected.has_value());
  EXPECT_FALSE(update_rejected->Find("ok")->boolean());
  EXPECT_EQ(RobustnessStat(service, "deadline_exceeded"), 2);

  // The rejected update applied nothing...
  JsonValue stats = ParseOk(service.HandleLine("{\"op\":\"stats\"}"));
  EXPECT_EQ(stats.Find("stats")
                ->Find("problems")
                ->array()[0]
                .Find("epoch")
                ->number(),
            0.0);
  // ...and the rejected plan left no memo damage: same selection as a
  // service that never saw a deadline.
  PlanningService oracle;
  ParseOk(oracle.HandleLine(RegisterLine("p", data::ProblemToCsv(problem))));
  EXPECT_EQ(CleanedOf(ParseOk(service.HandleLine(PlanLine("p", 3.0)))),
            CleanedOf(ParseOk(oracle.HandleLine(PlanLine("p", 3.0)))));
}

// --- One request line must not kill the daemon ------------------------

// The error message of a rejected request.
std::string ErrorOf(const std::string& response) {
  std::optional<JsonValue> value = JsonValue::Parse(response);
  EXPECT_TRUE(value.has_value()) << response;
  if (!value.has_value()) return "";
  EXPECT_FALSE(value->Find("ok")->boolean()) << response;
  const JsonValue* error = value->Find("error");
  return error != nullptr && error->is_string() ? error->string() : "";
}

// A negative or non-finite tau used to abort on the MaxPr objective's
// precondition check.  It is rejected naming the field, before a MaxPr
// engine is keyed by it, and the same service answers the next line.
TEST(PlanningService, InvalidTauIsRejectedAndTheServiceStaysUp) {
  PlanningService service;
  ParseOk(service.HandleLine(
      RegisterLine("p", data::ProblemToCsv(MakeProblem()))));
  for (const char* algo : {"greedy_maxpr", "greedy_maxpr_normal"}) {
    for (const char* tau : {"-1", "1e999"}) {
      SCOPED_TRACE(std::string(algo) + " tau=" + tau);
      const std::string line =
          std::string("{\"op\":\"plan\",\"problem\":\"p\",\"algo\":\"") +
          algo + "\",\"budget\":3,\"tau\":" + tau + "}";
      EXPECT_NE(ErrorOf(service.HandleLine(line)).find("\"tau\""),
                std::string::npos);
      ParseOk(service.HandleLine("{\"op\":\"ping\"}"));
    }
  }
  // No engine was left behind for the rejected thresholds.
  EXPECT_EQ(service.HandleLine("{\"op\":\"stats\"}").find("maxpr@"),
            std::string::npos);
}

// Coefficients whose weights a_i^2 Var[X_i] overflow used to register
// fine, and a knapsack_fptas plan then scaled by infinity and crashed.
// Register and update both refuse such weights, and the service stays up.
TEST(PlanningService, OverflowingWeightsAreRejectedAndTheServiceStaysUp) {
  PlanningService service;
  const std::string csv = data::ProblemToCsv(MakeProblem());
  JsonWriter huge;
  huge.BeginObject()
      .Key("op")
      .String("register")
      .Key("problem")
      .String("big")
      .Key("csv")
      .String(csv)
      .Key("refs")
      .BeginArray()
      .Int(0)
      .Int(1)
      .EndArray()
      .Key("coeffs")
      .BeginArray()
      .Number(1e308)
      .Number(1.0)
      .EndArray()
      .EndObject();
  EXPECT_NE(ErrorOf(service.HandleLine(huge.str())).find("\"coeffs\""),
            std::string::npos);
  ParseOk(service.HandleLine("{\"op\":\"ping\"}"));
  EXPECT_FALSE(service.HasProblem("big"));

  // An update whose distribution overflows the weight is refused whole.
  ParseOk(service.HandleLine(RegisterLine("p", csv)));
  const std::string overflow =
      "{\"op\":\"update\",\"problem\":\"p\",\"deltas\":[" +
      DeltaJson(ProblemDelta::ReplaceDistribution(
          0, DiscreteDistribution({-1e200, 1e200}, {0.5, 0.5}))) +
      "]}";
  EXPECT_NE(ErrorOf(service.HandleLine(overflow)).find("deltas"),
            std::string::npos);
  ParseOk(service.HandleLine("{\"op\":\"ping\"}"));
  ParseOk(service.HandleLine(
      "{\"op\":\"plan\",\"problem\":\"p\",\"algo\":"
      "\"knapsack_fptas_minvar\",\"budget\":3}"));
}

// Engine-level cancellation at an exact round boundary: the partial run
// passes the memo's structural audit, and re-running the same engine to
// completion matches a never-cancelled engine bit-for-bit.
TEST(EvalEngine, CancelledRunLeavesTheMemoConsistent) {
  CleaningProblem problem = MakeProblem(8);
  std::vector<int> refs(problem.size());
  for (int i = 0; i < problem.size(); ++i) refs[i] = i;
  LinearQueryFunction f(refs, std::vector<double>(problem.size(), 1.0));
  const std::vector<double> costs = problem.Costs();
  const double budget = 4.0;

  for (bool lazy : {false, true}) {
    SCOPED_TRACE(lazy ? "lazy" : "plain");
    EvalEngine engine(MinVarObjective(f, problem),
                      OptimizeDirection::kMinimize);
    CountdownToken token(2);
    GreedyOptions cancelled;
    cancelled.lazy = lazy;
    cancelled.cancel = &token;
    Selection partial = engine.Greedy(costs, budget, cancelled);

    std::string why;
    EXPECT_TRUE(engine.CheckMemoInvariants(&why)) << why;

    EvalEngine fresh(MinVarObjective(f, problem),
                     OptimizeDirection::kMinimize);
    Selection oracle = fresh.Greedy(costs, budget, {.lazy = lazy});
    // The cancelled run stopped early...
    EXPECT_LT(partial.cleaned.size(), oracle.cleaned.size());
    // ...and the warm rerun finishes it bit-identically to a cold run.
    Selection resumed = engine.Greedy(costs, budget, {.lazy = lazy});
    EXPECT_EQ(resumed.cleaned, oracle.cleaned);
    EXPECT_EQ(resumed.order, oracle.order);
    EXPECT_EQ(resumed.cost, oracle.cost);  // bit-equal
    EXPECT_TRUE(engine.CheckMemoInvariants(&why)) << why;
  }
}

// An already-cancelled token stops the run before the first evaluation.
TEST(EvalEngine, BornExpiredTokenSelectsNothing) {
  CleaningProblem problem = MakeProblem();
  std::vector<int> refs(problem.size());
  for (int i = 0; i < problem.size(); ++i) refs[i] = i;
  LinearQueryFunction f(refs, std::vector<double>(problem.size(), 1.0));
  EvalEngine engine(MinVarObjective(f, problem), OptimizeDirection::kMinimize);
  DeadlineToken expired(0.0);
  GreedyOptions options;
  options.cancel = &expired;
  Selection sel = engine.Greedy(problem.Costs(), 3.0, options);
  EXPECT_TRUE(sel.cleaned.empty());
  EXPECT_EQ(engine.stats().evaluations, 0);
}

// --- Overload shedding ----------------------------------------------------

TEST(SocketServer, BoundedAdmissionShedsWithRetryAfter) {
  PlanningService service;
  std::string error;
  ASSERT_TRUE(service.RegisterProblem(
      "p", data::ProblemToCsv(MakeProblem()), {}, {}, &error))
      << error;
  ServerOptions options;
  options.socket_path = TestSocket("shed");
  options.threads = 2;
  options.max_connections = 1;
  options.retry_after_ms = 7;
  SocketServer server(&service, options);
  ASSERT_TRUE(server.Start(&error)) << error;

  LineClient holder;
  ASSERT_TRUE(holder.Connect(options.socket_path, &error)) << error;
  std::string pong;
  ASSERT_TRUE(holder.Call("{\"op\":\"ping\"}", &pong, &error)) << error;
  EXPECT_EQ(server.live_connections(), 1);

  // The slot is taken: the next connection gets exactly one overload
  // line and a close — never a hung accept.
  LineClient rejected;
  ASSERT_TRUE(rejected.Connect(options.socket_path, &error)) << error;
  std::string response;
  ASSERT_TRUE(rejected.Call("{\"op\":\"ping\"}", &response, &error)) << error;
  std::optional<JsonValue> parsed = JsonValue::Parse(response, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_FALSE(parsed->Find("ok")->boolean());
  EXPECT_EQ(parsed->Find("error")->string(), "overloaded");
  EXPECT_EQ(parsed->Find("retry_after_ms")->number(), 7.0);
  EXPECT_EQ(RobustnessStat(service, "sheds"), 1);

  // Capacity released: a RequestSession retries through the transient
  // and lands the plan.
  holder.Close();
  SessionOptions session_options;
  session_options.socket_path = options.socket_path;
  session_options.max_attempts = 6;
  session_options.backoff_initial_ms = 0.5;
  session_options.backoff_cap_ms = 4.0;
  session_options.counters = &service.robustness();
  RequestSession session(session_options);
  std::string planned;
  ASSERT_TRUE(session.Call(PlanLine("p", 3.0), &planned, &error)) << error;
  ParseOk(planned);
  server.Stop();
}

// --- Idempotency ----------------------------------------------------------

// The retry contract for updates: a batch stamped with idempotency_seq is
// applied once; the retried duplicate is acknowledged without reapplying;
// a sequence from the future is an error (a gap would mean lost updates).
TEST(PlanningService, IdempotencySequencesDedupeRetriedBatches) {
  PlanningService service;
  ParseOk(service.HandleLine(
      RegisterLine("p", data::ProblemToCsv(MakeProblem()))));
  const std::string batch =
      "{\"op\":\"update\",\"problem\":\"p\",\"idempotency_seq\":1,"
      "\"deltas\":[" +
      DeltaJson(ProblemDelta::SetCost(0, 9.0)) + "," +
      DeltaJson(ProblemDelta::SetCost(1, 8.0)) + "]}";

  JsonValue first = ParseOk(service.HandleLine(batch));
  EXPECT_EQ(first.Find("applied")->number(), 2.0);
  EXPECT_EQ(first.Find("epoch")->number(), 2.0);
  EXPECT_EQ(first.Find("replayed"), nullptr);

  // The retry: same seq, nothing reapplied, same resulting state.
  JsonValue replay = ParseOk(service.HandleLine(batch));
  EXPECT_EQ(replay.Find("applied")->number(), 0.0);
  ASSERT_NE(replay.Find("replayed"), nullptr);
  EXPECT_TRUE(replay.Find("replayed")->boolean());
  EXPECT_EQ(replay.Find("epoch")->number(), 2.0);
  EXPECT_EQ(RobustnessStat(service, "idempotent_replays"), 1);

  // A future sequence is a protocol error, applied nowhere.
  std::optional<JsonValue> ahead = JsonValue::Parse(service.HandleLine(
      "{\"op\":\"update\",\"problem\":\"p\",\"idempotency_seq\":7,"
      "\"deltas\":[" +
      DeltaJson(ProblemDelta::SetCost(2, 7.0)) + "]}"));
  ASSERT_TRUE(ahead.has_value());
  EXPECT_FALSE(ahead->Find("ok")->boolean());
  EXPECT_NE(ahead->Find("error")->string().find("ahead of the changelog"),
            std::string::npos);

  // A sequence that is no integer in [1, 2^53] is an error too — never
  // narrowed into one "behind the cursor" and acknowledged unapplied.
  for (const char* seq : {"1e300", "0", "1.5"}) {
    const std::string response = service.HandleLine(
        std::string("{\"op\":\"update\",\"problem\":\"p\","
                    "\"idempotency_seq\":") +
        seq + ",\"deltas\":[" + DeltaJson(ProblemDelta::SetCost(2, 7.0)) +
        "]}");
    std::optional<JsonValue> bad = JsonValue::Parse(response);
    ASSERT_TRUE(bad.has_value()) << response;
    const JsonValue* message = bad->Find("error");
    EXPECT_FALSE(bad->Find("ok")->boolean()) << response;
    EXPECT_TRUE(message != nullptr &&
                message->string().find(
                    "\"idempotency_seq\" must be an integer") !=
                    std::string::npos)
        << response;
    JsonValue stats = ParseOk(service.HandleLine("{\"op\":\"stats\"}"));
    EXPECT_EQ(stats.Find("stats")
                  ->Find("problems")
                  ->array()[0]
                  .Find("epoch")
                  ->number(),
              2.0)
        << response;
  }
  EXPECT_EQ(RobustnessStat(service, "idempotent_replays"), 1);

  // The next in-order sequence still lands.
  JsonValue next = ParseOk(service.HandleLine(
      "{\"op\":\"update\",\"problem\":\"p\",\"idempotency_seq\":3,"
      "\"deltas\":[" +
      DeltaJson(ProblemDelta::SetCost(2, 7.0)) + "]}"));
  EXPECT_EQ(next.Find("applied")->number(), 1.0);
  EXPECT_EQ(next.Find("epoch")->number(), 3.0);
}

// --- Journal overrun ------------------------------------------------------

// A delta stream past CleaningProblem::kJournalCapacity (256) between two
// plans outruns the engines' epoch downdating: SyncEpoch must fall back
// to a full memo flush — counted as a full_rebuild — and the replanned
// selection must be bit-identical to a cold service planning the final
// state.
TEST(PlanningService, JournalOverrunFallsBackToFullRebuild) {
  CleaningProblem problem = MakeProblem();
  PlanningService service;
  ParseOk(service.HandleLine(RegisterLine("p", data::ProblemToCsv(problem))));
  const std::string plan = PlanLine("p", 3.0);
  ParseOk(service.HandleLine(plan));  // warm the session engine

  // 300 deltas in batches of 60 — far past the 256-record journal.
  CleaningProblem mutated = problem;
  for (int batch = 0; batch < 5; ++batch) {
    std::string deltas = "[";
    for (int i = 0; i < 60; ++i) {
      const int k = batch * 60 + i;
      ProblemDelta delta =
          ProblemDelta::SetCost(k % problem.size(), 1.0 + 0.003 * k);
      mutated.Apply(delta);
      if (i > 0) deltas += ",";
      deltas += DeltaJson(delta);
    }
    deltas += "]";
    ParseOk(service.HandleLine("{\"op\":\"update\",\"problem\":\"p\","
                               "\"deltas\":" +
                               deltas + "}"));
  }

  JsonValue replanned = ParseOk(service.HandleLine(plan));
  // The overrun was detected and the memo flushed wholesale, exactly
  // once, on the one warm engine.
  JsonValue stats = ParseOk(service.HandleLine("{\"op\":\"stats\"}"));
  const std::vector<JsonValue>& engines = stats.Find("stats")
                                              ->Find("problems")
                                              ->array()[0]
                                              .Find("engines")
                                              ->array();
  ASSERT_EQ(engines.size(), 1u);
  EXPECT_EQ(engines[0].Find("full_rebuilds")->number(), 1.0);

  PlanningService oracle;
  ParseOk(oracle.HandleLine(RegisterLine("p", data::ProblemToCsv(mutated))));
  EXPECT_EQ(CleanedOf(replanned),
            CleanedOf(ParseOk(oracle.HandleLine(plan))));
}

}  // namespace
}  // namespace serve
}  // namespace factcheck
