// Error-path and smoke coverage for the factcheck_cli driver (run and
// bench subcommands), exercised in-process via cli::Main: every
// user-facing failure must exit non-zero after a one-line
// "factcheck_cli: ..." diagnostic on stderr, and never abort.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "cli/cli.h"

namespace factcheck {
namespace {

struct CliOutcome {
  int exit_code = 0;
  std::string stderr_text;
};

// Runs cli::Main on the given arguments, capturing stderr.
CliOutcome RunCli(std::vector<std::string> args) {
  args.insert(args.begin(), "factcheck_cli");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& arg : args) argv.push_back(arg.data());
  testing::internal::CaptureStderr();
  CliOutcome outcome;
  outcome.exit_code =
      cli::Main(static_cast<int>(argv.size()), argv.data());
  outcome.stderr_text = testing::internal::GetCapturedStderr();
  return outcome;
}

// The diagnostic contract: one "factcheck_cli: ..." line (usage text may
// follow on further lines).
void ExpectDiagnostic(const CliOutcome& outcome,
                      const std::string& fragment) {
  EXPECT_EQ(outcome.exit_code, 1);
  EXPECT_NE(outcome.stderr_text.find("factcheck_cli: "), std::string::npos)
      << outcome.stderr_text;
  EXPECT_NE(outcome.stderr_text.find(fragment), std::string::npos)
      << outcome.stderr_text;
  EXPECT_NE(outcome.stderr_text.find('\n'), std::string::npos);
}

std::string WriteTempFile(const std::string& name,
                          const std::string& contents) {
  std::string path = testing::TempDir() + name;
  std::ofstream out(path);
  out << contents;
  return path;
}

TEST(CliErrors, UnknownCommand) {
  ExpectDiagnostic(RunCli({"frobnicate"}), "unknown command");
}

TEST(CliErrors, RunMissingProblemFile) {
  ExpectDiagnostic(RunCli({"run", "--problem", "/nonexistent/p.csv",
                           "--algo", "greedy_minvar", "--budget", "3"}),
                   "cannot open /nonexistent/p.csv");
}

TEST(CliErrors, RunMalformedCsv) {
  std::string path = WriteTempFile("cli_test_malformed.csv",
                                   "label,not-a-number,1,1;2,0.5;0.5\n");
  ExpectDiagnostic(
      RunCli({"run", "--problem", path, "--algo", "greedy_minvar",
              "--budget", "3"}),
      path + ": ");
}

TEST(CliErrors, RunUnknownAlgorithm) {
  std::string path = WriteTempFile("cli_test_ok.csv",
                                   "a,1,1,1;2,0.5;0.5\nb,2,1,2;3,0.5;0.5\n");
  ExpectDiagnostic(RunCli({"run", "--problem", path, "--algo", "nope",
                           "--budget", "3"}),
                   "unknown algorithm \"nope\"");
}

TEST(CliErrors, RunBadNumericFlags) {
  ExpectDiagnostic(RunCli({"run", "--problem", "p.csv", "--algo",
                           "greedy_minvar", "--budget", "three"}),
                   "--budget needs a number");
  ExpectDiagnostic(RunCli({"run", "--problem", "p.csv", "--algo",
                           "greedy_minvar", "--budget", "nan"}),
                   "--budget needs a number");
  ExpectDiagnostic(RunCli({"run", "--problem", "p.csv", "--algo",
                           "greedy_minvar", "--budget", "3", "--threads",
                           "0"}),
                   "--threads needs a positive integer");
  ExpectDiagnostic(RunCli({"run", "--problem", "p.csv", "--algo",
                           "greedy_minvar", "--budget", "3", "--seed",
                           "2.5"}),
                   "--seed needs an integer");
}

// A negative tau used to abort on the MaxPr objective's precondition
// check; now it is a flag error.
TEST(CliErrors, RunNegativeTau) {
  ExpectDiagnostic(RunCli({"run", "--problem", "p.csv", "--algo",
                           "greedy_maxpr", "--budget", "3", "--tau", "-1"}),
                   "--tau needs a finite number >= 0");
}

TEST(CliErrors, RunMissingRequiredFlags) {
  ExpectDiagnostic(RunCli({"run", "--algo", "greedy_minvar", "--budget",
                           "3"}),
                   "--problem is required");
  ExpectDiagnostic(RunCli({"run", "--problem", "p.csv", "--budget", "3"}),
                   "--algo is required");
  ExpectDiagnostic(RunCli({"run", "--problem", "p.csv", "--algo",
                           "greedy_minvar"}),
                   "--budget or --budget-frac is required");
}

TEST(CliErrors, RunRefsOutOfRange) {
  std::string path = WriteTempFile("cli_test_refs.csv",
                                   "a,1,1,1;2,0.5;0.5\nb,2,1,2;3,0.5;0.5\n");
  ExpectDiagnostic(RunCli({"run", "--problem", path, "--algo",
                           "greedy_minvar", "--budget", "3", "--refs",
                           "7"}),
                   "out of range");
}

TEST(CliErrors, BenchUnknownSubcommand) {
  ExpectDiagnostic(RunCli({"bench", "frob"}), "unknown bench subcommand");
}

TEST(CliErrors, BenchUnknownWorkload) {
  ExpectDiagnostic(RunCli({"bench", "run", "--workload", "nope"}),
                   "unknown workload \"nope\"");
}

TEST(CliErrors, BenchUnknownAlgorithm) {
  ExpectDiagnostic(RunCli({"bench", "run", "--workload", "urx_uniqueness",
                           "--budget-fracs", "0.1", "--algos", "nope"}),
                   "unknown algorithm");
}

TEST(CliErrors, BenchMissingWorkload) {
  ExpectDiagnostic(RunCli({"bench", "run"}), "--workload is required");
}

// An objective-driven algorithm of the opposite kind must not optimize
// the workload metric in the wrong direction — rejected, not mis-run.
TEST(CliErrors, BenchMetricDirectionMismatch) {
  ExpectDiagnostic(RunCli({"bench", "run", "--workload", "urx_uniqueness",
                           "--budget-fracs", "0.1", "--algos",
                           "greedy_maxpr"}),
                   "optimizes maxpr, but the workload metric is a minvar");
}

TEST(CliErrors, BenchBadNumericFlags) {
  ExpectDiagnostic(RunCli({"bench", "run", "--workload", "urx_uniqueness",
                           "--budget-fracs", "0.1,x"}),
                   "--budget-fracs needs numbers");
  ExpectDiagnostic(RunCli({"bench", "run", "--workload", "urx_uniqueness",
                           "--reps", "0"}),
                   "--reps needs a positive integer");
  ExpectDiagnostic(RunCli({"bench", "run", "--workload", "urx_uniqueness",
                           "--warmup", "-1"}),
                   "--warmup needs a non-negative integer");
  ExpectDiagnostic(RunCli({"bench", "run", "--workload", "urx_uniqueness",
                           "--gamma", "inf"}),
                   "--gamma needs a number");
}

TEST(CliErrors, BenchUnwritableJsonPath) {
  ExpectDiagnostic(RunCli({"bench", "run", "--workload", "urx_uniqueness",
                           "--budget-fracs", "0.1", "--algos",
                           "greedy_naive", "--json",
                           "/nonexistent/dir/out.json"}),
                   "cannot write /nonexistent/dir/out.json");
}

TEST(CliSmoke, BenchListWorkloadsRuns) {
  CliOutcome outcome = RunCli({"bench", "list-workloads"});
  EXPECT_EQ(outcome.exit_code, 0);
}

}  // namespace
}  // namespace factcheck
