// Tests of the benchmark itself: the percentile code, the determinism of
// the generated request streams, and every workload at a tiny size with
// its correctness checks switched on (traced and untraced).
//
//   cmake --build .bench_build --target fcbench_test && .bench_build/fcbench_test

#include <algorithm>
#include <cmath>
#include <filesystem>

#include <gtest/gtest.h>

#include "stats.h"
#include "streams.h"
#include "workloads.h"

namespace fcbench {
namespace {

TEST(Percentile, KnownVectors) {
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_EQ(Percentile({7.0}, 0.9), 7.0);
  const std::vector<double> five = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(Percentile(five, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(five, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(five, 0.9), 4.6);  // rank 3.6: 4 + 0.6 * (5 - 4)
  EXPECT_DOUBLE_EQ(Percentile(five, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Median({1, 2, 3, 4}), 2.5);
  // Matches Python's statistics.quantiles(..., method="inclusive").
  EXPECT_DOUBLE_EQ(Percentile({10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 0.25), 32.5);
}

TEST(Percentile, TwoClassMixtureSplitsP50AndP90) {
  // advise_warm's shape: three exact-class plans (~45 us) per closed-form
  // plan (~2 ms).  p50 must land inside the fast class and p90 inside the
  // slow one, each with room to spare from the class boundary at p75.
  std::vector<double> mixture;
  for (int i = 0; i < 400; ++i) {
    mixture.push_back(i % 4 == 3 ? 2.0 + 0.001 * (i % 7) : 0.045 + 0.0001 * (i % 5));
  }
  std::rotate(mixture.begin(), mixture.begin() + 37, mixture.end());
  EXPECT_LT(Percentile(mixture, 0.5), 0.05);
  EXPECT_GE(Percentile(mixture, 0.9), 2.0);
  EXPECT_GE(CountAbove(mixture, 0.9), 10);
}

TEST(Streams, SameSeedSameLines) {
  const AdviseWorkload a = MakeAdviseWorkload(11, 512);
  const AdviseWorkload b = MakeAdviseWorkload(11, 512);
  ASSERT_EQ(a.stream.size(), b.stream.size());
  for (size_t i = 0; i < a.stream.size(); ++i) {
    EXPECT_EQ(a.stream[i].line, b.stream[i].line);
    EXPECT_EQ(a.stream[i].kind, b.stream[i].kind);
  }
  EXPECT_EQ(a.warm_lines, b.warm_lines);
  for (size_t i = 0; i < a.problems.size(); ++i) {
    EXPECT_EQ(RegisterLine(a.problems[i]), RegisterLine(b.problems[i]));
  }
  const AdviseWorkload other = MakeAdviseWorkload(12, 512);
  EXPECT_NE(RegisterLine(a.problems[0]), RegisterLine(other.problems[0]));

  const auto c1 = MakeCleanReplanWorkload(11, 2);
  const auto c2 = MakeCleanReplanWorkload(11, 2);
  for (size_t c = 0; c < c1.size(); ++c) {
    EXPECT_EQ(RegisterLine(c1[c].problem), RegisterLine(c2[c].problem));
    EXPECT_EQ(RestoreLine(c1[c].problem, 3), RestoreLine(c2[c].problem, 3));
    EXPECT_EQ(c1[c].truth_seed, c2[c].truth_seed);
  }
  EXPECT_EQ(ClaimsSeedCycle(11, 8), ClaimsSeedCycle(11, 8));
  EXPECT_NE(ClaimsSeedCycle(11, 8), ClaimsSeedCycle(12, 8));
}

TEST(Streams, AdviseMixIsThreeExactToOneClosedForm) {
  const AdviseWorkload w = MakeAdviseWorkload(3, 4096);
  int counts[kOpKinds] = {};
  for (const Request& r : w.stream) ++counts[static_cast<int>(r.kind)];
  EXPECT_EQ(counts[static_cast<int>(OpKind::kLinear)], 4096 / 4 - 4096 / 32);
  EXPECT_EQ(counts[static_cast<int>(OpKind::kUpdate)], 4096 / 32);
  EXPECT_EQ(counts[static_cast<int>(OpKind::kReplan)], 4096 / 32);
  // Every plan line of the stream is warmed during set-up.
  for (const Request& r : w.stream) {
    if (r.kind == OpKind::kUpdate) continue;
    EXPECT_NE(std::find(w.warm_lines.begin(), w.warm_lines.end(), r.line),
              w.warm_lines.end());
  }
}

class TinyWorkload : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(TinyWorkload, RunsCorrectly) {
  RunOptions options;
  options.workload = std::get<0>(GetParam());
  options.trace = std::get<1>(GetParam());
  options.seed = 5;
  options.seconds = 0.4;
  options.setup_reps = 2;
  options.settle_seconds = 0.2;
  options.advise_problems = 2;
  options.claims_size = 12;
  options.claims_cycle = 2;
  options.serve_bin = FCBENCH_SERVE_BIN;
  options.run_dir = ".bench_run/test-" + options.workload;
  std::filesystem::remove_all(options.run_dir);
  std::filesystem::create_directories(options.run_dir);

  const RunResult result = RunWorkload(options);
  ASSERT_TRUE(result.error.empty()) << result.error;
  for (const std::string& note : result.mismatch_notes) ADD_FAILURE() << note;
  EXPECT_TRUE(result.correct());
  EXPECT_GT(result.attempted(), 0);
  EXPECT_EQ(result.failed(), 0);
  ASSERT_EQ(result.end_to_end.size(), 9u);
  for (const Metric& m : result.end_to_end) {
    EXPECT_TRUE(std::isfinite(m.value)) << m.name;
    EXPECT_GT(m.value, 0.0) << m.name;
  }
  if (options.trace) {
    EXPECT_EQ(result.per_layer.size(), 27u);
  } else {
    EXPECT_TRUE(result.per_layer.empty());
  }
  std::filesystem::remove_all(options.run_dir);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, TinyWorkload,
    ::testing::Combine(::testing::Values("advise_warm", "clean_replan", "claims_cold"),
                       ::testing::Bool()));

}  // namespace
}  // namespace fcbench
