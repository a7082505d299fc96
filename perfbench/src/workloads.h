// The three benchmark workloads.  Each runs a set-up (several times, so
// the set-up time is a median), a closed-loop timed phase, and its
// correctness checks; with tracing on, a second timed phase replays the
// same request stream through in-process mirrors of each layer and
// reports the per-layer metrics.  See perfbench/README.md for why each
// workload exists and which layer metric should move which end-to-end
// metric.

#ifndef FCBENCH_WORKLOADS_H_
#define FCBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "streams.h"

namespace fcbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_bin;  // factcheck_serve
  std::string run_dir;    // scratch directory for sockets, changelogs, traces
  int setup_reps = 5;
  // Untimed load between set-up and the timed phase (same request
  // stream, correctness still checked), so the timed phase starts with
  // warm caches and allocator state.
  double settle_seconds = 1.0;
  // Workload sizes; the benchmark's tests shrink them.
  int advise_problems = 16;
  int claims_size = 48;
  // Long enough that a run's p50 is taken over hundreds of distinct
  // problems, short enough that each seed recurs (its repeat is checked).
  int claims_cycle = 256;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct OpCounts {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

struct RunResult {
  std::string error;  // non-empty: the run itself broke (no result)
  std::int64_t mismatches = 0;  // correctness failures, apart from failed ops
  std::vector<std::string> mismatch_notes;
  std::array<OpCounts, kOpKinds> ops{};  // of the run's untraced phase
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  // trace runs only
  std::vector<std::string> report;  // human-readable lines

  bool correct() const { return error.empty() && mismatches == 0; }
  std::int64_t attempted() const;
  std::int64_t failed() const;
};

const std::vector<std::string>& WorkloadNames();

// Connections (= pinned CPUs) of a workload: 1, 2, 1.
int WorkloadConnections(const std::string& workload);

RunResult RunWorkload(const RunOptions& options);

}  // namespace fcbench

#endif  // FCBENCH_WORKLOADS_H_
