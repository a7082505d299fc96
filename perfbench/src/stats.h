// Sample statistics for the benchmark's latency metrics.

#ifndef FCBENCH_STATS_H_
#define FCBENCH_STATS_H_

#include <vector>

namespace fcbench {

// The q-quantile (0 <= q <= 1) of `samples` by linear interpolation
// between closest ranks (numpy's default, "type 7"): rank h = (n-1)q, the
// result lies between the floor(h)-th and ceil(h)-th smallest samples.
// Empty input gives 0.  Takes a copy because it sorts.
double Percentile(std::vector<double> samples, double q);

// Median of `samples` (Percentile at 0.5).
double Median(std::vector<double> samples);

// How many samples lie strictly above the q-quantile.  A reported
// percentile should keep at least ten samples beyond it, or it swings
// with the few samples that decide it.
int CountAbove(const std::vector<double>& samples, double q);

}  // namespace fcbench

#endif  // FCBENCH_STATS_H_
