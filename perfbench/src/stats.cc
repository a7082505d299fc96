#include "stats.h"

#include <algorithm>
#include <cmath>

namespace fcbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  q = std::clamp(q, 0.0, 1.0);
  const double h = (static_cast<double>(samples.size()) - 1.0) * q;
  const size_t lo = static_cast<size_t>(std::floor(h));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (h - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

int CountAbove(const std::vector<double>& samples, double q) {
  const double cut = Percentile(samples, q);
  int above = 0;
  for (double v : samples) above += v > cut ? 1 : 0;
  return above;
}

}  // namespace fcbench
