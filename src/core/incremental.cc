#include "core/incremental.h"

#include <algorithm>
#include <cmath>

#include "dist/mvn.h"
#include "dist/normal.h"
#include "linalg/cholesky.h"
#include "util/check.h"

namespace factcheck {
namespace {

// Sorted, duplicate-free committed set shared by the closed-form
// implementations; |T| stays small (one entry per pick), so the O(|T|)
// insertion on Commit is noise next to the probe savings.
void InsertSorted(std::vector<int>& set, int i) {
  auto it = std::lower_bound(set.begin(), set.end(), i);
  FC_CHECK(it == set.end() || *it != i);  // i must not already be committed
  set.insert(it, i);
}

std::vector<int> Canonical(std::vector<int> cleaned) {
  std::sort(cleaned.begin(), cleaned.end());
  cleaned.erase(std::unique(cleaned.begin(), cleaned.end()), cleaned.end());
  return cleaned;
}

class ModularIncremental final : public IncrementalObjective {
 public:
  explicit ModularIncremental(std::vector<double> weights)
      : weights_(std::move(weights)), in_set_(weights_.size(), false) {
    Reset({});
  }

  void Reset(const std::vector<int>& cleaned) override {
    std::fill(in_set_.begin(), in_set_.end(), false);
    members_ = Canonical(cleaned);
    for (int i : members_) {
      FC_CHECK_GE(i, 0);
      FC_CHECK_LT(i, static_cast<int>(weights_.size()));
      in_set_[i] = true;
    }
    Recompute();
  }

  double Value() const override { return value_; }

  double ProbeGain(int i) override {
    FC_CHECK(!in_set_[i]);
    return -weights_[i];
  }

  void Commit(int i) override {
    FC_CHECK(!in_set_[i]);
    in_set_[i] = true;
    InsertSorted(members_, i);
    Recompute();
  }

  bool Footprint(int i, std::vector<int>* out) const override {
    (void)i;
    out->clear();  // a probe never reads T
    return true;
  }

 private:
  // Same accumulation as the batch remaining-variance metric: uncleaned
  // weights summed in index order, so Value() is bit-equal to it.
  void Recompute() {
    double acc = 0.0;
    for (size_t i = 0; i < weights_.size(); ++i) {
      if (!in_set_[i]) acc += weights_[i];
    }
    value_ = acc;
  }

  std::vector<double> weights_;
  std::vector<bool> in_set_;
  std::vector<int> members_;
  double value_ = 0.0;
};

class NormalMaxPrIncremental final : public IncrementalObjective {
 public:
  NormalMaxPrIncremental(std::vector<double> coeffs,
                         std::vector<double> means,
                         std::vector<double> stddevs,
                         std::vector<double> current, double tau)
      : coeffs_(std::move(coeffs)),
        tau_(tau),
        in_set_(coeffs_.size(), false) {
    FC_CHECK_GE(tau_, 0.0);
    FC_CHECK_EQ(coeffs_.size(), means.size());
    FC_CHECK_EQ(coeffs_.size(), stddevs.size());
    FC_CHECK_EQ(coeffs_.size(), current.size());
    shift_terms_.resize(coeffs_.size());
    var_terms_.resize(coeffs_.size());
    for (size_t i = 0; i < coeffs_.size(); ++i) {
      shift_terms_[i] = coeffs_[i] * (means[i] - current[i]);
      var_terms_[i] = coeffs_[i] * coeffs_[i] * stddevs[i] * stddevs[i];
    }
    Reset({});
  }

  void Reset(const std::vector<int>& cleaned) override {
    std::fill(in_set_.begin(), in_set_.end(), false);
    members_ = Canonical(cleaned);
    for (int i : members_) {
      FC_CHECK_GE(i, 0);
      FC_CHECK_LT(i, static_cast<int>(coeffs_.size()));
      in_set_[i] = true;
    }
    Recompute();
  }

  double Value() const override { return value_; }

  double ProbeGain(int i) override {
    FC_CHECK(!in_set_[i]);
    double shift = shift_;
    double variance = variance_;
    if (coeffs_[i] != 0.0) {
      shift += shift_terms_[i];
      variance += var_terms_[i];
    }
    return Prob(/*empty=*/false, shift, variance) - value_;
  }

  void Commit(int i) override {
    FC_CHECK(!in_set_[i]);
    in_set_[i] = true;
    InsertSorted(members_, i);
    Recompute();
  }

 private:
  // Mirrors SurpriseProbabilityNormal exactly: empty set -> 0, ascending
  // accumulation skipping zero coefficients, degenerate variance -> the
  // shift indicator.
  double Prob(bool empty, double shift, double variance) const {
    if (empty) return 0.0;
    if (variance <= 0.0) return shift < -tau_ ? 1.0 : 0.0;
    return StdNormalCdf((-tau_ - shift) / std::sqrt(variance));
  }

  void Recompute() {
    shift_ = 0.0;
    variance_ = 0.0;
    for (int i : members_) {
      if (coeffs_[i] == 0.0) continue;
      shift_ += shift_terms_[i];
      variance_ += var_terms_[i];
    }
    value_ = Prob(members_.empty(), shift_, variance_);
  }

  std::vector<double> coeffs_;
  std::vector<double> shift_terms_;  // a_i (mean_i - u_i)
  std::vector<double> var_terms_;    // a_i^2 stddev_i^2
  double tau_;

  std::vector<bool> in_set_;
  std::vector<int> members_;
  double shift_ = 0.0;
  double variance_ = 0.0;
  double value_ = 0.0;
};

class ConditionalVarianceIncremental final : public IncrementalObjective {
 public:
  ConditionalVarianceIncremental(const MultivariateNormal& model,
                                 std::vector<double> weights)
      : model_(&model), a_(std::move(weights)) {
    FC_CHECK_EQ(static_cast<int>(a_.size()), model_->dim());
    // Pivot floor relative to the largest prior variance, mirroring the
    // batch path's escalating-jitter guard for semi-definite models.
    double max_diag = 0.0;
    const Matrix& cov = model_->covariance();
    for (int i = 0; i < model_->dim(); ++i) {
      max_diag = std::max(max_diag, cov(i, i));
    }
    pivot_floor_ = 1e-12 * max_diag;
    // No Reset here: the covariance copy + refresh is the expensive part,
    // and the engine Resets before the first probe anyway.
  }

  void Reset(const std::vector<int>& cleaned) override {
    ready_ = true;
    cond_ = model_->covariance();
    active_ = a_;
    conditioned_.assign(a_.size(), false);
    for (int i : Canonical(cleaned)) {
      FC_CHECK_GE(i, 0);
      FC_CHECK_LT(i, model_->dim());
      SchurConditionInPlace(cond_, i, pivot_floor_);
      active_[i] = 0.0;
      conditioned_[i] = true;
    }
    Refresh();
  }

  double Value() const override {
    FC_CHECK(ready_);
    return value_;
  }

  double ProbeGain(int i) override {
    FC_CHECK(ready_);
    FC_CHECK(!conditioned_[i]);
    const double ai = active_[i];
    const double pivot = cond_(i, i);
    const double gi = g_[i];
    // b = active − a_i e_i: the functional once i is cleaned.
    double quad_minus = quad_ - 2.0 * ai * gi + ai * ai * pivot;
    double probe_quad = quad_minus;
    if (pivot > pivot_floor_) {
      const double cross = gi - ai * pivot;  // b' Σ^{(T)} e_i
      probe_quad -= cross * cross / pivot;
    }
    return std::max(probe_quad, 0.0) - value_;
  }

  void Commit(int i) override {
    FC_CHECK(ready_);
    FC_CHECK_GE(i, 0);
    FC_CHECK_LT(i, model_->dim());
    FC_CHECK(!conditioned_[i]);
    SchurConditionInPlace(cond_, i, pivot_floor_);
    active_[i] = 0.0;
    conditioned_[i] = true;
    Refresh();
  }

 private:
  void Refresh() {
    g_ = MatVec(cond_, active_);
    quad_ = Dot(active_, g_);
    // Variances are non-negative by definition; float residue from the
    // downdates can dip a hair below zero, like the batch Schur path.
    value_ = std::max(quad_, 0.0);
  }

  const MultivariateNormal* model_;
  std::vector<double> a_;        // the full functional
  std::vector<double> active_;   // a with conditioned coordinates zeroed
  std::vector<bool> conditioned_;
  Matrix cond_;                  // Σ^{(T)}, conditioned rows/cols zeroed
  std::vector<double> g_;        // Σ^{(T)} active
  double quad_ = 0.0;            // active' Σ^{(T)} active (unclamped)
  double value_ = 0.0;
  double pivot_floor_ = 0.0;
  bool ready_ = false;  // Reset() must run before the first use
};

}  // namespace

std::unique_ptr<IncrementalObjective> MakeModularIncremental(
    std::vector<double> weights) {
  return std::make_unique<ModularIncremental>(std::move(weights));
}

std::unique_ptr<IncrementalObjective> MakeNormalMaxPrIncremental(
    std::vector<double> coeffs, std::vector<double> means,
    std::vector<double> stddevs, std::vector<double> current, double tau) {
  return std::make_unique<NormalMaxPrIncremental>(
      std::move(coeffs), std::move(means), std::move(stddevs),
      std::move(current), tau);
}

std::unique_ptr<IncrementalObjective> MakeConditionalVarianceIncremental(
    const MultivariateNormal& model, std::vector<double> weights) {
  return std::make_unique<ConditionalVarianceIncremental>(model,
                                                          std::move(weights));
}

}  // namespace factcheck
