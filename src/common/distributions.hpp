// Probability distributions used by the workload and hardware models.
//
// The paper's workload characterization (Section II, citing the Spider I
// study [14]) found that request inter-arrival times and idle periods follow
// long-tailed distributions well modelled as Pareto, and that request sizes
// are bimodal: either small (< 16 KB) or large multiples of 1 MB. The
// distributions here are the vocabulary those generators are built from.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace spider {

/// Pareto (type I) distribution: P(X > x) = (x_m / x)^alpha for x >= x_m.
/// Long-tailed for small alpha; mean is finite only for alpha > 1.
class Pareto {
 public:
  Pareto(double shape_alpha, double scale_xm);

  double sample(Rng& rng) const;
  /// Analytic mean; +inf when alpha <= 1.
  double mean() const;
  double shape() const { return alpha_; }
  double scale() const { return xm_; }

 private:
  double alpha_;
  double xm_;
};

/// Pareto truncated to [lo, hi]; keeps the long tail but guarantees bounded
/// samples, which hardware models need (no infinite service times).
class BoundedPareto {
 public:
  BoundedPareto(double shape_alpha, double lo, double hi);

  double sample(Rng& rng) const;
  double lo() const { return lo_; }
  double hi() const { return hi_; }

 private:
  double alpha_;
  double lo_;
  double hi_;
};

/// Log-normal, parameterized by the mean/stddev of the underlying normal.
class LogNormal {
 public:
  LogNormal(double mu, double sigma);

  double sample(Rng& rng) const;
  double mean() const;

 private:
  double mu_;
  double sigma_;
};

/// Zipf distribution over ranks 1..n with exponent s; used for file and
/// project popularity skew.
class Zipf {
 public:
  Zipf(std::size_t n, double s);

  /// Sample a rank in [0, n).
  std::size_t sample(Rng& rng) const;
  std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// Discrete mixture: pick component i with probability weight[i]/sum.
class DiscreteMixture {
 public:
  explicit DiscreteMixture(std::span<const double> weights);

  std::size_t sample(Rng& rng) const;
  /// Normalized probability of component i.
  double probability(std::size_t i) const;

 private:
  std::vector<double> cdf_;
};

/// Empirical distribution over explicit values with equal weight.
class Empirical {
 public:
  explicit Empirical(std::vector<double> values);

  double sample(Rng& rng) const;
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

}  // namespace spider
