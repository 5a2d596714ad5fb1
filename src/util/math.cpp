#include "util/math.hpp"

#include <cmath>
#include <limits>
#include <math.h>  // lgamma_r (POSIX, not in std::)

#include "util/error.hpp"

namespace plc::util {

double log_factorial(int n) {
  require(n >= 0, "log_factorial: n must be non-negative");
  // lgamma_r, not std::lgamma: lgamma stores the sign in the global
  // signgam, a data race when models are solved on several threads.
  int sign = 0;
  return ::lgamma_r(static_cast<double>(n) + 1.0, &sign);
}

double log_binomial_coefficient(int n, int k) {
  require(n >= 0, "log_binomial_coefficient: n must be non-negative");
  if (k < 0 || k > n) {
    return -std::numeric_limits<double>::infinity();
  }
  return log_factorial(n) - log_factorial(k) - log_factorial(n - k);
}

double binomial_pmf(int n, int k, double p) {
  require(n >= 0, "binomial_pmf: n must be non-negative");
  require(p >= 0.0 && p <= 1.0, "binomial_pmf: p must be in [0, 1]");
  if (k < 0 || k > n) return 0.0;
  if (p == 0.0) return k == 0 ? 1.0 : 0.0;
  if (p == 1.0) return k == n ? 1.0 : 0.0;
  const double log_pmf = log_binomial_coefficient(n, k) +
                         k * std::log(p) + (n - k) * std::log1p(-p);
  return std::exp(log_pmf);
}

double binomial_cdf(int n, int k, double p) {
  require(n >= 0, "binomial_cdf: n must be non-negative");
  require(p >= 0.0 && p <= 1.0, "binomial_cdf: p must be in [0, 1]");
  if (k < 0) return 0.0;
  if (k >= n) return 1.0;
  double sum = 0.0;
  for (int j = 0; j <= k; ++j) {
    sum += binomial_pmf(n, j, p);
  }
  return sum > 1.0 ? 1.0 : sum;
}

double jain_index(const std::vector<double>& x) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double v : x) {
    sum += v;
    sum_sq += v * v;
  }
  if (x.empty() || sum_sq == 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(x.size()) * sum_sq);
}

}  // namespace plc::util
