#include "core/optimality.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/wiseness.hpp"
#include "util/bits.hpp"

namespace nobl {

OptimalityReport certify_optimality(const FoldTables& trace, std::uint64_t n,
                                    unsigned log_p,
                                    const LowerBoundFn& lower_bound,
                                    std::span<const double> sigmas) {
  if (log_p == 0 || log_p > trace.log_v()) {
    throw std::out_of_range("certify_optimality: log_p out of range");
  }
  OptimalityReport report;
  report.n = n;
  report.p = std::uint64_t{1} << log_p;
  report.alpha = wiseness_alpha(trace, log_p);
  report.gamma = fullness_gamma(trace, log_p);

  double beta = std::numeric_limits<double>::infinity();
  // Each H query sums at most log p fold-table entries, so the whole
  // fold × σ sweep costs O(log² p · |σ|) regardless of trace length.
  for (unsigned j = 1; j <= log_p; ++j) {
    const std::uint64_t machine = std::uint64_t{1} << j;
    for (const double sigma : sigmas) {
      const double h = communication_complexity(trace, j, sigma);
      if (h <= 0.0) continue;
      beta = std::min(beta, lower_bound(n, machine, sigma) / h);
    }
  }
  report.beta_min = std::isfinite(beta) ? beta : 0.0;

  const double h_p = communication_complexity(trace, log_p, 0.0);
  report.beta_at_p = h_p > 0 ? lower_bound(n, report.p, 0.0) / h_p : 0.0;
  return report;
}

double dbsp_lower_bound(const LowerBoundFn& lower_bound, std::uint64_t n,
                        const DbspParams& params) {
  const unsigned log_p = params.log_p();
  const double p = static_cast<double>(params.p());
  double best = 0.0;
  for (unsigned j = 1; j <= log_p; ++j) {
    const std::uint64_t machine = std::uint64_t{1} << j;
    const double volume = lower_bound(n, machine, 0.0);
    if (volume <= 0.0) continue;
    const double scaled =
        params.g[j - 1] * (static_cast<double>(machine) / p) * volume +
        params.ell[j - 1];
    best = std::max(best, scaled);
  }
  return best;
}

double theorem34_factor(double alpha, double beta) {
  if (alpha <= 0 || beta <= 0) {
    throw std::invalid_argument("theorem34_factor: alpha, beta must be > 0");
  }
  return (1.0 + alpha) / (alpha * beta);
}

double theorem53_factor(double gamma, double beta, std::uint64_t p) {
  if (gamma <= 0 || beta <= 0 || p < 2) {
    throw std::invalid_argument("theorem53_factor: bad arguments");
  }
  const double lg = paper_log2(static_cast<double>(p));
  return (1.0 + 1.0 / gamma) * lg * lg / beta;
}

}  // namespace nobl
