#include "bsp/cost.hpp"

#include <algorithm>
#include <stdexcept>

namespace nobl {

void DbspParams::validate() const {
  if (ell.size() != g.size()) {
    throw std::invalid_argument("DbspParams: g/ell size mismatch");
  }
}

bool DbspParams::monotone() const {
  validate();
  for (std::size_t i = 0; i + 1 < g.size(); ++i) {
    if (g[i] < g[i + 1]) return false;
    if (g[i] <= 0 || g[i + 1] <= 0) return false;
    if (ell[i] / g[i] < ell[i + 1] / g[i + 1]) return false;
  }
  return !g.empty() && g.back() > 0;
}

double DbspParams::max_ell_over_g() const {
  validate();
  double best = 0.0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    best = std::max(best, ell[i] / g[i]);
  }
  return best;
}

// The cost queries below are O(log p) over the trace's per-label fold sums,
// independent of the number of supersteps — certify_optimality and the
// bench tables evaluate them inside nested fold × σ sweeps.

double communication_complexity(const FoldTables& trace, unsigned log_p,
                                double sigma) {
  if (log_p > trace.log_v()) {
    throw std::out_of_range("communication_complexity: fold too large");
  }
  // Eq. (1): Σ_{i < log p} (F^i + S^i σ) = total_F + σ · total_S.
  return static_cast<double>(trace.total_F(log_p)) +
         sigma * static_cast<double>(trace.total_S(log_p));
}

double communication_time(const FoldTables& trace, const DbspParams& params) {
  const unsigned log_p = params.log_p();
  if (log_p > trace.log_v()) {
    throw std::out_of_range("communication_time: fold too large");
  }
  params.validate();
  // Eq. (2): Σ_{i < log p} (F^i(n, p) g_i + S^i(n) ℓ_i).
  double total = 0.0;
  for (unsigned i = 0; i < log_p; ++i) {
    const std::uint64_t s = trace.S(i);
    if (s == 0) continue;
    total += static_cast<double>(trace.F(i, log_p)) * params.g[i] +
             static_cast<double>(s) * params.ell[i];
  }
  return total;
}

std::vector<double> communication_time_by_level(const FoldTables& trace,
                                                const DbspParams& params) {
  const unsigned log_p = params.log_p();
  if (log_p > trace.log_v()) {
    throw std::out_of_range("communication_time_by_level: fold too large");
  }
  params.validate();
  std::vector<double> out(log_p, 0.0);
  for (unsigned i = 0; i < log_p; ++i) {
    const std::uint64_t s = trace.S(i);
    if (s == 0) continue;
    out[i] = static_cast<double>(trace.F(i, log_p)) * params.g[i] +
             static_cast<double>(s) * params.ell[i];
  }
  return out;
}

}  // namespace nobl
