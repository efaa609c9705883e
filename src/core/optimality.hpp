// Numerical machinery around the optimality theorem (Theorem 3.4) and its
// fullness-based extension (Theorem 5.3).
//
// The theorem's logical chain — β-optimality on the evaluation model, plus
// (α,p)-wiseness, plus monotone (g⃗, ℓ⃗) in the admissible σ-range, implies
// αβ/(1+α)-optimality on the D-BSP — is reproduced here in measurable form:
//
//  * α, γ are measured from the trace (core/wiseness.hpp);
//  * β is estimated as min over machine sizes and a σ-grid of LB/H, where LB
//    is the corresponding Section-4 lower bound (core/lower_bounds.hpp);
//  * the D-BSP guarantee is certified by evaluating D_A against a D-BSP
//    lower bound derived from the same LB via the folding argument of
//    Lemma 3.1 (see dbsp_lower_bound below).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "bsp/cost.hpp"
#include "bsp/trace.hpp"

namespace nobl {

/// H-lower-bound functional: (n, p, sigma) -> Ω-expression value.
using LowerBoundFn =
    std::function<double(std::uint64_t n, std::uint64_t p, double sigma)>;

struct OptimalityReport {
  std::uint64_t n = 0;
  std::uint64_t p = 0;
  double alpha = 0.0;      ///< measured wiseness (Def. 3.2)
  double gamma = 0.0;      ///< measured fullness (Def. 5.2)
  double beta_min = 0.0;   ///< min over folds 2..p and σ-grid of LB/H
  double beta_at_p = 0.0;  ///< LB/H at fold p, σ = 0
  /// αβ/(1+α): the D-BSP optimality factor promised by Theorem 3.4.
  [[nodiscard]] double guarantee() const {
    return alpha * beta_min / (1.0 + alpha);
  }
};

/// Measure α, γ and β for a trace against a lower bound, sweeping folds
/// 2^1..2^log_p and the given σ grid (σ values for which the algorithm is
/// supposed to be β-optimal; pass the range the relevant theorem states).
/// Reads only the fold sums, so a TraceReader certifies a binary golden
/// file without materializing it.
[[nodiscard]] OptimalityReport certify_optimality(
    const FoldTables& trace, std::uint64_t n, unsigned log_p,
    const LowerBoundFn& lower_bound, std::span<const double> sigmas);

/// D-BSP communication-time lower bound implied by an H-lower-bound via
/// folding: any algorithm C in the class satisfies, for every 1 <= j <= log p,
///   Σ_{i<j} F^i_C(n,p) >= (2^j/p)·Σ_{i<j} F^i_C(n,2^j) >= (2^j/p)·LB(n,2^j,0),
/// hence D_C >= g_{j-1}·(2^j/p)·LB(n,2^j,0) (+ ℓ_{j-1} if LB forces any
/// communication at that level). We return the max over j.
[[nodiscard]] double dbsp_lower_bound(const LowerBoundFn& lower_bound,
                                      std::uint64_t n,
                                      const DbspParams& params);

/// The factor (1+α)/(αβ) on the right-hand side of Theorem 3.4's conclusion.
[[nodiscard]] double theorem34_factor(double alpha, double beta);

/// The factor of Theorem 5.3: (1 + 1/γ)·log²p / β.
[[nodiscard]] double theorem53_factor(double gamma, double beta,
                                      std::uint64_t p);

}  // namespace nobl
