// AlgoRegistry: the single catalogue of network-oblivious algorithms.
//
// Every algorithm entry point under src/algorithms/ registers here with
//
//   * a PolicyRunner executing one specification-model run of size n under a
//     chosen backend and engine (bsp/backend.hpp::RunOptions — inputs are
//     generated deterministically from n, see core/workloads.hpp; traces are
//     input-oblivious for every kernel except sample-sort, whose routing
//     degrees the fixed seed pins),
//   * its closed-form predicted cost (Section 4 upper bounds) and the
//     matching lower bound, both as CostFormula (n, p, σ) -> value,
//   * the size sweeps its bench and the CI smoke campaign use,
//   * the backends it supports (every kernel is a Program, so all four:
//     simulate / cost / record, plus the analytic path — exact kernels
//     answer symbolically, the others through the cost interpreter, whose
//     trace is memoized for input-independent kernels; see
//     core/analytic.hpp),
//   * catalog metadata (pattern class, H formula, defining header,
//     exactness and input-independence flags) that `nobl list --json`
//     emits and docs/KERNELS.md is generated from.
//
// The bench binaries, the `nobl` CLI and the campaign runner all pull
// runners and formulas from here instead of re-declaring them, so adding an
// algorithm in one place makes it visible to `nobl list`, `nobl run`,
// `nobl certify`, the benches, and the conformance tests at once.
//
// Admissibility: AlgoRegistry::add wraps every runner so that an
// inadmissible n fails with one uniform, actionable message — the offending
// n, the size rule, and the nearest admissible size — instead of each
// kernel's bare invariant string (the historical admits()/runner asymmetry).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bsp/backend.hpp"
#include "core/experiment.hpp"
#include "core/optimality.hpp"

namespace nobl {

struct AlgoEntry {
  std::string name;     ///< stable CLI identifier, e.g. "fft"
  std::string summary;  ///< one line for `nobl list`
  std::string source;   ///< paper anchor, e.g. "Thm 4.5"
  /// Constraint on admissible n, shown in `nobl list` and error messages.
  std::string size_rule;
  PolicyRunner runner;
  CostFormula predicted;
  CostFormula lower_bound;
  /// The bench binaries' historical sweep (kept byte-identical by tests).
  std::vector<std::uint64_t> bench_sizes;
  /// Small sizes for the ci-smoke campaign (seconds, not minutes).
  std::vector<std::uint64_t> smoke_sizes;

  /// Communication-pattern class, e.g. "reduction tree", "all-to-all
  /// permutation" — the docs catalog (docs/KERNELS.md) column.
  std::string pattern;
  /// Human-readable H(n, p, σ) formula; exact when exact_h, an O(·)
  /// envelope otherwise.
  std::string formula;
  /// Defining header under src/, e.g. "src/algorithms/scan.hpp".
  std::string header;

  /// True iff `predicted` equals measured H at every fold and σ. Such
  /// kernels carry an `analytic` trace synthesizer and the analytic
  /// backend answers them without executing a message.
  bool exact_h = false;
  /// False for kernels whose degrees depend on the input values
  /// (samplesort): the analytic backend's trace memo refuses them and
  /// re-executes them under cost on every query.
  bool input_independent = true;
  /// Closed-form trace synthesizer (core/analytic.hpp); set iff exact_h.
  Trace (*analytic)(std::uint64_t n) = nullptr;

  /// True iff `n` satisfies size_rule (the runner would accept it).
  [[nodiscard]] bool admits(std::uint64_t n) const {
    return validate == nullptr || validate(n);
  }
  bool (*validate)(std::uint64_t n) = nullptr;

  /// Largest sweep parameter the simulator comfortably holds for THIS
  /// kernel — the footprint bound the campaign parser enforces. Kernels
  /// whose memory is super-linear in n (stencil2 builds M(n²), stencil1 an
  /// n x n grid, samplesort a Θ(n^{3/2})-message exchange, matmul a
  /// Θ(n^{4/3}) replication) override the linear-kernel default downward.
  std::uint64_t max_sweep_size = std::uint64_t{1} << 22;

  /// Backends this kernel's program runs under (all registered kernels are
  /// Programs, so this defaults to the full set).
  std::vector<BackendKind> backends = all_backend_kinds();

  /// True iff the entry supports `kind`.
  [[nodiscard]] bool supports(BackendKind kind) const;

  /// The admissible size nearest to n (0 when none exists at or below
  /// max_sweep_size). Admissible sizes are scanned over powers of two —
  /// every registered size rule admits only powers of two.
  [[nodiscard]] std::uint64_t nearest_admissible(std::uint64_t n) const;

  /// "<name>: n = N is inadmissible (<size_rule>; nearest admissible
  /// n = M)" — the uniform, actionable error body used by the runner
  /// wrapper and the campaign parser.
  [[nodiscard]] std::string inadmissible_message(std::uint64_t n) const;
};

class AlgoRegistry {
 public:
  /// The process-wide registry, populated with every src/algorithms/ entry
  /// point on first use.
  [[nodiscard]] static const AlgoRegistry& instance();

  /// Lookup by name; nullptr when unknown.
  [[nodiscard]] const AlgoEntry* find(const std::string& name) const;

  /// Lookup by name; throws std::invalid_argument listing the known names.
  [[nodiscard]] const AlgoEntry& at(const std::string& name) const;

  /// Registration order (the order `nobl list` prints).
  [[nodiscard]] const std::vector<AlgoEntry>& entries() const {
    return entries_;
  }

 private:
  AlgoRegistry();
  void add(AlgoEntry entry);

  std::vector<AlgoEntry> entries_;
};

}  // namespace nobl
