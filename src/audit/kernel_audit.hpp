// Registry-wide obliviousness audit: one verdict per kernel.
//
// For every AlgoEntry the auditor performs two independent static passes:
//
//   1. Taint classification — the kernel's program template is instantiated
//      with Tainted payloads (audit/taint.hpp) on its registry workload and
//      driven once by AuditBackend (audit/backend.hpp), which never
//      executes a message: the result is a per-superstep map of where input
//      values influence the communication structure (tainted destinations,
//      tainted dummy counts, declassifications). The verdict is
//      cross-checked against the registry's `input_independent` annotation:
//      samplesort must flag, the other kernels must come back clean — a
//      disagreement in either direction fails `nobl audit` and the pinned
//      registry test.
//
//   2. Trace lint — the kernel's trace under BackendKind::kCost at the same
//      size is checked against the structural invariants of the D-BSP
//      specification model and the registry's predict::/lb:: formulas
//      (exact for exact_h kernels, an envelope otherwise) —
//      audit/schedule_lint.hpp: per-step local-fold degree structure, and
//      H(n, p, σ) against the closed forms. One cost run feeds both; no
//      schedule is recorded. The event rules of lint_schedule (label and
//      endpoint range, cluster containment, dummy discipline) cannot fire
//      on a driver-executed program: the superstep driver already throws
//      on the first three, send_dummy drops count 0 and send always counts
//      one message. They stay for externally built schedules.
//
// Default audit size: the kernel's first smoke size, the same size the CI
// smoke campaign exercises.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "audit/backend.hpp"
#include "audit/schedule_lint.hpp"
#include "core/registry.hpp"

namespace nobl::audit {

/// The audit outcome for one kernel at one size.
struct KernelVerdict {
  std::string name;
  std::uint64_t n = 0;  ///< audited size (registry size semantics)
  AuditReport report;   ///< the taint classification, per superstep
  /// True iff the taint pass saw input influence on the communication
  /// structure (== !report.oblivious()).
  bool data_dependent = false;
  /// The registry's static annotation for cross-checking.
  bool registry_input_independent = true;
  /// True iff verdict and annotation agree: data-dependent kernels must be
  /// annotated input_independent = false and vice versa.
  bool matches_registry = false;
  /// Structural and formula lint of the cost trace (empty == clean).
  ScheduleLintReport lint;

  /// The kernel passes the audit: verdict matches the annotation and the
  /// trace lints clean.
  [[nodiscard]] bool passed() const noexcept {
    return matches_registry && lint.clean();
  }
};

/// Audit one registry kernel. n = 0 selects the entry's first smoke size.
/// Throws std::invalid_argument for inadmissible sizes (same gate as the
/// registry runner).
[[nodiscard]] KernelVerdict audit_kernel(const AlgoEntry& entry,
                                         std::uint64_t n = 0);

/// Audit every registered kernel at its default size, in registry order.
[[nodiscard]] std::vector<KernelVerdict> audit_registry();

}  // namespace nobl::audit
