// Static linting of recorded Schedules against the structural invariants the
// paper's cost theory relies on, plus reconciliation of measured
// communication against the registry's closed forms.
//
// A Schedule (bsp/backend.hpp) is the Program IR made first-class: the
// per-superstep (src, dst, count, dummy) event blocks. Everything the
// D-BSP folding argument assumes about a well-formed pattern is checkable
// from those events alone:
//
//   * ranges        — src, dst < v; label < label bound;
//   * containment   — every message stays inside the sender's label-cluster:
//                     (src ^ dst) >> (log v - label) == 0 (Section 2);
//   * dummy discipline — real sends record unit events, dummy bursts carry
//                     count >= 1, no zero-count events (wiseness padding is
//                     degree-only traffic, § wiseness);
//   * degree structure — at folds 2^j with j <= label every message is
//                     processor-local, so h(2^j) = 0; and across adjacent
//                     folds h(2^j) <= 2 h(2^{j+1}), because a fold-2^j
//                     processor is the union of two fold-2^{j+1} processors
//                     (max(sent, recv) at most doubles under merging);
//   * formula reconciliation — H(n, p, σ) computed from the trace's fold
//                     sums must equal the registry's predict:: closed form for
//                     exact-H kernels, and stay inside a fixed envelope
//                     of [lower bound, predicted] for the O(·) kernels, so
//                     silent formula drift becomes a CI failure.
//
// The degree checks read a Trace's supersteps, so they apply to any trace:
// the cost run the audit lints (audit/kernel_audit.hpp), a replayed
// schedule, or a trace deserialized from the binary store (where
// corruption, unlike execution, can actually produce impossible degree
// vectors). The event checks need a Schedule; the audit does not record
// one, because no driver-executed program can break them (the superstep
// driver throws first), so they serve schedules built outside the drivers.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bsp/backend.hpp"
#include "bsp/trace.hpp"
#include "core/experiment.hpp"

namespace nobl::audit {

/// One violated invariant: a stable rule identifier plus a human-readable
/// locus ("step 3: ...").
struct LintIssue {
  std::string rule;
  std::string detail;
};

struct ScheduleLintReport {
  std::vector<LintIssue> issues;
  [[nodiscard]] bool clean() const noexcept { return issues.empty(); }
};

/// Event-level checks (ranges, containment, dummy discipline) plus the
/// degree-structure checks on the schedule's replayed trace. The replay
/// runs only when the event checks come back clean: replay_trace() throws
/// on the out-of-range labels they report.
[[nodiscard]] ScheduleLintReport lint_schedule(const Schedule& schedule);

/// Degree-structure checks alone: per-step, degree[j] == 0 for j <= label
/// and degree[j] <= 2 degree[j+1]. Valid on any trace, including ones read
/// back from the binary store.
[[nodiscard]] ScheduleLintReport lint_degree_structure(const Trace& trace);

/// Same checks on raw records that have NOT passed through Trace::append's
/// shape validation — the form in which a corrupted binary store surfaces.
/// This overload is the only one that can report "degree-shape".
[[nodiscard]] ScheduleLintReport lint_degree_structure(
    std::span<const SuperstepRecord> steps, unsigned log_v);

/// Reconcile measured H(n, p, σ) over every fold and the standard σ grid
/// against the registry's formulas. exact_h kernels must match predicted to
/// rounding; envelope kernels must satisfy
///   measured <= kEnvelopeFactor · predicted  and
///   lower_bound <= kEnvelopeFactor · measured.
[[nodiscard]] ScheduleLintReport lint_against_formulas(
    const FoldTables& trace, std::uint64_t n, const CostFormula& predicted,
    const CostFormula& lower_bound, bool exact_h, const std::string& name);

/// Constant-factor slack allowed between an O(·)/Ω(·) closed form and the
/// measured value before the lint calls drift. Calibrated over the audit
/// sizes of every registered kernel (tests/audit/test_kernel_verdicts.cpp
/// repins it): the worst observed ratio is ~9.5x (sort's measured H vs.
/// its predicted envelope at n = 64, p = 4, σ = 0; stencil2 sits at ~8.6x).
inline constexpr double kEnvelopeFactor = 16.0;

/// Merge: append `extra`'s issues onto `base`.
void merge_into(ScheduleLintReport& base, const ScheduleLintReport& extra);

}  // namespace nobl::audit
