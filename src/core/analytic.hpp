// AnalyticBackend: the dispatch behind `--backend analytic`.
//
// The paper's central claim — H_A(n, p, σ) is a static property of the
// communication pattern, not of any particular execution — makes most cost
// queries answerable without executing a single message. The registry
// routes BackendKind::kAnalytic here, and the dispatch has two tiers:
//
//   1. Closed-form short-circuit. Kernels whose predicted H is *exact*
//      (reduce, gather, shift, scan, transpose, broadcast) carry a trace
//      synthesizer (AlgoEntry::analytic) that reconstructs the full
//      per-fold degree trace symbolically in O(supersteps · log v).
//      Crucially it synthesizes the integer *trace*, not a double H value:
//      downstream H cells then flow through the identical
//      communication_complexity() arithmetic and stay bit-identical to
//      every executed backend (the `nobl check` conformance invariant).
//
//   2. Cost. Every other kernel runs under the plain cost backend. For
//      input-independent kernels (everything except samplesort) the trace
//      is memoized per (kernel, n) — the machine size v is a function of
//      the pair — so a σ- or fold-sweep, or a server answering the same
//      analytic cell again, pays one execution total. Data-dependent
//      kernels (samplesort: routing degrees follow the key distribution)
//      opt out via AlgoEntry::input_independent = false and are
//      re-executed on every query; memoized_trace() *refuses* them —
//      caching them would silently pin one input's degrees.
//
// Both tiers produce traces bit-identical to simulate/cost/record;
// tests/core/test_analytic.cpp holds the differential checks.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "bsp/trace.hpp"

namespace nobl {

struct AlgoEntry;

namespace analytic {

// Exact closed-form trace synthesizers, one per exact-H kernel. Each
// reconstructs, for an admissible n, the same superstep sequence (labels,
// per-fold degrees, message totals) the executed program emits — pinned
// bit-for-bit by tests/core/test_analytic.cpp.

/// Tree reduction: log n supersteps, round t labeled log n − t − 1 with
/// n/2^{t+1} messages and degree 1 on every crossing fold.
[[nodiscard]] Trace reduce_trace(std::uint64_t n);

/// Two-sweep prefix scan: reduce's upsweep followed by the mirrored
/// downsweep (labels ascend back up, message counts 1, 2, …, n/2).
[[nodiscard]] Trace scan_trace(std::uint64_t n);

/// Flat gather at VP 0: one 0-superstep, h(2^j) = n − n/2^j.
[[nodiscard]] Trace gather_trace(std::uint64_t n);

/// Cyclic n/2-shift: one 0-superstep crossing every fold, h(2^j) = n/2^j.
[[nodiscard]] Trace shift_trace(std::uint64_t n);

/// Binary-tree broadcast (fanout 2, the registered kernel): log n rounds,
/// round i labeled i with 2^i messages and degree 1 on crossing folds.
[[nodiscard]] Trace broadcast_trace(std::uint64_t n);

/// Recursive block transposition of an m × m matrix (n = m²): depth d
/// moves n/2^{d+1} elements; h_d(2^j) = n/(2^j · 2^{d+1}) for d < j ≤
/// log m, clamped to min(n/2^j, m/2^{d+1}) on the sub-row folds j > log m.
[[nodiscard]] Trace transpose_trace(std::uint64_t n);

}  // namespace analytic

/// The analytic backend: closed-form short-circuit + cost-trace memo.
/// Process-wide (campaign cells for the same kernel arrive one by one);
/// thread-safe for concurrent trace queries.
class AnalyticBackend {
 public:
  struct Stats {
    std::uint64_t symbolic = 0;     ///< closed-form synthesizer answers
    std::uint64_t memo_hits = 0;    ///< memo answers (no execution at all)
    std::uint64_t memo_misses = 0;  ///< cost executions that filled the memo
    std::uint64_t fallbacks = 0;    ///< data-dependent cost executions
  };

  [[nodiscard]] static AnalyticBackend& instance();

  /// Full analytic dispatch for one (kernel, n) query: symbolic when the
  /// entry has a synthesizer, memoized cost trace when it is
  /// input-independent, plain cost execution otherwise. Admissibility is
  /// the caller's (the registry wrapper's) responsibility.
  [[nodiscard]] Trace trace_for(const AlgoEntry& entry, std::uint64_t n);

  /// The memo tier alone: the first query for "<kernel>/<n>" runs the
  /// kernel under the cost backend and caches the trace; later queries
  /// return the cached copy. Throws std::invalid_argument for kernels with
  /// input_independent == false — a memoized data-dependent trace would
  /// silently pin one input's degrees.
  [[nodiscard]] Trace memoized_trace(const AlgoEntry& entry, std::uint64_t n);

  /// Drop every cached trace and zero the stats (tests).
  void clear();

  [[nodiscard]] Stats stats() const;

 private:
  AnalyticBackend() = default;

  mutable std::mutex mutex_;
  /// "<kernel>/<n>" -> the kernel's cost trace at that size.
  std::unordered_map<std::string, Trace> memo_;
  Stats stats_;
};

/// Convenience free function used by the registry's runner wrapper.
[[nodiscard]] Trace analytic_trace(const AlgoEntry& entry, std::uint64_t n);

}  // namespace nobl
