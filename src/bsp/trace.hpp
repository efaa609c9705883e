// Communication traces: the bridge between the three models of the paper.
//
// An algorithm executes once, at full granularity, on the specification model
// M(v). The trace records, for every superstep s, its label i and its degree
// h^s(n, 2^j) under folding onto every machine size 2^j (Section 2). All the
// paper's metrics are then pure functions of the trace:
//
//   S^i(n)        — number of i-supersteps,
//   F^i(n, 2^j)   — cumulative degree of i-supersteps at fold 2^j,
//   H_A(n, p, σ)  — communication complexity, Eq. (1),
//   D_A(n,p,g,ℓ)  — communication time, Eq. (2)  (see bsp/cost.hpp).
//
// Degree convention: h = max over processors of max(#messages sent, #messages
// received), counting only messages whose endpoints fold onto *different*
// processors (messages between VPs folded onto the same processor become
// local memory traffic; cf. the folding discussion before Lemma 3.1).
//
// Those metrics need only per-label sums over the supersteps, which
// FoldTables keeps up to date as each superstep is added; Trace and the
// binary-store reader (bsp/trace_store.hpp) both derive from it.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/bits.hpp"

namespace nobl {

/// Number of superstep labels on M(2^log_v): valid labels are
/// 0 .. label_bound(log_v) - 1 (M(1) still has label 0 for local steps).
[[nodiscard]] constexpr unsigned label_bound(unsigned log_v) noexcept {
  return log_v < 1 ? 1 : log_v;
}

/// Record of a single executed superstep.
struct SuperstepRecord {
  unsigned label = 0;  ///< i of the i-superstep, 0 <= i < log v
  /// degree[j] = h^s(n, 2^j) for 0 <= j <= log v. degree[0] == 0 always
  /// (a single processor exchanges no messages with itself).
  std::vector<std::uint64_t> degree;
  std::uint64_t messages = 0;  ///< total VP-to-VP messages (incl. dummies)
};

/// Per-fold degree bookkeeping for one executed superstep.
///
/// The engine owns one accumulator per worker lane: counting a message only
/// touches the lane of the VP that sent it, so superstep bodies never contend
/// on the counters. At the closing sync the lanes are folded into lane 0
/// (plain sums — commutative, hence independent of worker scheduling) and
/// finalized into the SuperstepRecord's degree vector (max over processors of
/// max(sent, received) at every fold 2^j). The sequential engine is the
/// one-lane special case, so both engines share one code path and produce
/// bit-identical records by construction.
///
/// Representation. A message src -> dst whose endpoints share exactly cb
/// most-significant index bits crosses precisely the folds 2^j with j > cb,
/// and at every such fold the sender's (receiver's) processor is the cluster
/// containing src (dst). count() therefore buckets the message once, by its
/// finest-fold endpoints and crossing level — sent_fine[src][cb] and
/// recv_fine[dst][cb] — in O(1), instead of walking all log v folds. The
/// lanes are VP-major: each VP's log v crossing-level counters form one
/// contiguous row. finalize_into() recovers h(2^j) for every fold at the
/// closing sync in one ascending pass over the touched VPs: each row is
/// turned into a prefix over crossing levels (and zeroed) as it is read, and
/// every fold keeps a running sum for its current cluster, closed into the
/// fold's peak when the pass leaves that cluster. O(t · log v) for t touched
/// VPs (plus a sort of small touched sets), independent of the number of
/// messages counted. The historical fold-per-message implementation is
/// retained as ReferenceDegreeAccumulator (bsp/degree_reference.hpp) and
/// checked against this one by tests/bsp/test_degree_differential.cpp.
class DegreeAccumulator {
 public:
  DegreeAccumulator() = default;
  explicit DegreeAccumulator(unsigned log_v);

  /// Account `count` unit messages src -> dst at every fold that separates
  /// the endpoints. Self-messages only contribute to the message total.
  /// O(1) per call (the per-fold work is deferred to finalize_into).
  /// Requires src, dst < v.
  void count(std::uint64_t src, std::uint64_t dst, std::uint64_t count) {
    messages_ += count;
    if (src == dst) return;
    if (active_.empty()) allocate_lanes();
    // The endpoints share cb most-significant bits; folds with j > cb place
    // them on different processors.
    const unsigned cb =
        log_v_ - static_cast<unsigned>(std::bit_width(src ^ dst));
    touch(src);
    touch(dst);
    sent_fine_[slot(src, cb)] += count;
    recv_fine_[slot(dst, cb)] += count;
  }

  /// Pre-size the fine lanes so the split hot path below may skip the lazy
  /// allocation check. Idempotent; called once per superstep by drivers
  /// that know their lane is used (the sequential counting backend).
  void ensure_lanes() {
    if (active_.empty()) allocate_lanes();
  }

  /// Index of VP r's crossing level cb in the fine lanes: the lanes are
  /// VP-major, r's row of log v counters is contiguous.
  [[nodiscard]] std::size_t slot(std::uint64_t r, unsigned cb) const noexcept {
    return static_cast<std::size_t>(r) * log_v_ + cb;
  }

  /// Split hot path (bsp/backend.hpp), for drivers that batch the send half
  /// per source VP and inline the receive half (require ensure_lanes(); see
  /// CostBackend::VpRef). For one message r' -> r with crossing level cb the
  /// caller flags active_data()[r] and calls note_touched(r) on the first
  /// touch of r, then bumps recv_data()[slot(r, cb)]; the send half goes
  /// through flush_sent(). The final accumulator state is bit-identical to
  /// per-message count() calls.
  [[nodiscard]] std::uint8_t* active_data() noexcept { return active_.data(); }
  [[nodiscard]] std::uint64_t* recv_data() noexcept {
    return recv_fine_.data();
  }
  void note_touched(std::uint64_t r) { touched_.push_back(r); }

  /// Flush a source VP's batched send half: for every set bit cb of
  /// `dirty`, `sent[cb]` messages with crossing level cb were sent by
  /// `src`; `messages` is the VP's total (including self-traffic and
  /// dummies). Requires ensure_lanes() when dirty != 0.
  void flush_sent(std::uint64_t src, std::uint64_t dirty,
                  const std::uint64_t* sent, std::uint64_t messages) {
    messages_ += messages;
    if (dirty == 0) return;
    touch(src);
    while (dirty != 0) {
      const auto cb = static_cast<unsigned>(std::countr_zero(dirty));
      dirty &= dirty - 1;
      sent_fine_[slot(src, cb)] += sent[cb];
    }
  }

  /// Fold `other` into this accumulator, resetting `other` for reuse.
  /// O(t · log v) for t VPs touched in `other`.
  void absorb(DegreeAccumulator& other);

  /// Write degree[j] = h(2^j) for every j >= 1 and the message total into
  /// `record`, then reset this accumulator for the next superstep.
  /// `record.degree` must be pre-sized to log_v + 1 with degree[0] == 0.
  void finalize_into(SuperstepRecord& record);

  [[nodiscard]] std::uint64_t messages() const noexcept { return messages_; }

 private:
  void touch(std::uint64_t r) {
    if (!active_[r]) {
      active_[r] = 1;
      touched_.push_back(r);
    }
  }

  /// Bound on the number of folds: VPs are 64-bit indices, so log v < 64.
  static constexpr unsigned kMaxFolds = 64;

  /// Cold path of count(): size the fine lanes on the first real message, so
  /// lanes that only ever see self-traffic (or none) stay allocation-free —
  /// the parallel engine constructs one accumulator per worker.
  void allocate_lanes();

  unsigned log_v_ = 0;
  std::uint64_t messages_ = 0;
  // sent_fine_[slot(r, cb)] / recv_fine_[slot(r, cb)]: messages VP r
  // sent/received with crossing level cb (0 <= cb < log_v), v · log v words
  // each. active_ flags and touched_ list the VPs with nonzero rows so
  // finalize/reset cost scales with the active set, not with v. All sized
  // lazily by allocate_lanes().
  std::vector<std::uint64_t> sent_fine_;
  std::vector<std::uint64_t> recv_fine_;
  std::vector<std::uint8_t> active_;
  std::vector<std::uint64_t> touched_;
};

/// The per-label fold sums behind every cost query: S^i, F^i(n, 2^j) and the
/// per-label peak degree, O(log² v) words however many supersteps were
/// added. Every metric of the paper (H, D, α, γ, certification) is a
/// function of these sums alone, so evaluation reads a FoldTables and never
/// the supersteps themselves.
///
/// The tables are built one record at a time by add() — Trace::append and
/// TraceReader's indexing pass are its only callers — and hold no lazy or
/// `mutable` state, so a shared const FoldTables (or Trace, or TraceReader)
/// is safe to query from several threads at once. S, F and peak_degree are
/// O(1) lookups; the cumulative sums partial_F and total_S add up at most
/// log v per-label entries per query.
class FoldTables {
 public:
  FoldTables() : FoldTables(0) {}
  explicit FoldTables(unsigned log_v);

  [[nodiscard]] unsigned log_v() const noexcept { return log_v_; }
  [[nodiscard]] std::uint64_t v() const noexcept {
    return std::uint64_t{1} << log_v_;
  }
  /// Number of representable superstep labels (nobl::label_bound).
  [[nodiscard]] unsigned label_bound() const noexcept {
    return nobl::label_bound(log_v_);
  }
  [[nodiscard]] std::size_t supersteps() const noexcept { return supersteps_; }

  /// Total messages routed (including dummy messages), across all supersteps.
  [[nodiscard]] std::uint64_t total_messages() const noexcept {
    return total_messages_;
  }

  /// Largest superstep label present.
  [[nodiscard]] unsigned max_label() const noexcept { return max_label_; }

  /// Fold one superstep into the sums. Throws std::invalid_argument unless
  /// the degree vector has log_v + 1 folds, degree[0] == 0, and the label
  /// is below label_bound().
  void add(const SuperstepRecord& record);

  /// S^i(n): the number of i-supersteps.
  [[nodiscard]] std::uint64_t S(unsigned label) const;

  /// F^i(n, 2^log_p): cumulative degree of i-supersteps at fold 2^log_p.
  [[nodiscard]] std::uint64_t F(unsigned label, unsigned log_p) const;

  /// Σ_{i < log_p} F^i(n, 2^log_p) — the quantity in Lemma 3.1 / Def. 3.2.
  [[nodiscard]] std::uint64_t total_F(unsigned log_p) const;

  /// Σ_{i < label_bound} F^i(n, 2^log_p): cumulative degree at fold 2^log_p
  /// restricted to supersteps with label below label_bound (the mixed-index
  /// sums appearing on the right-hand sides of Lemma 3.1 and Def. 3.2).
  [[nodiscard]] std::uint64_t partial_F(unsigned label_bound,
                                        unsigned log_p) const;

  /// Σ_{i < log_p} S^i(n) — the superstep count relevant at fold 2^log_p
  /// (supersteps with label >= log p become local computation).
  [[nodiscard]] std::uint64_t total_S(unsigned log_p) const;

  /// max over i-supersteps of h(2^log_p): the largest single-superstep degree
  /// of label `label` at the given fold (0 if the label never occurs).
  [[nodiscard]] std::uint64_t peak_degree(unsigned label,
                                          unsigned log_p) const;

  /// Heap bytes held by the tables (a Trace's supersteps not included): the
  /// O(log² v) residency a TraceReader keeps besides its mapping.
  [[nodiscard]] std::size_t table_bytes() const noexcept;

 private:
  /// Throws std::out_of_range for a fold larger than the machine.
  void check_log_p(unsigned log_p) const;
  [[nodiscard]] std::size_t at(unsigned label, unsigned log_p) const noexcept {
    return label * (static_cast<std::size_t>(log_v_) + 1) + log_p;
  }

  unsigned log_v_ = 0;
  std::size_t supersteps_ = 0;
  std::uint64_t total_messages_ = 0;
  unsigned max_label_ = 0;
  // Flattened with stride log_v + 1 over folds:
  //   label_F_[at(i, j)]    = Σ over i-supersteps of degree[j]
  //   label_peak_[at(i, j)] = max over i-supersteps of degree[j]
  //   label_S_[i]           = S^i
  std::vector<std::uint64_t> label_F_;
  std::vector<std::uint64_t> label_peak_;
  std::vector<std::uint64_t> label_S_;
};

/// The recorded superstep sequence, with its FoldTables kept current on
/// every append. steps() serves the readers that need the supersteps
/// themselves (export, the degree-structure lint, the ascend-descend
/// transform); every cost query goes through the FoldTables base.
class Trace : public FoldTables {
 public:
  Trace() = default;
  explicit Trace(unsigned log_v) : FoldTables(log_v) {}

  [[nodiscard]] const std::vector<SuperstepRecord>& steps() const noexcept {
    return steps_;
  }

  /// Validate `record` (FoldTables::add), fold it into the tables and keep
  /// it.
  void append(SuperstepRecord record);

  /// Concatenate another trace after this one (used to compose phases of an
  /// algorithm that is driven in separate machine runs).
  void extend(const Trace& other);

 private:
  std::vector<SuperstepRecord> steps_;
};

}  // namespace nobl
