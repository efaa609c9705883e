// Pluggable execution backends for the Program API: the seam between the
// paper's specification model and everything that interprets it.
//
// An algorithm in this repository is a *program*: a callable, templated on a
// Backend type, that emits a sequence of labeled supersteps whose bodies are
// written against the abstract VpContext concept —
//
//   vp.id(), vp.v(), vp.log_v()        identity
//   vp.send(dst, payload)              a real message (delivered only by
//                                      delivering backends)
//   vp.send_dummy(dst, count)          degree-only traffic (§ wiseness)
//
// plus the backend-level superstep drivers
//
//   bk.superstep(label, body)
//   bk.superstep_range(label, first, last, body)
//   bk.superstep_sparse(label, active, body)
//
// and the compile-time predicate `Backend::delivers`. A program must compute
// every destination and message count from host-mirrored state (never from
// delivered payloads), so that the same body sequence produces the same
// communication pattern under every backend; payload *values* may flow
// through messages and be read back — via bk.inbox(r) between supersteps —
// only inside `if constexpr (Backend::delivers)` regions.
//
// Three backends interpret a program:
//
//   SimulateBackend<Payload> — the full M(v) simulator (bsp/machine.hpp),
//     sequential or parallel engine, payload routing, inboxes, peak-inbox
//     audit. This *is* Machine<Payload>: the historical entry points keep
//     working, and the golden/equivalence suites pin bit-identity.
//
//   CostBackend — drives the same bodies sequentially but intercepts
//     send/send_dummy into DegreeAccumulator bucketing only: no payload
//     storage, no delivery, no inboxes. Pure cost queries (`nobl certify`,
//     wiseness/optimality scans, threshold-gated campaigns) become
//     message-storage-free while producing bit-identical traces.
//
//   RecordBackend — a CostBackend that additionally captures the pattern as
//     a replayable Schedule: per superstep, the (src, dst, count, dummy)
//     events in execution order. Schedules feed conformance oracles and
//     re-derive the trace without re-running the program (replay_trace).
//
// Validation parity: every backend here (and audit::AuditBackend) derives
// from the one superstep driver, bsp/superstep_driver.hpp, which owns the
// superstep entry points and every rule — label range, no nesting, the
// active set, destination range and i-cluster containment
// (ClusterViolation) — with one exception type and message per rule. A
// program that certifies under CostBackend therefore also runs under
// SimulateBackend, and vice versa, by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bsp/execution.hpp"
#include "bsp/machine.hpp"
#include "bsp/superstep_driver.hpp"
#include "bsp/trace.hpp"

namespace nobl {

/// Backend selector carried by CLIs, campaign specs and registry runners.
///
/// kAnalytic (core/analytic.hpp) answers from a closed form for kernels
/// whose predicted H is exact, and from a kCost run otherwise — memoized
/// per (kernel, n) unless the kernel is data-dependent (samplesort). It is
/// dispatched in the registry layer; run_for_trace itself rejects it
/// because a bare program carries no closed form.
enum class BackendKind : std::uint8_t { kSimulate, kCost, kRecord, kAnalytic };

/// Number of BackendKind values; they are dense from 0, so a kind's
/// underlying value indexes per-backend counter arrays.
inline constexpr std::size_t kBackendCount =
    static_cast<std::size_t>(BackendKind::kAnalytic) + 1;

/// "simulate" | "cost" | "record" | "analytic".
[[nodiscard]] std::string to_string(BackendKind kind);

/// Inverse of to_string; throws std::invalid_argument listing the valid
/// names on a miss.
[[nodiscard]] BackendKind backend_from_string(const std::string& name);

/// Every backend, in declaration order (registry entries default to this).
[[nodiscard]] const std::vector<BackendKind>& all_backend_kinds();

class TraceWriter;

/// How to execute one specification-model run: which backend interprets the
/// program, and (for the simulating backend) which engine drives VP bodies.
/// Implicitly constructible from an ExecutionPolicy so historical
/// `runner(n, policy)` call sites keep reading naturally.
struct RunOptions {
  ExecutionPolicy policy{};
  BackendKind backend = BackendKind::kSimulate;

  RunOptions() = default;
  // NOLINTNEXTLINE(runtime/explicit): deliberate converting constructor
  RunOptions(const ExecutionPolicy& p) : policy(p) {}
  // NOLINTNEXTLINE(runtime/explicit): deliberate converting constructor
  RunOptions(BackendKind b) : backend(b) {}
  RunOptions(const ExecutionPolicy& p, BackendKind b)
      : policy(p), backend(b) {}
};

/// The simulating backend is the M(v) machine itself: it already models the
/// whole Backend concept (superstep drivers, Vp handles, trace, inboxes,
/// Machine::delivers). The alias is the API name programs are written
/// against; Machine remains the engine-facing name.
template <typename Payload>
using SimulateBackend = Machine<Payload>;

/// One recorded communication event: `count` unit messages src -> dst
/// (count > 1 only for dummy traffic; real sends record one event each).
/// This is a *row view* over ScheduleStep's columns — events are stored
/// columnar, never as a vector of these.
struct ScheduleSend {
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  std::uint64_t count = 1;
  bool dummy = false;

  friend bool operator==(const ScheduleSend&, const ScheduleSend&) = default;
};

/// One recorded superstep as a columnar block: label plus parallel src /
/// dst / count columns and a dummy bitmap (bit i of word i/64), in
/// execution order (ascending sender under the sequential driver,
/// per-sender send order). The same block layout the binary trace store
/// uses: O(E) scans (replay, schedule lint) walk contiguous columns, and
/// equality compares whole words.
class ScheduleStep {
 public:
  unsigned label = 0;

  ScheduleStep() = default;
  explicit ScheduleStep(unsigned step_label) : label(step_label) {}
  /// Test/fixture convenience: build a block from rows.
  ScheduleStep(unsigned step_label, std::initializer_list<ScheduleSend> rows)
      : label(step_label) {
    for (const ScheduleSend& row : rows) {
      push(row.src, row.dst, row.count, row.dummy);
    }
  }

  /// Append one event.
  void push(std::uint64_t src, std::uint64_t dst, std::uint64_t count,
            bool dummy) {
    const std::size_t i = src_.size();
    src_.push_back(src);
    dst_.push_back(dst);
    count_.push_back(count);
    if ((i & 63) == 0) dummy_words_.push_back(0);
    if (dummy) dummy_words_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }

  [[nodiscard]] std::size_t size() const noexcept { return src_.size(); }
  [[nodiscard]] bool empty() const noexcept { return src_.empty(); }

  /// Materialize row i as a ScheduleSend view.
  [[nodiscard]] ScheduleSend operator[](std::size_t i) const {
    return {src_[i], dst_[i], count_[i], dummy(i)};
  }
  [[nodiscard]] bool dummy(std::size_t i) const {
    return ((dummy_words_[i >> 6] >> (i & 63)) & 1) != 0;
  }

  // Raw columns, for O(E) scans.
  [[nodiscard]] const std::vector<std::uint64_t>& src() const noexcept {
    return src_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& dst() const noexcept {
    return dst_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& count() const noexcept {
    return count_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& dummy_words() const noexcept {
    return dummy_words_;
  }

  friend bool operator==(const ScheduleStep&, const ScheduleStep&) = default;

 private:
  std::vector<std::uint64_t> src_;
  std::vector<std::uint64_t> dst_;
  std::vector<std::uint64_t> count_;
  std::vector<std::uint64_t> dummy_words_;
};

/// A replayable communication pattern: the Program IR made first-class.
/// Recorded by RecordBackend; consumed by conformance oracles and by
/// replay_trace, which re-derives the full per-fold degree trace from the
/// events alone — no program, no payloads, no machine.
struct Schedule {
  unsigned log_v = 0;
  std::vector<ScheduleStep> steps;

  [[nodiscard]] std::uint64_t v() const noexcept {
    return std::uint64_t{1} << log_v;
  }
  /// Total recorded events (not messages: a dummy burst is one event).
  [[nodiscard]] std::size_t total_sends() const noexcept;
  /// Re-derive the trace by feeding every event through a fresh
  /// DegreeAccumulator per superstep — the replay half of record/replay.
  [[nodiscard]] Trace replay_trace() const;
};

/// The payload-free counting backend. Bodies run inline, in VP index order
/// (the reference semantics); send/send_dummy collapse to O(1) degree
/// bucketing. trace() is bit-identical to the simulator's by construction:
/// both feed the same (src, dst, count) stream into the same accumulator.
class CostBackend : public SuperstepDriver<CostBackend> {
  using Driver = SuperstepDriver<CostBackend>;

 public:
  static constexpr bool delivers = false;

  /// The VpContext handle for counting backends. The hot per-send state
  /// (machine size, cluster shift, accumulator, capture sink) is cached in
  /// the handle at construction, and the send half of the degree stream is
  /// batched per source VP — every send of one VP shares its src, so the
  /// sent-side buckets and the message total accumulate on the stack and
  /// flush into the DegreeAccumulator once per VP (commit(), called by
  /// run_bodies). The resulting accumulator state is bit-identical
  /// to per-message counting; only the constant factor changes.
  template <bool kCapture>
  class VpRefT {
   public:
    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
    [[nodiscard]] std::uint64_t v() const noexcept { return v_; }
    [[nodiscard]] unsigned log_v() const noexcept { return log_v_; }

    /// Count a real message. The payload argument is accepted for call-site
    /// compatibility with the simulator and discarded unread — cost runs
    /// never construct message storage.
    template <typename Payload>
    void send(std::uint64_t dst, Payload&&) {
      if (send_breaks_rules(id_, dst, v_, breach_shift_)) [[unlikely]] {
        backend_->fail_send(id_, dst);
      }
      ++messages_;
      if (dst != id_) bucket(dst, 1);
      if constexpr (kCapture) {
        capture_->steps.back().push(id_, dst, 1, false);
      }
    }
    void send_dummy(std::uint64_t dst, std::uint64_t count = 1) {
      if (count == 0) return;
      if (send_breaks_rules(id_, dst, v_, breach_shift_)) [[unlikely]] {
        backend_->fail_send(id_, dst);
      }
      messages_ += count;
      if (dst != id_) bucket(dst, count);
      if constexpr (kCapture) {
        capture_->steps.back().push(id_, dst, count, true);
      }
    }

   private:
    friend class CostBackend;
    VpRefT(CostBackend* backend, std::uint64_t id)
        : backend_(backend),
          acc_(&backend->acc_),
          capture_(backend->capture_),
          active_data_(backend->acc_.active_data()),
          recv_data_(backend->acc_.recv_data()),
          id_(id),
          v_(backend->v()),
          log_v_(backend->log_v()),
          breach_shift_(backend->breach_shift()) {}

    void bucket(std::uint64_t dst, std::uint64_t count) {
      // The endpoints share cb most-significant bits (cf.
      // DegreeAccumulator::count); receive side goes straight to dst's
      // VP-major row in the accumulator's lanes (raw pointers cached at
      // construction — the lanes are pre-sized by open_step — and indexed
      // by DegreeAccumulator::slot), send side into the local per-src
      // buckets.
      const auto cb = static_cast<unsigned>(
          log_v_ - static_cast<unsigned>(std::bit_width(id_ ^ dst)));
      if (((dirty_ >> cb) & 1) == 0) {
        sent_[cb] = 0;
        dirty_ |= std::uint64_t{1} << cb;
      }
      sent_[cb] += count;
      if (active_data_[dst] == 0) [[unlikely]] {
        active_data_[dst] = 1;
        acc_->note_touched(dst);
      }
      recv_data_[acc_->slot(dst, cb)] += count;
    }

    /// Flush the batched send half; run_bodies calls this exactly once,
    /// after the body returns.
    void commit() { acc_->flush_sent(id_, dirty_, sent_, messages_); }

    CostBackend* backend_;
    DegreeAccumulator* acc_;
    Schedule* capture_;
    std::uint8_t* active_data_;
    std::uint64_t* recv_data_;
    std::uint64_t id_;
    std::uint64_t v_;
    unsigned log_v_;
    unsigned breach_shift_;
    std::uint64_t messages_ = 0;
    std::uint64_t dirty_ = 0;  ///< bit cb set iff sent_[cb] is live
    std::uint64_t sent_[64];   ///< per-crossing-level send counts (lazy init)
  };

  /// Create a counting backend for M(v). v must be a power of two.
  explicit CostBackend(std::uint64_t v)
      : Driver(v), acc_(log_v()), trace_(log_v()) {}

  [[nodiscard]] const Trace& trace() const noexcept { return trace_; }

  /// Stream mode: route every finalized superstep record into `writer`
  /// (bsp/trace_store.hpp) instead of appending to the in-memory trace.
  /// While streaming, trace() stays empty and the backend's live trace
  /// state is O(log v) — one record plus the writer's previous-column
  /// delta state — so arbitrarily long programs record in constant memory.
  /// Pass nullptr to return to in-memory accumulation. The writer must
  /// outlive every superstep driven after this call; its log_v must equal
  /// the backend's.
  void stream_to(TraceWriter* writer);

 protected:
  /// Derived backends route a non-null `capture` to record every event.
  void set_capture(Schedule* capture) noexcept { capture_ = capture; }

 private:
  friend Driver;

  void open_step(unsigned label) {
    acc_.ensure_lanes();
    record_.label = label;
    record_.degree.assign(log_v() + 1, 0);
    if (capture_ != nullptr) capture_->steps.emplace_back(label);
  }

  template <typename IdOf, typename Body>
  void run_bodies(std::uint64_t count, const IdOf& id_of, Body& body) {
    if (capture_ == nullptr) {
      run_handles<false>(count, id_of, body);
    } else {
      run_handles<true>(count, id_of, body);
    }
  }

  template <bool kCapture, typename IdOf, typename Body>
  void run_handles(std::uint64_t count, const IdOf& id_of, Body& body) {
    for (std::uint64_t pos = 0; pos < count; ++pos) {
      VpRefT<kCapture> vp(this, id_of(pos));
      body(vp);
      vp.commit();
    }
  }

  void close_step() {
    acc_.finalize_into(record_);
    emit_record();
  }

  /// Out of line (backend.cpp): append record_ to the streaming writer when
  /// one is attached, to the in-memory trace otherwise.
  void emit_record();

  DegreeAccumulator acc_;
  Trace trace_;
  Schedule* capture_ = nullptr;
  TraceWriter* stream_ = nullptr;
  SuperstepRecord record_;
};

/// A CostBackend that additionally captures the program's communication
/// pattern as a Schedule. schedule().replay_trace() must reproduce trace()
/// bit-for-bit (pinned by tests/bsp/test_backend.cpp).
class RecordBackend : public CostBackend {
 public:
  explicit RecordBackend(std::uint64_t v) : CostBackend(v) {
    schedule_.log_v = log_v();
    set_capture(&schedule_);
  }

  [[nodiscard]] const Schedule& schedule() const noexcept { return schedule_; }

 private:
  Schedule schedule_;
};

/// Run `program` (a callable taking `auto& backend`) on a machine of v VPs
/// under the selected backend and return the recorded trace. The record
/// backend returns the trace re-derived from its Schedule, so every
/// `--backend record` run exercises the record -> replay path end to end.
template <typename Payload, typename ProgramFn>
[[nodiscard]] Trace run_for_trace(std::uint64_t v, const RunOptions& options,
                                  ProgramFn&& program) {
  switch (options.backend) {
    case BackendKind::kCost: {
      CostBackend backend(v);
      program(backend);
      return backend.trace();
    }
    case BackendKind::kRecord: {
      RecordBackend backend(v);
      program(backend);
      return backend.schedule().replay_trace();
    }
    case BackendKind::kAnalytic:
      // Only the registry layer can answer analytically: it knows the
      // kernel's closed form and input-independence flag. A bare program
      // reaching this point is a plumbing error, not a user error.
      throw std::invalid_argument(
          "run_for_trace: the analytic backend is dispatched by the "
          "algorithm registry (core/analytic.hpp), not by run_for_trace");
    case BackendKind::kSimulate:
    default: {
      SimulateBackend<Payload> backend(v, options.policy);
      program(backend);
      return backend.trace();
    }
  }
}

}  // namespace nobl
