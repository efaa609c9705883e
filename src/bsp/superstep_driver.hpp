// The one superstep driver behind every interpreter that runs VP bodies.
//
// Section 2's M(v) has one rule set for an i-superstep: labels run from 0 to
// label_bound(log v) - 1, supersteps do not nest, and a message must stay
// inside the sender's i-cluster (destination in range, top i index bits
// shared with the sender). SuperstepDriver<Sink> owns that rule set: the
// superstep / superstep_range / superstep_sparse entry points, the step
// checks, the per-send check and one exception message per rule. Machine,
// CostBackend (and so RecordBackend) and audit::AuditBackend derive from it
// (CRTP) and supply only their sink:
//
//   void open_step(unsigned label);       // the step passed every check
//   template <typename IdOf, typename Body>
//   void run_bodies(std::uint64_t count, const IdOf& id_of, Body& body);
//                                         // body(vp) for id_of(0..count-1)
//   void close_step();                    // every body returned
//
// Step checks run in a fixed order — label range, nesting, active set —
// and all of them before open_step, so a rejected call leaves nothing in
// any sink (no trace record, no schedule step, no drained declassification)
// and the backend stays usable. A body that throws skips close_step: the
// step stays open and every later superstep is rejected as nested.
//
// Dispatch is static: the per-VP and per-send paths inline into each
// backend, with no virtual call and no std::function.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

#include "bsp/trace.hpp"
#include "util/bits.hpp"

namespace nobl {

/// Thrown when an i-superstep sends a message outside the sender's i-cluster.
class ClusterViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

template <typename Sink>
class SuperstepDriver {
 public:
  /// Machine size v.
  [[nodiscard]] std::uint64_t v() const noexcept { return v_; }
  [[nodiscard]] unsigned log_v() const noexcept { return log_v_; }

  /// Execute one i-superstep: the body runs once per VP, in index order
  /// (the sink may run them concurrently if it reproduces that order's
  /// observable result), then the sink closes the step.
  template <typename Body>
  void superstep(unsigned label, Body&& body) {
    superstep_range(label, 0, v_, body);
  }

  /// Same as superstep(), but runs the body only for VPs in [first, last);
  /// first >= last is an empty step. Idle VPs still take part in the
  /// barrier; this is purely a fast path for supersteps whose active set is
  /// known to be a range.
  template <typename Body>
  void superstep_range(unsigned label, std::uint64_t first, std::uint64_t last,
                       Body&& body) {
    check_step(label);
    if (last > v_) {
      throw std::out_of_range("superstep_range: range end " +
                              std::to_string(last) + " exceeds v = " +
                              std::to_string(v_));
    }
    run_step(label, first >= last ? 0 : last - first,
             [first](std::uint64_t pos) { return first + pos; }, body);
  }

  /// Same as superstep(), but runs the body only for the listed VPs, which
  /// must be strictly increasing (for deterministic delivery order) and
  /// below v. Used by schedules whose active set per superstep is sparse,
  /// e.g. the stencil diamond phases where most submachines hold dummies.
  template <typename Body>
  void superstep_sparse(unsigned label, std::span<const std::uint64_t> active,
                        Body&& body) {
    check_step(label);
    for (std::size_t i = 0; i < active.size(); ++i) {
      if (active[i] >= v_ || (i > 0 && active[i] <= active[i - 1])) {
        throw std::invalid_argument(
            "superstep_sparse: active set must be strictly increasing VP ids "
            "below v");
      }
    }
    run_step(label, active.size(),
             [active](std::uint64_t pos) { return active[pos]; }, body);
  }

 protected:
  /// v must be a power of two (Section 2's assumption).
  explicit SuperstepDriver(std::uint64_t v) : log_v_(log2_exact(v)), v_(v) {}

  [[nodiscard]] bool in_superstep() const noexcept { return in_superstep_; }
  /// log v - label of the open step: a send src -> dst breaches the
  /// sender's label-cluster iff (src ^ dst) >> breach_shift() != 0.
  [[nodiscard]] unsigned breach_shift() const noexcept {
    return breach_shift_;
  }

  /// The per-send rule — destination in range and inside the sender's
  /// cluster — against explicitly passed state, so hot send handles can
  /// test register-cached copies of v and breach_shift().
  [[nodiscard]] static constexpr bool send_breaks_rules(
      std::uint64_t src, std::uint64_t dst, std::uint64_t v,
      unsigned breach_shift) noexcept {
    return dst >= v || ((src ^ dst) >> breach_shift) != 0;
  }

  /// Check a send of the open step; throws on a broken rule.
  void check_send(std::uint64_t src, std::uint64_t dst) const {
    if (send_breaks_rules(src, dst, v_, breach_shift_)) [[unlikely]] {
      fail_send(src, dst);
    }
  }

  /// Cold path of the send check: decide which rule broke. Callers have
  /// already seen send_breaks_rules(), so exactly one of the throws fires.
  [[noreturn]] [[gnu::cold]] void fail_send(std::uint64_t src,
                                            std::uint64_t dst) const {
    if (dst >= v_) {
      throw std::out_of_range("destination VP " + std::to_string(dst) +
                              " out of range (v = " + std::to_string(v_) +
                              ")");
    }
    throw ClusterViolation("message leaves the sender's " +
                           std::to_string(log_v_ - breach_shift_) +
                           "-cluster (src=" + std::to_string(src) +
                           ", dst=" + std::to_string(dst) + ")");
  }

 private:
  void check_step(unsigned label) const {
    if (label >= label_bound(log_v_)) {
      throw std::invalid_argument("superstep label " + std::to_string(label) +
                                  " out of range (labels 0.." +
                                  std::to_string(label_bound(log_v_) - 1) +
                                  ")");
    }
    if (in_superstep_) throw std::logic_error("nested superstep");
  }

  template <typename IdOf, typename Body>
  void run_step(unsigned label, std::uint64_t count, const IdOf& id_of,
                Body& body) {
    Sink& sink = static_cast<Sink&>(*this);
    in_superstep_ = true;
    breach_shift_ = log_v_ - label;
    sink.open_step(label);
    sink.run_bodies(count, id_of, body);
    sink.close_step();
    in_superstep_ = false;
  }

  unsigned log_v_;
  std::uint64_t v_;
  bool in_superstep_ = false;
  unsigned breach_shift_ = 0;
};

}  // namespace nobl
