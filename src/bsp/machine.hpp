// The specification model M(v): a deterministic superstep simulator.
//
// Section 2 of the paper defines M(v) as v processing elements with the RAM
// instruction set plus sync(i) / send(m, q) / receive(). We adopt the
// host-driven equivalent formulation the paper itself uses for analysis: the
// execution is a sequence of labeled supersteps, and in an i-superstep each
// processing element may only message peers sharing its i most significant
// index bits. The simulator
//
//   * runs the superstep body once per virtual processor (in index order
//     under the sequential engine; see below for the parallel engine),
//   * routes real message payloads into the recipients' next-superstep
//     inboxes (delivery order = sender index, then send order; delivery is
//     CSR-style two-pass — count per destination, reserve once, fill — so
//     the sync never reallocates mid-merge),
//   * enforces the rules of an i-superstep through the shared driver
//     (bsp/superstep_driver.hpp; ClusterViolation on a cluster breach),
//   * records the exact degree of the superstep at every folding 2^j
//     (see bsp/trace.hpp), including "dummy" messages — the paper's device
//     for making algorithms (Θ(1), p)-wise without touching their state.
//
// Because the superstep sequence is issued by the host, every algorithm
// written against this API is *static* in the paper's sense: the number,
// order and labels of supersteps depend only on the input size.
//
// Execution engines. An ExecutionPolicy passed at construction selects how
// superstep bodies are driven:
//
//   Sequential — bodies run inline, in VP index order (the reference
//     semantics).
//   Parallel — the active VPs are partitioned into contiguous chunks over a
//     persistent worker pool. Determinism is preserved structurally, not by
//     locking: every VP stages its sends into a private per-VP outbox, each
//     worker lane counts degrees into its own DegreeAccumulator, and the
//     closing sync (single-threaded) merges outboxes in ascending sender
//     index and folds the lane accumulators with commutative sums. Inbox
//     contents and order, ClusterViolation detection, peak-inbox audit and
//     the recorded Trace are therefore bit-identical to the sequential
//     engine. If several VPs throw in one superstep, the exception of the
//     lowest VP index propagates — the one the sequential engine would have
//     hit first.
//
// Contract for parallel superstep bodies: a body may freely read host state
// and write VP-private slots (values[vp.id()], state[vp.id()], disjoint
// permutation targets, ...), but must not write host state shared with other
// active VPs of the same superstep. All algorithms in this repository
// conform.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bsp/execution.hpp"
#include "bsp/superstep_driver.hpp"
#include "bsp/trace.hpp"
#include "util/worker_pool.hpp"

namespace nobl {

/// A delivered message: sender index plus payload.
template <typename Payload>
struct Message {
  std::uint64_t src = 0;
  Payload data{};
};

template <typename Payload>
class Machine;

/// Per-VP view handed to the superstep body: identity, inbox, send primitives.
template <typename Payload>
class Vp {
 public:
  using MessageT = Message<Payload>;

  /// This virtual processor's index r, 0 <= r < v.
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  /// Machine size v.
  [[nodiscard]] std::uint64_t v() const noexcept { return machine_->v(); }
  [[nodiscard]] unsigned log_v() const noexcept { return machine_->log_v(); }

  /// Messages delivered at the sync that opened this superstep (i.e. all
  /// messages sent to this VP during the previous superstep).
  [[nodiscard]] const std::vector<MessageT>& inbox() const noexcept {
    return machine_->inbox_[id_];
  }

  /// send(m, q) of Section 2. The destination must lie in the sender's
  /// i-cluster, where i is the current superstep's label.
  void send(std::uint64_t dst, Payload data) {
    machine_->enqueue(id_, lane_, dst, std::move(data));
  }

  /// Dummy traffic: counts toward degrees (and therefore wiseness) exactly
  /// like `count` unit messages, but carries no payload and is not delivered.
  void send_dummy(std::uint64_t dst, std::uint64_t count = 1) {
    machine_->enqueue_dummy(id_, lane_, dst, count);
  }

 private:
  friend class Machine<Payload>;
  Vp(Machine<Payload>* machine, std::uint64_t id, unsigned lane)
      : machine_(machine), id_(id), lane_(lane) {}

  Machine<Payload>* machine_;
  std::uint64_t id_;
  unsigned lane_;  ///< worker lane whose DegreeAccumulator this VP charges
};

template <typename Payload>
class Machine : public SuperstepDriver<Machine<Payload>> {
  using Driver = SuperstepDriver<Machine<Payload>>;

 public:
  using MessageT = Message<Payload>;

  /// Machine models the delivering half of the Backend concept
  /// (bsp/backend.hpp): programs may read payloads back — bk.inbox(r)
  /// between supersteps — inside `if constexpr (Backend::delivers)` regions.
  static constexpr bool delivers = true;

  /// Create an M(v). v must be a power of two (Section 2's assumption).
  explicit Machine(std::uint64_t v,
                   ExecutionPolicy policy = ExecutionPolicy::sequential())
      : Driver(v), policy_(policy), trace_(this->log_v()) {
    if (policy_.mode == ExecutionPolicy::Mode::kParallel &&
        policy_.num_threads == 0) {
      throw std::invalid_argument("Machine: parallel policy needs >= 1 thread");
    }
    inbox_.resize(v);
    outbox_.resize(v);
    inbox_count_.resize(v);
    if (policy_.is_parallel()) {
      pool_ = std::make_unique<WorkerPool>(policy_.num_threads);
    }
    const unsigned lanes = pool_ ? pool_->size() : 1;
    lanes_.reserve(lanes);
    for (unsigned w = 0; w < lanes; ++w) lanes_.emplace_back(this->log_v());
  }

  [[nodiscard]] const ExecutionPolicy& policy() const noexcept {
    return policy_;
  }
  [[nodiscard]] const Trace& trace() const noexcept { return trace_; }

  /// Read access to a VP's current inbox between supersteps (used to extract
  /// results after the final sync).
  [[nodiscard]] const std::vector<MessageT>& inbox(std::uint64_t vp) const {
    return inbox_.at(vp);
  }

  /// Peak number of messages delivered to any single VP at any barrier —
  /// the communication-buffer component of a VP's memory footprint.
  /// Section 6 lists memory-constrained evaluation as future work; this
  /// audit is the hook for studying it (cf. the space-bounded schedulers of
  /// Chowdhury et al. / Simhadri et al.).
  [[nodiscard]] std::uint64_t peak_inbox_messages() const noexcept {
    return peak_inbox_;
  }

 private:
  friend class Vp<Payload>;
  friend Driver;

  /// A send staged during the running superstep, private to its sender.
  struct Staged {
    std::uint64_t dst;
    Payload data;
  };

  void open_step(unsigned label) {
    record_.label = label;
    record_.degree.assign(this->log_v() + 1, 0);
  }

  /// Drive body(vp) over the `count` active VPs, where id_of(pos) maps the
  /// position in the active set to a VP index. Sequential engine (or tiny
  /// active sets): inline, in order. Parallel engine: contiguous chunks of
  /// the active set per worker, each worker charging its own lane; the
  /// lowest-VP exception wins, matching what sequential execution would
  /// have thrown first. On a throw the other workers stop at their next VP
  /// boundary — a throwing superstep leaves the machine unusable either
  /// way, but bodies already in flight may have touched host state the
  /// sequential engine would not have reached.
  template <typename IdOf, typename Body>
  void run_bodies(std::uint64_t count, const IdOf& id_of, Body& body) {
    if (!pool_ || count < 2) {
      for (std::uint64_t pos = 0; pos < count; ++pos) {
        Vp<Payload> vp(this, id_of(pos), 0);
        body(vp);
      }
      return;
    }
    const unsigned workers = pool_->size();
    const std::uint64_t chunk = (count + workers - 1) / workers;
    // One slot per worker: the lowest active position whose body threw.
    std::vector<std::uint64_t> error_pos(
        workers, std::numeric_limits<std::uint64_t>::max());
    std::vector<std::exception_ptr> error(workers);
    std::atomic<bool> aborted{false};
    pool_->run([&](unsigned w) {
      const std::uint64_t lo = std::min<std::uint64_t>(w * chunk, count);
      const std::uint64_t hi = std::min<std::uint64_t>(lo + chunk, count);
      for (std::uint64_t pos = lo; pos < hi; ++pos) {
        if (aborted.load(std::memory_order_relaxed)) return;
        try {
          Vp<Payload> vp(this, id_of(pos), w);
          body(vp);
        } catch (...) {
          error_pos[w] = pos;
          error[w] = std::current_exception();
          aborted.store(true, std::memory_order_relaxed);
          return;
        }
      }
    });
    unsigned first = workers;
    for (unsigned w = 0; w < workers; ++w) {
      if (error[w] &&
          (first == workers || error_pos[w] < error_pos[first])) {
        first = w;
      }
    }
    if (first != workers) std::rethrow_exception(error[first]);
  }

  void close_step() {
    // Fold the worker lanes' degree counters into lane 0 (commutative sums,
    // so the result is independent of how VPs were scheduled), then turn
    // them into this superstep's degree vector.
    for (std::size_t w = 1; w < lanes_.size(); ++w) lanes_[0].absorb(lanes_[w]);
    lanes_[0].finalize_into(record_);
    trace_.append(std::move(record_));
    record_ = SuperstepRecord{};

    // Deliver: staged sends become the next superstep's inboxes, merged in
    // ascending sender index (each outbox already holds its sender's
    // messages in send order). CSR-style two-pass: count per-destination
    // sizes so every inbox grows exactly once (no geometric reallocation on
    // the delivery path), then fill in the same ascending-sender order the
    // per-message push_back used — delivery order is byte-identical.
    const std::uint64_t v = this->v();
    std::fill(inbox_count_.begin(), inbox_count_.end(), 0);
    for (std::uint64_t r = 0; r < v; ++r) {
      for (const Staged& s : outbox_[r]) ++inbox_count_[s.dst];
    }
    for (std::uint64_t r = 0; r < v; ++r) {
      inbox_[r].clear();
      inbox_[r].reserve(inbox_count_[r]);
      peak_inbox_ = std::max(peak_inbox_, inbox_count_[r]);
    }
    for (std::uint64_t r = 0; r < v; ++r) {
      for (Staged& s : outbox_[r]) {
        inbox_[s.dst].push_back(MessageT{r, std::move(s.data)});
      }
      outbox_[r].clear();
    }
  }

  void enqueue(std::uint64_t src, unsigned lane, std::uint64_t dst,
               Payload data) {
    if (!this->in_superstep()) throw std::logic_error("send outside superstep");
    this->check_send(src, dst);
    lanes_[lane].count(src, dst, 1);
    outbox_[src].push_back(Staged{dst, std::move(data)});
  }

  void enqueue_dummy(std::uint64_t src, unsigned lane, std::uint64_t dst,
                     std::uint64_t count) {
    if (!this->in_superstep()) throw std::logic_error("send outside superstep");
    if (count == 0) return;
    this->check_send(src, dst);
    lanes_[lane].count(src, dst, count);
  }

  ExecutionPolicy policy_;
  Trace trace_;
  std::uint64_t peak_inbox_ = 0;

  std::vector<std::vector<MessageT>> inbox_;
  /// outbox_[r]: messages VP r staged this superstep, in send order. Only
  /// the owning VP touches it during the body; the sync merges and clears.
  std::vector<std::vector<Staged>> outbox_;
  /// Per-destination delivery sizes, recomputed each sync (CSR first pass).
  std::vector<std::uint64_t> inbox_count_;

  std::unique_ptr<WorkerPool> pool_;  ///< null under the sequential engine
  std::vector<DegreeAccumulator> lanes_;  ///< one per worker (1 if sequential)

  SuperstepRecord record_;
};

}  // namespace nobl
