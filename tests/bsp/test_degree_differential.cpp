// Differential test: the O(1)-per-message DegreeAccumulator must produce
// SuperstepRecords identical to the retained fold-per-message
// ReferenceDegreeAccumulator on randomized message patterns — mixed superstep
// labels, dummy traffic (count > 1), self-messages, sparse active sets, and
// 1..8 worker lanes folded with absorb(). Large machines (v = 2^10, 2^16)
// cover both orders of finalize_into's ascending pass: a few scattered VPs
// (the sorted touched set) and supersteps that touch every VP (the walk
// over the active flags).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "bsp/backend.hpp"
#include "bsp/degree_reference.hpp"
#include "bsp/machine.hpp"
#include "bsp/trace.hpp"
#include "util/rng.hpp"

namespace nobl {
namespace {

constexpr unsigned kLogVs[] = {0, 1, 2, 3, 6};
constexpr unsigned kRounds = 6;

SuperstepRecord blank_record(unsigned log_v) {
  SuperstepRecord r;
  r.degree.assign(log_v + 1u, 0);
  return r;
}

void expect_records_equal(const SuperstepRecord& fast,
                          const SuperstepRecord& ref, unsigned log_v,
                          unsigned lanes, unsigned round) {
  EXPECT_EQ(fast.degree, ref.degree)
      << "log_v=" << log_v << " lanes=" << lanes << " round=" << round;
  EXPECT_EQ(fast.messages, ref.messages)
      << "log_v=" << log_v << " lanes=" << lanes << " round=" << round;
}

TEST(DegreeDifferential, RandomPatternsAcrossLanesMatchReference) {
  for (const unsigned log_v : kLogVs) {
    const std::uint64_t v = std::uint64_t{1} << log_v;
    for (unsigned lanes = 1; lanes <= 8; ++lanes) {
      std::vector<DegreeAccumulator> fast;
      std::vector<ReferenceDegreeAccumulator> ref;
      for (unsigned w = 0; w < lanes; ++w) {
        fast.emplace_back(log_v);
        ref.emplace_back(log_v);
      }
      Xoshiro256 rng(1000 * log_v + lanes);
      // Reuse the same accumulators across rounds to also verify that
      // finalize_into resets both implementations identically.
      for (unsigned round = 0; round < kRounds; ++round) {
        // Sparse active sets: some rounds restrict senders to a stride.
        const std::uint64_t stride = (round % 3 == 0) ? 1 + rng.below(4) : 1;
        const std::uint64_t messages = rng.below(200);
        for (std::uint64_t k = 0; k < messages; ++k) {
          std::uint64_t src = rng.below(v);
          src -= src % stride;
          // Self-messages roughly 1 in 8; dummies carry count up to 5.
          const std::uint64_t dst = rng.below(8) == 0 ? src : rng.below(v);
          const std::uint64_t count = rng.below(4) == 0 ? 1 + rng.below(5) : 1;
          const unsigned lane = static_cast<unsigned>(rng.below(lanes));
          fast[lane].count(src, dst, count);
          ref[lane].count(src, dst, count);
        }
        for (unsigned w = 1; w < lanes; ++w) {
          fast[0].absorb(fast[w]);
          ref[0].absorb(ref[w]);
        }
        SuperstepRecord a = blank_record(log_v);
        SuperstepRecord b = blank_record(log_v);
        fast[0].finalize_into(a);
        ref[0].finalize_into(b);
        expect_records_equal(a, b, log_v, lanes, round);
      }
    }
  }
}

TEST(DegreeDifferential, RejectsFoldCountBeyondVpIndexWidth) {
  // finalize_into keeps one running sum per fold on the stack.
  EXPECT_THROW(DegreeAccumulator(64), std::invalid_argument);
  EXPECT_NO_THROW(DegreeAccumulator(63));
}

/// Large-machine round shapes for the accumulator-level tests below.
enum class Shape { kScattered, kMedium, kEveryVp, kTranspose };
constexpr Shape kShapes[] = {Shape::kScattered, Shape::kEveryVp,
                             Shape::kMedium, Shape::kTranspose,
                             Shape::kScattered};

/// Feed one round of `shape` on M(2^log_v) to `sink(src, dst, count)`.
template <typename Sink>
void large_round(Shape shape, unsigned log_v, Xoshiro256& rng, Sink&& sink) {
  const std::uint64_t v = std::uint64_t{1} << log_v;
  const auto count = [&rng] {
    return rng.below(4) == 0 ? 1 + rng.below(5) : std::uint64_t{1};
  };
  switch (shape) {
    case Shape::kScattered:
    case Shape::kMedium: {
      // A few (or a few thousand) messages between random VPs, so the
      // touched set is small against v, and some self-messages.
      const std::uint64_t messages =
          shape == Shape::kScattered ? 1 + rng.below(6) : 1500;
      for (std::uint64_t k = 0; k < messages; ++k) {
        const std::uint64_t src = rng.below(v);
        sink(src, rng.below(8) == 0 ? src : rng.below(v), count());
      }
      break;
    }
    case Shape::kEveryVp:
      // Every VP sends and receives: a random neighbour plus a far VP.
      for (std::uint64_t r = 0; r < v; ++r) {
        sink(r, r ^ 1, count());
        sink(r, rng.below(v), count());
      }
      break;
    case Shape::kTranspose: {
      // One message per VP, swapping the high and low halves of its index.
      const unsigned half = log_v / 2;
      for (std::uint64_t r = 0; r < v; ++r) {
        const std::uint64_t lo = r & ((std::uint64_t{1} << half) - 1);
        sink(r, (lo << (log_v - half)) | (r >> half), 1);
      }
      break;
    }
  }
}

TEST(DegreeDifferential, LargeMachinesScatteredAndEveryVp) {
  for (const unsigned log_v : {10u, 16u}) {
    DegreeAccumulator fast(log_v);
    ReferenceDegreeAccumulator ref(log_v);
    Xoshiro256 rng(31 + log_v);
    unsigned round = 0;
    for (const Shape shape : kShapes) {
      large_round(shape, log_v, rng,
                  [&](std::uint64_t src, std::uint64_t dst, std::uint64_t c) {
                    fast.count(src, dst, c);
                    ref.count(src, dst, c);
                  });
      SuperstepRecord a = blank_record(log_v);
      SuperstepRecord b = blank_record(log_v);
      fast.finalize_into(a);
      ref.finalize_into(b);
      expect_records_equal(a, b, log_v, 1, round++);
    }
  }
}

TEST(DegreeDifferential, LargeMachinesAbsorbAcrossReusedLanes) {
  for (const unsigned log_v : {10u, 16u}) {
    for (const unsigned lanes : {2u, 4u}) {
      std::vector<DegreeAccumulator> fast;
      for (unsigned w = 0; w < lanes; ++w) fast.emplace_back(log_v);
      ReferenceDegreeAccumulator ref(log_v);
      Xoshiro256 rng(100 * log_v + lanes);
      unsigned round = 0;
      for (const Shape shape : kShapes) {
        // Contiguous VP chunks per lane, as the parallel engine assigns
        // them; receivers land in every lane.
        large_round(shape, log_v, rng,
                    [&](std::uint64_t src, std::uint64_t dst,
                        std::uint64_t c) {
                      fast[src * lanes >> log_v].count(src, dst, c);
                      ref.count(src, dst, c);
                    });
        for (unsigned w = 1; w < lanes; ++w) fast[0].absorb(fast[w]);
        SuperstepRecord a = blank_record(log_v);
        SuperstepRecord b = blank_record(log_v);
        fast[0].finalize_into(a);
        ref.finalize_into(b);
        expect_records_equal(a, b, log_v, lanes, round++);
      }
    }
  }
}

/// Drive a randomized mixed-label, partly sparse message plan through
/// `backend` and check every recorded superstep against a reference
/// accumulation of the same plan.
template <typename Backend>
void expect_replay_matches_reference(Backend& backend, unsigned log_v,
                                     std::uint64_t seed) {
  struct Planned {
    std::uint64_t src;
    std::uint64_t dst;
    std::uint64_t count;
    bool dummy;
  };
  const std::uint64_t v = std::uint64_t{1} << log_v;
  ReferenceDegreeAccumulator ref(log_v);
  Xoshiro256 rng(seed);
  for (unsigned round = 0; round < 8; ++round) {
    const unsigned label = static_cast<unsigned>(rng.below(log_v));
    const std::uint64_t cluster = v >> label;
    const bool sparse = round % 2 == 1;
    std::vector<std::uint64_t> active;
    for (std::uint64_t r = 0; r < v; ++r) {
      if (!sparse || rng.below(3) == 0) active.push_back(r);
    }
    // Per-VP message plan, respecting the label's cluster constraint.
    std::vector<std::vector<Planned>> plan(v);
    for (const std::uint64_t r : active) {
      const std::uint64_t base = r & ~(cluster - 1);
      const std::uint64_t sends = rng.below(4);
      for (std::uint64_t k = 0; k < sends; ++k) {
        const std::uint64_t dst = base + rng.below(cluster);
        const bool dummy = rng.below(4) == 0;
        const std::uint64_t count = dummy ? 1 + rng.below(3) : 1;
        plan[r].push_back(Planned{r, dst, count, dummy});
      }
    }
    backend.superstep_sparse(label, active, [&plan](auto& vp) {
      for (const Planned& msg : plan[vp.id()]) {
        if (msg.dummy) {
          vp.send_dummy(msg.dst, msg.count);
        } else {
          vp.send(msg.dst, 1);
        }
      }
    });
    for (const std::uint64_t r : active) {
      for (const Planned& msg : plan[r]) {
        ref.count(msg.src, msg.dst, msg.count);
      }
    }
    SuperstepRecord expected = blank_record(log_v);
    expected.label = label;
    ref.finalize_into(expected);
    const SuperstepRecord& recorded = backend.trace().steps().back();
    EXPECT_EQ(recorded.label, expected.label) << "round " << round;
    EXPECT_EQ(recorded.degree, expected.degree)
        << "log_v=" << log_v << " round=" << round;
    EXPECT_EQ(recorded.messages, expected.messages)
        << "log_v=" << log_v << " round=" << round;
  }
}

// Mixed-label replay through the simulator: every superstep's recorded
// degrees (produced by the engine's DegreeAccumulator) must match a
// reference accumulation of the exact same message plan, including sparse
// supersteps where only a few VPs run.
TEST(DegreeDifferential, MachineReplayMatchesReference) {
  for (const unsigned log_v : {2u, 4u, 6u}) {
    Machine<int> m(std::uint64_t{1} << log_v);
    expect_replay_matches_reference(m, log_v, 77 + log_v);
  }
}

// The same plans through CostBackend, whose split hot path batches the send
// half per VP (flush_sent) and writes the receive half straight into the
// accumulator's rows (bucket).
TEST(DegreeDifferential, CostBackendReplayMatchesReference) {
  for (const unsigned log_v : {2u, 4u, 6u, 10u}) {
    CostBackend bk(std::uint64_t{1} << log_v);
    expect_replay_matches_reference(bk, log_v, 177 + log_v);
  }
}

}  // namespace
}  // namespace nobl
