// One rule set for an i-superstep, checked against every interpreter that
// runs VP bodies: Machine under the sequential and a two-thread parallel
// engine, CostBackend, RecordBackend and audit::AuditBackend. For each rule
// every backend must throw the same exception type with the same what();
// a rejected step must leave no trace; and seeded random valid programs
// must give identical traces (step labels under audit).
#include <cstdint>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include <gtest/gtest.h>

#include "audit/backend.hpp"
#include "audit/taint.hpp"
#include "bsp/backend.hpp"
#include "bsp/machine.hpp"
#include "util/rng.hpp"

namespace nobl {
namespace {

void expect_same_step(const SuperstepRecord& got, const SuperstepRecord& want,
                      const std::string& where) {
  EXPECT_EQ(got.label, want.label) << where;
  EXPECT_EQ(got.degree, want.degree) << where;
  EXPECT_EQ(got.messages, want.messages) << where;
}

// ---- The backends under test. --------------------------------------------
//
// steps(bk) returns what the backend recorded. kCounts is false for the
// audit backend, whose records carry only the step label.

struct MachineSeq {
  using Backend = Machine<int>;
  static constexpr bool kCounts = true;
  static std::unique_ptr<Backend> make(std::uint64_t v) {
    return std::make_unique<Backend>(v);
  }
  static std::vector<SuperstepRecord> steps(Backend& bk) {
    return bk.trace().steps();
  }
};

struct MachinePar2 {
  using Backend = Machine<int>;
  static constexpr bool kCounts = true;
  static std::unique_ptr<Backend> make(std::uint64_t v) {
    return std::make_unique<Backend>(v, ExecutionPolicy::parallel(2));
  }
  static std::vector<SuperstepRecord> steps(Backend& bk) {
    return bk.trace().steps();
  }
};

struct Cost {
  using Backend = CostBackend;
  static constexpr bool kCounts = true;
  static std::unique_ptr<Backend> make(std::uint64_t v) {
    return std::make_unique<Backend>(v);
  }
  static std::vector<SuperstepRecord> steps(Backend& bk) {
    return bk.trace().steps();
  }
};

struct Record {
  using Backend = RecordBackend;
  static constexpr bool kCounts = true;
  static std::unique_ptr<Backend> make(std::uint64_t v) {
    return std::make_unique<Backend>(v);
  }
  /// The replayed schedule must re-derive the counted trace exactly.
  static std::vector<SuperstepRecord> steps(Backend& bk) {
    const Trace replayed = bk.schedule().replay_trace();
    EXPECT_EQ(replayed.supersteps(), bk.trace().supersteps());
    for (std::size_t s = 0; s < replayed.supersteps(); ++s) {
      expect_same_step(replayed.steps()[s], bk.trace().steps()[s],
                       "replayed step " + std::to_string(s));
    }
    return bk.trace().steps();
  }
};

struct Audit {
  using Backend = audit::AuditBackend;
  static constexpr bool kCounts = false;
  static std::unique_ptr<Backend> make(std::uint64_t v) {
    return std::make_unique<Backend>(v);
  }
  static std::vector<SuperstepRecord> steps(Backend& bk) {
    std::vector<SuperstepRecord> labels;
    for (const audit::StepAudit& step : bk.take_report().steps) {
      labels.push_back(SuperstepRecord{step.label, {}, 0});
    }
    return labels;
  }
};

template <typename B>
class SuperstepParity : public ::testing::Test {};

using AllBackends =
    ::testing::Types<MachineSeq, MachinePar2, Cost, Record, Audit>;
TYPED_TEST_SUITE(SuperstepParity, AllBackends);

// ---- Rule parity. ---------------------------------------------------------

/// "<dynamic exception type>: <what()>", or "no throw".
template <typename Fn>
std::string outcome(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    const std::type_info& type = typeid(e);
    std::string name = type.name();
    if (type == typeid(ClusterViolation)) name = "ClusterViolation";
    if (type == typeid(std::out_of_range)) name = "out_of_range";
    if (type == typeid(std::invalid_argument)) name = "invalid_argument";
    if (type == typeid(std::logic_error)) name = "logic_error";
    return name + ": " + e.what();
  }
  return "no throw";
}

constexpr const char* kSparseRule =
    "invalid_argument: superstep_sparse: active set must be strictly "
    "increasing VP ids below v";

TYPED_TEST(SuperstepParity, LabelOutOfRange) {
  auto bk = TypeParam::make(8);
  EXPECT_EQ(outcome([&] { bk->superstep(3, [](auto&) {}); }),
            "invalid_argument: superstep label 3 out of range (labels 0..2)");
  // M(1) keeps label 0 for local steps.
  auto unit = TypeParam::make(1);
  EXPECT_EQ(outcome([&] { unit->superstep(0, [](auto&) {}); }), "no throw");
  EXPECT_EQ(outcome([&] { unit->superstep(1, [](auto&) {}); }),
            "invalid_argument: superstep label 1 out of range (labels 0..0)");
}

TYPED_TEST(SuperstepParity, NestedSuperstep) {
  auto bk = TypeParam::make(8);
  auto& outer = *bk;
  EXPECT_EQ(outcome([&] {
              outer.superstep(0, [&](auto& vp) {
                if (vp.id() == 0) outer.superstep(0, [](auto&) {});
              });
            }),
            "logic_error: nested superstep");
}

TYPED_TEST(SuperstepParity, SparseSetMustBeStrictlyIncreasingAndInRange) {
  auto bk = TypeParam::make(8);
  for (const std::vector<std::uint64_t>& bad :
       {std::vector<std::uint64_t>{2, 1}, std::vector<std::uint64_t>{3, 3},
        std::vector<std::uint64_t>{1, 8}}) {
    bool ran = false;
    EXPECT_EQ(outcome([&] {
                bk->superstep_sparse(0, bad, [&](auto&) { ran = true; });
              }),
              kSparseRule);
    EXPECT_FALSE(ran) << "the active set is checked before any body runs";
  }
}

TYPED_TEST(SuperstepParity, RangeEndBeyondV) {
  auto bk = TypeParam::make(8);
  bool ran = false;
  EXPECT_EQ(outcome([&] {
              bk->superstep_range(0, 0, 9, [&](auto& vp) {
                ran = true;
                vp.send(0, 1);
              });
            }),
            "out_of_range: superstep_range: range end 9 exceeds v = 8");
  EXPECT_FALSE(ran) << "the range is checked before any body runs";
  // first >= last stays an empty step.
  EXPECT_EQ(outcome([&] { bk->superstep_range(0, 5, 2, [](auto&) {}); }),
            "no throw");
  EXPECT_EQ(outcome([&] { bk->superstep_range(0, 8, 8, [](auto&) {}); }),
            "no throw");
  EXPECT_EQ(TypeParam::steps(*bk).size(), 2u);
}

TYPED_TEST(SuperstepParity, DestinationOutOfRange) {
  const std::string expected =
      "out_of_range: destination VP 8 out of range (v = 8)";
  auto bk = TypeParam::make(8);
  EXPECT_EQ(outcome([&] {
              bk->superstep(0, [](auto& vp) {
                if (vp.id() == 0) vp.send(8, 1);
              });
            }),
            expected);
  auto dummy = TypeParam::make(8);
  EXPECT_EQ(outcome([&] {
              dummy->superstep(0, [](auto& vp) {
                if (vp.id() == 0) vp.send_dummy(8, 2);
              });
            }),
            expected);
}

TYPED_TEST(SuperstepParity, ClusterBreach) {
  const std::string expected =
      "ClusterViolation: message leaves the sender's 1-cluster (src=0, dst=4)";
  auto bk = TypeParam::make(8);
  EXPECT_EQ(outcome([&] {
              bk->superstep(1, [](auto& vp) {
                if (vp.id() == 0) vp.send(4, 1);
              });
            }),
            expected);
  auto dummy = TypeParam::make(8);
  EXPECT_EQ(outcome([&] {
              dummy->superstep(1, [](auto& vp) {
                if (vp.id() == 0) vp.send_dummy(4, 3);
              });
            }),
            expected);
  // A zero-count dummy is no send at all, so it breaks no rule.
  auto zero = TypeParam::make(8);
  EXPECT_EQ(outcome([&] {
              zero->superstep(1,
                              [](auto& vp) { vp.send_dummy(vp.id() ^ 4, 0); });
            }),
            "no throw");
}

// ---- A rejected step leaves no trace. -------------------------------------

TYPED_TEST(SuperstepParity, RejectedStepLeavesNoTrace) {
  auto bk = TypeParam::make(8);
  const std::vector<std::uint64_t> unsorted{2, 1};
  EXPECT_THROW(bk->superstep_sparse(0, unsorted, [](auto&) {}),
               std::invalid_argument);
  EXPECT_THROW(bk->superstep(3, [](auto&) {}), std::invalid_argument);
  bk->superstep(1, [](auto& vp) { vp.send(vp.id() ^ 1, 1); });
  const std::vector<SuperstepRecord> steps = TypeParam::steps(*bk);
  ASSERT_EQ(steps.size(), 1u);
  EXPECT_EQ(steps[0].label, 1u);
  if constexpr (TypeParam::kCounts) {
    EXPECT_EQ(steps[0].messages, 8u);
  }
}

TEST(AuditSuperstep, RejectedStepKeepsPendingDeclassifications) {
  audit::AuditBackend bk(8);
  audit::note_declassify();  // a host-phase event ahead of the next step
  const std::vector<std::uint64_t> unsorted{2, 1};
  EXPECT_THROW(bk.superstep_sparse(0, unsorted, [](auto&) {}),
               std::invalid_argument);
  bk.superstep(0, [](auto&) {});
  const audit::AuditReport report = bk.take_report();
  ASSERT_EQ(report.steps.size(), 1u);
  EXPECT_EQ(report.steps[0].declassifications, 1u);
}

// ---- Seeded random valid programs. ----------------------------------------

struct StepSpec {
  enum class Kind { kFull, kRange, kSparse } kind = Kind::kFull;
  unsigned label = 0;
  std::uint64_t first = 0;
  std::uint64_t last = 0;
  std::vector<std::uint64_t> active;
  std::uint64_t seed = 0;
};

/// A valid random program on M(v): random labels, ranges (some empty),
/// sparse sets and per-VP traffic inside the sender's label-cluster.
std::vector<StepSpec> random_program(std::uint64_t v, std::uint64_t seed) {
  const unsigned log_v = log2_exact(v);
  Xoshiro256 rng(seed);
  std::vector<StepSpec> steps(4 + rng() % 8);
  for (StepSpec& step : steps) {
    step.kind = static_cast<StepSpec::Kind>(rng() % 3);
    step.label = static_cast<unsigned>(rng() % label_bound(log_v));
    step.first = rng() % (v + 1);
    step.last = rng() % (v + 1);  // first >= last: an empty step
    for (std::uint64_t r = 0; r < v; ++r) {
      if (rng() % 3 == 0) step.active.push_back(r);
    }
    step.seed = rng();
  }
  return steps;
}

/// VP r's traffic in one step: a function of (step seed, r) alone, so every
/// backend and engine sees the same sends whatever order bodies run in.
template <typename VpT>
void random_body(VpT& vp, const StepSpec& step) {
  Xoshiro256 rng(step.seed ^ (vp.id() * 0x9e3779b97f4a7c15ULL));
  const unsigned shift = vp.log_v() - step.label;
  const std::uint64_t cluster = (vp.id() >> shift) << shift;
  const std::uint64_t sends = rng() % 4;
  for (std::uint64_t k = 0; k < sends; ++k) {
    const std::uint64_t offset = rng() & ((std::uint64_t{1} << shift) - 1);
    const std::uint64_t dst = cluster | offset;
    if (rng() % 2 == 0) {
      vp.send(dst, static_cast<int>(k));
    } else {
      vp.send_dummy(dst, rng() % 4);  // count 0 included
    }
  }
}

template <typename Backend>
void run_program(Backend& bk, const std::vector<StepSpec>& steps) {
  for (const StepSpec& step : steps) {
    const auto body = [&step](auto& vp) { random_body(vp, step); };
    switch (step.kind) {
      case StepSpec::Kind::kFull:
        bk.superstep(step.label, body);
        break;
      case StepSpec::Kind::kRange:
        bk.superstep_range(step.label, step.first, step.last, body);
        break;
      case StepSpec::Kind::kSparse:
        bk.superstep_sparse(step.label, step.active, body);
        break;
    }
  }
}

TYPED_TEST(SuperstepParity, RandomProgramsMatchTheReferenceMachine) {
  for (const std::uint64_t v : {1u, 2u, 8u, 64u}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const std::vector<StepSpec> program = random_program(v, seed * 131 + v);
      Machine<int> reference(v);
      run_program(reference, program);
      auto bk = TypeParam::make(v);
      run_program(*bk, program);
      const std::vector<SuperstepRecord> got = TypeParam::steps(*bk);
      const std::vector<SuperstepRecord>& want = reference.trace().steps();
      ASSERT_EQ(got.size(), want.size()) << "v=" << v << " seed=" << seed;
      for (std::size_t s = 0; s < want.size(); ++s) {
        const std::string where = "v=" + std::to_string(v) +
                                  " seed=" + std::to_string(seed) + " step " +
                                  std::to_string(s);
        if constexpr (TypeParam::kCounts) {
          expect_same_step(got[s], want[s], where);
        } else {
          EXPECT_EQ(got[s].label, want[s].label) << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace nobl
