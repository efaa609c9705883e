// The Backend API (bsp/backend.hpp): the counting and recording backends
// must produce bit-identical traces on the same program, and the
// record/replay pair must round-trip exactly. The superstep rules they
// share with the simulator are pinned by test_superstep_parity.cpp.
#include "bsp/backend.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "../algorithms/degree_check.hpp"
#include "algorithms/primitives.hpp"
#include "algorithms/scan.hpp"
#include "bsp/machine.hpp"
#include "core/workloads.hpp"

namespace nobl {
namespace {

void expect_traces_identical(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.log_v(), b.log_v());
  ASSERT_EQ(a.supersteps(), b.supersteps());
  for (std::size_t s = 0; s < a.supersteps(); ++s) {
    EXPECT_EQ(a.steps()[s].label, b.steps()[s].label) << "superstep " << s;
    EXPECT_EQ(a.steps()[s].degree, b.steps()[s].degree) << "superstep " << s;
    EXPECT_EQ(a.steps()[s].messages, b.steps()[s].messages)
        << "superstep " << s;
  }
}

/// A mixed program: real traffic, dummies, self-messages, a range superstep
/// and a sparse superstep — every superstep flavour the backends must drive.
template <typename Backend>
void mixed_program(Backend& bk) {
  const std::uint64_t v = bk.v();
  bk.superstep(0, [v](auto& vp) {
    vp.send((vp.id() * 5 + 3) % v, static_cast<int>(vp.id()));
    vp.send(vp.id(), -1);  // self-message: counts a message, no degree
    if (vp.id() + 1 < v) vp.send_dummy(vp.id() + 1, vp.id() % 3);
  });
  bk.superstep_range(0, v / 4, (3 * v) / 4, [v](auto& vp) {
    vp.send(v - 1 - vp.id(), 7);
  });
  std::vector<std::uint64_t> active;
  for (std::uint64_t r = 0; r < v; r += 3) active.push_back(r);
  const unsigned label = bk.log_v() >= 2 ? 1u : 0u;
  bk.superstep_sparse(label, active, [](auto& vp) {
    vp.send(vp.id() ^ 1, 1);
    vp.send_dummy(vp.id() ^ 1, 2);
    vp.send_dummy(vp.id() ^ 1, 0);  // zero-count dummy: no effect
  });
}

TEST(CostBackend, TraceMatchesSimulatorOnMixedProgram) {
  for (const std::uint64_t v : {4u, 16u, 64u}) {
    SimulateBackend<int> simulate(v);
    mixed_program(simulate);
    CostBackend cost(v);
    mixed_program(cost);
    expect_traces_identical(simulate.trace(), cost.trace());
  }
}

TEST(CostBackend, DummyBurstsAndSelfMessages) {
  CostBackend bk(4);
  bk.superstep(0, [](auto& vp) {
    if (vp.id() == 0) {
      vp.send_dummy(2, 5);  // one event, five messages, degree 5 at the top
      vp.send(0, 1);        // self: message only
    }
  });
  const Trace& trace = bk.trace();
  ASSERT_EQ(trace.supersteps(), 1u);
  EXPECT_EQ(trace.steps()[0].messages, 6u);
  EXPECT_EQ(trace.steps()[0].degree[2], 5u);
  EXPECT_EQ(trace.steps()[0].degree[0], 0u);
}

TEST(RecordBackend, CapturesTheScheduleInExecutionOrder) {
  RecordBackend bk(4);
  bk.superstep(0, [](auto& vp) {
    if (vp.id() == 1) {
      vp.send(3, 10);
      vp.send(0, 11);
    }
    if (vp.id() == 2) vp.send_dummy(0, 4);
  });
  bk.superstep(1, [](auto& vp) { vp.send(vp.id() ^ 1, 1); });

  const Schedule& schedule = bk.schedule();
  EXPECT_EQ(schedule.log_v, 2u);
  ASSERT_EQ(schedule.steps.size(), 2u);
  EXPECT_EQ(schedule.steps[0].label, 0u);
  ASSERT_EQ(schedule.steps[0].size(), 3u);
  EXPECT_EQ(schedule.steps[0][0], (ScheduleSend{1, 3, 1, false}));
  EXPECT_EQ(schedule.steps[0][1], (ScheduleSend{1, 0, 1, false}));
  EXPECT_EQ(schedule.steps[0][2], (ScheduleSend{2, 0, 4, true}));
  EXPECT_EQ(schedule.steps[1].label, 1u);
  EXPECT_EQ(schedule.steps[1].size(), 4u);
  EXPECT_EQ(schedule.total_sends(), 7u);
  // The columnar block exposes the same rows through its columns.
  EXPECT_EQ(schedule.steps[0].src(), (std::vector<std::uint64_t>{1, 1, 2}));
  EXPECT_EQ(schedule.steps[0].dst(), (std::vector<std::uint64_t>{3, 0, 0}));
  EXPECT_EQ(schedule.steps[0].count(), (std::vector<std::uint64_t>{1, 1, 4}));
  EXPECT_EQ(schedule.steps[0].dummy_words(),
            (std::vector<std::uint64_t>{0b100}));
}

TEST(RecordBackend, ReplayReproducesTheTraceBitForBit) {
  for (const std::uint64_t v : {4u, 16u, 64u}) {
    RecordBackend record(v);
    mixed_program(record);
    // The replayed trace equals both the recording backend's own counting
    // and the simulator's.
    expect_traces_identical(record.trace(), record.schedule().replay_trace());
    SimulateBackend<int> simulate(v);
    mixed_program(simulate);
    expect_traces_identical(simulate.trace(),
                            record.schedule().replay_trace());
  }
}

TEST(RecordBackend, ScheduleFeedsTheReferenceOracle) {
  // A recorded kernel schedule drops into the ReferenceDegreeAccumulator
  // conformance helper — the generic replacement for hand-written mirrors.
  const auto addends = workloads::random_addends(16, 16);
  RecordBackend record(16);
  (void)scan_program(record, addends);
  testing_detail::expect_trace_matches_reference(
      record.trace(), testing_detail::schedule_to_expected(record.schedule()));
}

TEST(Backend, RunForTraceIsBackendInvariant) {
  const auto addends = workloads::random_addends(32, 99);
  auto program = [&](auto& bk) { (void)scan_program(bk, addends); };
  const Trace simulate =
      run_for_trace<std::uint64_t>(32, RunOptions{}, program);
  const Trace cost = run_for_trace<std::uint64_t>(
      32, RunOptions{BackendKind::kCost}, program);
  const Trace record = run_for_trace<std::uint64_t>(
      32, RunOptions{BackendKind::kRecord}, program);
  expect_traces_identical(simulate, cost);
  expect_traces_identical(simulate, record);
}

TEST(Backend, ProgramsReturnHostMirroredOutputsUnderEveryBackend) {
  const auto addends = workloads::random_addends(16, 5);
  SimulateBackend<std::uint64_t> simulate(16);
  CostBackend cost(16);
  EXPECT_EQ(scan_program(simulate, addends), scan_program(cost, addends));
  SimulateBackend<std::uint64_t> sim2(16);
  CostBackend cost2(16);
  EXPECT_EQ(reduce_program(sim2, addends), reduce_program(cost2, addends));
}

TEST(Backend, KindNamesRoundTrip) {
  for (const BackendKind kind : all_backend_kinds()) {
    EXPECT_EQ(backend_from_string(to_string(kind)), kind);
  }
  EXPECT_EQ(backend_from_string("sim"), BackendKind::kSimulate);
  EXPECT_THROW((void)backend_from_string("gpu"), std::invalid_argument);
  EXPECT_THROW((void)backend_from_string("distributed"), std::invalid_argument);
  EXPECT_EQ(all_backend_kinds().size(), kBackendCount);
  for (std::size_t i = 0; i < kBackendCount; ++i) {
    EXPECT_EQ(static_cast<std::size_t>(all_backend_kinds()[i]), i);
  }
}

TEST(Backend, RunOptionsConvertImplicitly) {
  // Historical runner(n, policy) call sites pass an ExecutionPolicy.
  const RunOptions from_policy = ExecutionPolicy::parallel(3);
  EXPECT_EQ(from_policy.backend, BackendKind::kSimulate);
  EXPECT_EQ(from_policy.policy.num_threads, 3u);
  const RunOptions from_kind = BackendKind::kCost;
  EXPECT_EQ(from_kind.backend, BackendKind::kCost);
  EXPECT_FALSE(from_kind.policy.is_parallel());
}

TEST(Schedule, ReplayRejectsOutOfRangeLabels) {
  Schedule schedule;
  schedule.log_v = 2;
  schedule.steps.emplace_back(5);
  EXPECT_THROW((void)schedule.replay_trace(), std::invalid_argument);
}

TEST(Schedule, ReplayRejectsOutOfRangeEndpoints) {
  // An endpoint >= v has no crossing level on M(v); counting it would
  // index past the accumulator's lanes.
  for (const ScheduleSend event :
       {ScheduleSend{0, 9}, ScheduleSend{9, 0}, ScheduleSend{4, 4},
        ScheduleSend{1, ~std::uint64_t{0}}}) {
    Schedule schedule;
    schedule.log_v = 2;
    schedule.steps.push_back(ScheduleStep(0, {ScheduleSend{0, 3}, event}));
    EXPECT_THROW((void)schedule.replay_trace(), std::invalid_argument)
        << event.src << " -> " << event.dst;
  }
  // In-range endpoints, self-messages included, still replay.
  Schedule ok;
  ok.log_v = 2;
  ok.steps.push_back(ScheduleStep(0, {ScheduleSend{0, 3}, ScheduleSend{3, 3}}));
  EXPECT_EQ(ok.replay_trace().steps().at(0).degree[2], 1u);
}

}  // namespace
}  // namespace nobl
