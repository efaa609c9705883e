// AuditBackend: classification of toy programs (a deliberately
// data-dependent router must flag; an oblivious compare-exchange network
// must not) and declassification attribution across superstep boundaries.
// Validation parity with the other backends is pinned by
// tests/bsp/test_superstep_parity.cpp.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "audit/backend.hpp"
#include "audit/taint.hpp"
#include "util/dep.hpp"

namespace nobl::audit {
namespace {

using V = Tainted<std::uint64_t>;

TEST(AuditBackend, CleanStaticProgramIsOblivious) {
  AuditBackend bk(4);
  const auto values = source_all(std::vector<std::uint64_t>{3, 1, 4, 1});
  // A static butterfly: destinations derive from vp.id() alone, payloads
  // are tainted but only ride along.
  for (unsigned bit = 0; bit < 2; ++bit) {
    bk.superstep(1 - bit, [&](auto& vp) {
      vp.send(vp.id() ^ (std::uint64_t{1} << bit), values[vp.id()]);
    });
  }
  const AuditReport report = bk.take_report();
  ASSERT_EQ(report.steps.size(), 2u);
  EXPECT_TRUE(report.oblivious());
  EXPECT_EQ(report.tainted_destinations(), 0u);
  EXPECT_EQ(report.declassifications(), 0u);
  EXPECT_EQ(report.steps[0].sends, 4u);
}

TEST(AuditBackend, TaintedDestinationFlagsTheStep) {
  AuditBackend bk(4);
  const auto values = source_all(std::vector<std::uint64_t>{3, 1, 2, 0});
  bk.superstep(0, [&](auto& vp) {
    // Route by value: the destination IS the payload — the canonical
    // data-dependent program.
    vp.send(values[vp.id()], values[vp.id()]);
  });
  const AuditReport report = bk.take_report();
  ASSERT_EQ(report.steps.size(), 1u);
  EXPECT_FALSE(report.oblivious());
  EXPECT_EQ(report.steps[0].tainted_destinations, 4u);
  EXPECT_EQ(report.flagged_steps(), (std::vector<std::size_t>{0}));
}

TEST(AuditBackend, TaintedDummyCountFlagsTheStep) {
  AuditBackend bk(4);
  const auto load = source(std::uint64_t{2});
  bk.superstep(0, [&](auto& vp) {
    if (vp.id() == 0) vp.send_dummy(std::uint64_t{1}, load);
  });
  const AuditReport report = bk.take_report();
  ASSERT_EQ(report.steps.size(), 1u);
  EXPECT_EQ(report.steps[0].tainted_counts, 1u);
  EXPECT_EQ(report.steps[0].dummy_bursts, 1u);
  EXPECT_FALSE(report.oblivious());
}

TEST(AuditBackend, HostPhaseDeclassificationAttributesToNextStep) {
  AuditBackend bk(4);
  const auto values = source_all(std::vector<std::uint64_t>{2, 0, 3, 1});
  bk.superstep(0, [&](auto& vp) { vp.send(vp.id() ^ 1, values[vp.id()]); });
  // Host mirror between barriers collapses a tracked index: whatever the
  // raw value steers (rosters, send counts) belongs to the NEXT superstep.
  std::vector<std::uint64_t> slots(4, 0);
  slots[dep::index(values[0])] = 1;
  bk.superstep(0, [&](auto& vp) { vp.send(vp.id() ^ 1, slots[vp.id()]); });
  const AuditReport report = bk.take_report();
  ASSERT_EQ(report.steps.size(), 2u);
  EXPECT_EQ(report.steps[0].declassifications, 0u);
  EXPECT_EQ(report.steps[1].declassifications, 1u);
  EXPECT_EQ(report.trailing_declassifications, 0u);
  EXPECT_EQ(report.flagged_steps(), (std::vector<std::size_t>{1}));
}

TEST(AuditBackend, InBodyDeclassificationAttributesToItsStep) {
  AuditBackend bk(2);
  const auto gate = source(std::uint64_t{1});
  bk.superstep(0, [&](auto& vp) {
    if (vp.id() == 0 && gate == std::uint64_t{1}) vp.send(1, std::uint64_t{7});
  });
  const AuditReport report = bk.take_report();
  ASSERT_EQ(report.steps.size(), 1u);
  EXPECT_EQ(report.steps[0].declassifications, 1u);
  EXPECT_FALSE(report.oblivious());
}

TEST(AuditBackend, TrailingDeclassificationsAreCaught) {
  AuditBackend bk(2);
  const auto values = source_all(std::vector<std::uint64_t>{1, 0});
  bk.superstep(0, [&](auto& vp) { vp.send(vp.id() ^ 1, values[vp.id()]); });
  // Final host mirror (e.g. writing outputs at payload-derived positions)
  // after the last barrier: still input influence, still caught.
  std::vector<std::uint64_t> output(2, 0);
  output[dep::index(values[0])] = 1;
  const AuditReport report = bk.take_report();
  EXPECT_EQ(report.trailing_declassifications, 1u);
  EXPECT_FALSE(report.oblivious());
  EXPECT_TRUE(report.flagged_steps().empty());  // no *step* flagged
}

TEST(AuditBackend, ConstructorDrainsStaleSinkEvents) {
  (void)source(std::uint64_t{1}).declassify();  // stray pre-run event
  AuditBackend bk(2);
  bk.superstep(0, [](auto&) {});
  const AuditReport report = bk.take_report();
  EXPECT_TRUE(report.oblivious());
}

TEST(AuditBackend, ObliviousCompareExchangeStaysClean) {
  // The false-positive guard at program scale: a 4-input sorting network
  // over tainted keys through dep:: compare-exchange — order-sensitive
  // payload work, zero events.
  AuditBackend bk(4);
  auto values = source_all(std::vector<std::uint64_t>{9, 3, 7, 1});
  for (const auto& [lo, hi] : {std::pair<std::uint64_t, std::uint64_t>{0, 1},
                              {2, 3},
                              {0, 2},
                              {1, 3},
                              {1, 2}}) {
    bk.superstep((lo >> 1) == (hi >> 1) ? 1 : 0, [&, lo = lo, hi = hi](auto& vp) {
      if (vp.id() == lo) vp.send(hi, values[lo]);
      if (vp.id() == hi) vp.send(lo, values[hi]);
    });
    const V low = dep::min_value(values[lo], values[hi]);
    const V high = dep::max_value(values[lo], values[hi]);
    values[lo] = low;
    values[hi] = high;
  }
  EXPECT_EQ(values[0].raw(), 1u);
  EXPECT_EQ(values[3].raw(), 9u);
  const AuditReport report = bk.take_report();
  EXPECT_TRUE(report.oblivious());
}

TEST(AuditBackend, SparseRosterRunsOnlyListedVps) {
  AuditBackend bk(4);
  const std::vector<std::uint64_t> roster{1, 3};
  std::vector<std::uint64_t> ran;
  bk.superstep_sparse(0, roster, [&](auto& vp) { ran.push_back(vp.id()); });
  EXPECT_EQ(ran, roster);
  const AuditReport report = bk.take_report();
  ASSERT_EQ(report.steps.size(), 1u);
  EXPECT_TRUE(report.oblivious());
}

}  // namespace
}  // namespace nobl::audit
