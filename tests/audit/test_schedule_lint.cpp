// Schedule lint: recorded registry schedules must pass; hand-built corrupt
// schedules and traces must trip each named rule; the formula
// reconciliation catches both lying predictions and impossible lower
// bounds.
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/samplesort.hpp"
#include "algorithms/scan.hpp"
#include "algorithms/sort.hpp"
#include "audit/schedule_lint.hpp"
#include "bsp/backend.hpp"
#include "bsp/trace.hpp"
#include "core/registry.hpp"
#include "core/workloads.hpp"

namespace nobl::audit {
namespace {

bool has_rule(const ScheduleLintReport& report, const std::string& rule) {
  for (const LintIssue& issue : report.issues) {
    if (issue.rule == rule) return true;
  }
  return false;
}

/// Record a kernel's schedule on the registry workload (seed = n, the
/// registry runners' convention) by driving its program under a
/// RecordBackend.
template <typename Program>
Schedule recorded(std::uint64_t v, Program&& program) {
  RecordBackend backend(v);
  program(backend);
  return backend.schedule();
}

Schedule recorded_scan(std::uint64_t n) {
  const auto addends = workloads::random_addends(n, n);
  return recorded(n, [&](auto& bk) { (void)scan_program(bk, addends); });
}

Schedule recorded_sort(std::uint64_t n) {
  const auto keys = workloads::random_keys(n, n);
  return recorded(n, [&](auto& bk) { (void)sort_program(bk, keys, true); });
}

TEST(ScheduleLint, RecordedScanIsClean) {
  const ScheduleLintReport report = lint_schedule(recorded_scan(64));
  EXPECT_TRUE(report.clean()) << report.issues.front().rule << ": "
                              << report.issues.front().detail;
}

TEST(ScheduleLint, RecordedSamplesortIsClean) {
  // Data-dependent degrees are still *structurally* legal: containment,
  // dummy discipline and degree shape hold for every input.
  const auto keys = workloads::random_keys(64, 64);
  const ScheduleLintReport report = lint_schedule(
      recorded(64, [&](auto& bk) { (void)samplesort_program(bk, keys); }));
  EXPECT_TRUE(report.clean()) << report.issues.front().rule << ": "
                              << report.issues.front().detail;
}

TEST(ScheduleLint, LabelRangeRule) {
  Schedule schedule;
  schedule.log_v = 2;
  schedule.steps.emplace_back(2, std::initializer_list<ScheduleSend>{
                                     {0, 1, 1, false}});
  const ScheduleLintReport report = lint_schedule(schedule);
  EXPECT_TRUE(has_rule(report, "label-range"));
}

TEST(ScheduleLint, EndpointRangeRule) {
  Schedule schedule;
  schedule.log_v = 2;
  schedule.steps.emplace_back(0, std::initializer_list<ScheduleSend>{
                                     {0, 4, 1, false}});
  const ScheduleLintReport report = lint_schedule(schedule);
  EXPECT_TRUE(has_rule(report, "endpoint-range"));
}

TEST(ScheduleLint, ClusterContainmentRule) {
  Schedule schedule;
  schedule.log_v = 2;
  // A 1-superstep message 0 -> 3 leaves the sender's 1-cluster {0, 1}.
  schedule.steps.emplace_back(1, std::initializer_list<ScheduleSend>{
                                     {0, 3, 1, false}});
  const ScheduleLintReport report = lint_schedule(schedule);
  EXPECT_TRUE(has_rule(report, "cluster-containment"));
}

TEST(ScheduleLint, DummyDisciplineRules) {
  Schedule schedule;
  schedule.log_v = 2;
  schedule.steps.emplace_back(0, std::initializer_list<ScheduleSend>{
                                     {0, 1, 3, false},   // real, count != 1
                                     {1, 2, 0, true}});  // zero-count burst
  const ScheduleLintReport report = lint_schedule(schedule);
  EXPECT_TRUE(has_rule(report, "dummy-discipline"));
  EXPECT_EQ(report.issues.size(), 2u);
}

TEST(ScheduleLint, DummyBurstsAreLegal) {
  Schedule schedule;
  schedule.log_v = 2;
  schedule.steps.emplace_back(0, std::initializer_list<ScheduleSend>{
                                     {0, 1, 1, false},
                                     {1, 3, 5, true}});  // burst of 5: fine
  const ScheduleLintReport report = lint_schedule(schedule);
  EXPECT_TRUE(report.clean());
}

TEST(ScheduleLint, DegreeShapeRule) {
  // Trace::append rejects malformed degree vectors outright, so the shape
  // rule is exercised on raw records — the form a corrupted binary store
  // hands back before any Trace is constructed.
  SuperstepRecord record;
  record.label = 0;
  record.degree = {0, 1};  // log_v + 1 == 3 lanes expected
  const std::vector<SuperstepRecord> steps{record};
  const ScheduleLintReport report = lint_degree_structure(
      std::span<const SuperstepRecord>(steps), 2);
  EXPECT_TRUE(has_rule(report, "degree-shape"));
}

TEST(ScheduleLint, LocalFoldDegreeRule) {
  Trace trace(2);
  SuperstepRecord record;
  record.label = 1;
  // h(2^1) must be 0 for a 1-superstep: folds at or above the label are
  // local by containment.
  record.degree = {0, 2, 1};
  record.messages = 2;
  trace.append(record);
  const ScheduleLintReport report = lint_degree_structure(trace);
  EXPECT_TRUE(has_rule(report, "local-fold-degree"));
}

TEST(ScheduleLint, DegreeDoublingRule) {
  Trace trace(2);
  SuperstepRecord record;
  record.label = 0;
  // Merging two fold-4 processors can at most double the degree:
  // h(2) = 5 > 2 h(4) = 2 is impossible for a genuinely executed step.
  record.degree = {0, 5, 1};
  record.messages = 5;
  trace.append(record);
  const ScheduleLintReport report = lint_degree_structure(trace);
  EXPECT_TRUE(has_rule(report, "degree-doubling"));
}

TEST(ScheduleLint, ReplayedScheduleDegreesAlwaysSatisfyStructure) {
  const Schedule schedule = recorded_sort(64);
  const ScheduleLintReport report =
      lint_degree_structure(schedule.replay_trace());
  EXPECT_TRUE(report.clean());
}

TEST(ScheduleLint, ExactFormulaReconciliationPassesAndDetectsDrift) {
  const AlgoEntry& scan = AlgoRegistry::instance().at("scan");
  const Trace trace = recorded_scan(64).replay_trace();
  const ScheduleLintReport clean = lint_against_formulas(
      trace, 64, scan.predicted, scan.lower_bound, true, "scan");
  EXPECT_TRUE(clean.clean())
      << clean.issues.front().rule << ": " << clean.issues.front().detail;

  const ScheduleLintReport drift = lint_against_formulas(
      trace, 64,
      [](std::uint64_t, std::uint64_t, double) { return 1.0; },
      scan.lower_bound, true, "scan");
  EXPECT_TRUE(has_rule(drift, "exact-h-drift"));
}

TEST(ScheduleLint, EnvelopeReconciliationPassesAndDetectsViolations) {
  const AlgoEntry& sort = AlgoRegistry::instance().at("sort");
  const Trace trace = recorded_sort(64).replay_trace();
  const ScheduleLintReport clean = lint_against_formulas(
      trace, 64, sort.predicted, sort.lower_bound, false, "sort");
  EXPECT_TRUE(clean.clean())
      << clean.issues.front().rule << ": " << clean.issues.front().detail;

  const ScheduleLintReport lying_prediction = lint_against_formulas(
      trace, 64,
      [](std::uint64_t, std::uint64_t, double) { return 0.01; },
      sort.lower_bound, false, "sort");
  EXPECT_TRUE(has_rule(lying_prediction, "predicted-envelope"));

  const ScheduleLintReport impossible_bound = lint_against_formulas(
      trace, 64, sort.predicted,
      [](std::uint64_t, std::uint64_t, double) { return 1e12; }, false,
      "sort");
  EXPECT_TRUE(has_rule(impossible_bound, "lower-bound-envelope"));
}

TEST(ScheduleLint, MergeIntoConcatenates) {
  ScheduleLintReport base;
  base.issues.push_back({"a", "first"});
  ScheduleLintReport extra;
  extra.issues.push_back({"b", "second"});
  merge_into(base, extra);
  ASSERT_EQ(base.issues.size(), 2u);
  EXPECT_EQ(base.issues[1].rule, "b");
}

}  // namespace
}  // namespace nobl::audit
