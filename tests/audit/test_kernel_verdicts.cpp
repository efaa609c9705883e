// The registry pin: every kernel's static obliviousness verdict must agree
// with its `input_independent` annotation, and every kernel's cost trace
// must lint clean. A kernel whose annotation drifts from what its program
// actually does — in either direction — fails here by name.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "audit/kernel_audit.hpp"
#include "core/registry.hpp"

namespace nobl::audit {
namespace {

std::string describe(const KernelVerdict& verdict) {
  std::string text = verdict.name + " (n = " + std::to_string(verdict.n) +
                     "): tainted destinations = " +
                     std::to_string(verdict.report.tainted_destinations()) +
                     ", tainted counts = " +
                     std::to_string(verdict.report.tainted_counts()) +
                     ", declassifications = " +
                     std::to_string(verdict.report.declassifications());
  if (!verdict.lint.clean()) {
    text += "; lint: " + verdict.lint.issues.front().rule + ": " +
            verdict.lint.issues.front().detail;
  }
  return text;
}

TEST(KernelVerdicts, EveryKernelMatchesItsRegistryAnnotation) {
  const auto verdicts = audit_registry();
  ASSERT_EQ(verdicts.size(), AlgoRegistry::instance().entries().size());
  for (const KernelVerdict& verdict : verdicts) {
    EXPECT_TRUE(verdict.matches_registry) << describe(verdict);
    EXPECT_TRUE(verdict.lint.clean()) << describe(verdict);
    EXPECT_TRUE(verdict.passed()) << describe(verdict);
  }
}

TEST(KernelVerdicts, AuditLintIsTheCostTraceLint) {
  // audit_kernel lints the trace of one cost run: its verdict must equal
  // linting a separately executed cost trace with the degree-structure and
  // formula rules, issue for issue.
  for (const AlgoEntry& entry : AlgoRegistry::instance().entries()) {
    const std::uint64_t n = entry.smoke_sizes.front();
    const Trace trace = entry.runner(n, BackendKind::kCost);
    ScheduleLintReport expected = lint_degree_structure(trace);
    merge_into(expected,
               lint_against_formulas(trace, n, entry.predicted,
                                     entry.lower_bound, entry.exact_h,
                                     entry.name));

    const ScheduleLintReport actual = audit_kernel(entry, n).lint;
    ASSERT_EQ(actual.issues.size(), expected.issues.size()) << entry.name;
    for (std::size_t i = 0; i < actual.issues.size(); ++i) {
      EXPECT_EQ(actual.issues[i].rule, expected.issues[i].rule) << entry.name;
      EXPECT_EQ(actual.issues[i].detail, expected.issues[i].detail)
          << entry.name;
    }
  }
}

TEST(KernelVerdicts, SamplesortIsTheOnlyDataDependentKernel) {
  const auto verdicts = audit_registry();
  std::size_t flagged = 0;
  for (const KernelVerdict& verdict : verdicts) {
    if (verdict.data_dependent) {
      ++flagged;
      EXPECT_EQ(verdict.name, "samplesort") << describe(verdict);
    }
  }
  EXPECT_EQ(flagged, 1u);
}

TEST(KernelVerdicts, SamplesortFlagsForTheRightReasons) {
  const AlgoEntry& entry = AlgoRegistry::instance().at("samplesort");
  const KernelVerdict verdict = audit_kernel(entry, 64);
  EXPECT_TRUE(verdict.data_dependent);
  EXPECT_FALSE(verdict.registry_input_independent);
  EXPECT_TRUE(verdict.matches_registry);
  // Splitter routing (phase 5) and placement (phase 8) send to key-derived
  // destinations; the bucket exchange (phase 6) is control-dependent via
  // the host-mirror declassifications that shaped the held-key sets.
  EXPECT_GT(verdict.report.tainted_destinations(), 0u) << describe(verdict);
  EXPECT_GT(verdict.report.declassifications(), 0u) << describe(verdict);
  EXPECT_GE(verdict.report.flagged_steps().size(), 3u) << describe(verdict);
  // Structural legality is independent of data dependence.
  EXPECT_TRUE(verdict.lint.clean()) << describe(verdict);
}

TEST(KernelVerdicts, ObliviousKernelIsEventFreeNotMerelyBalanced) {
  const KernelVerdict verdict =
      audit_kernel(AlgoRegistry::instance().at("sort"), 64);
  EXPECT_FALSE(verdict.data_dependent) << describe(verdict);
  EXPECT_EQ(verdict.report.tainted_destinations(), 0u);
  EXPECT_EQ(verdict.report.tainted_counts(), 0u);
  EXPECT_EQ(verdict.report.declassifications(), 0u);
  EXPECT_FALSE(verdict.report.steps.empty());
}

TEST(KernelVerdicts, ExplicitSizeOverridesDefault) {
  const KernelVerdict verdict =
      audit_kernel(AlgoRegistry::instance().at("scan"), 128);
  EXPECT_EQ(verdict.n, 128u);
  EXPECT_FALSE(verdict.data_dependent);
}

TEST(KernelVerdicts, InadmissibleSizeFailsWithRegistryMessage) {
  EXPECT_THROW((void)audit_kernel(AlgoRegistry::instance().at("scan"), 100),
               std::invalid_argument);
}

}  // namespace
}  // namespace nobl::audit
