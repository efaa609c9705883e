#include "audit/schedule_lint.hpp"

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "bsp/cost.hpp"

namespace nobl::audit {
namespace {

std::string step_prefix(std::size_t index, unsigned label) {
  return "step " + std::to_string(index) + " (label " + std::to_string(label) +
         "): ";
}

void add(ScheduleLintReport& report, std::string rule, std::string detail) {
  report.issues.push_back(LintIssue{std::move(rule), std::move(detail)});
}

/// Event-level checks: ranges, containment, dummy discipline. The locus
/// strings are built only for events that break a rule.
ScheduleLintReport lint_events(const Schedule& schedule) {
  ScheduleLintReport report;
  const std::uint64_t v = schedule.v();
  const unsigned log_v = schedule.log_v;
  const unsigned bound = label_bound(log_v);

  for (std::size_t s = 0; s < schedule.steps.size(); ++s) {
    const ScheduleStep& step = schedule.steps[s];
    const auto where = [&] { return step_prefix(s, step.label); };
    if (step.label >= bound) {
      add(report, "label-range",
          where() + "label exceeds bound " + std::to_string(bound - 1));
      continue;  // the containment shift below would be meaningless
    }
    const unsigned shift = log_v - step.label;
    const std::vector<std::uint64_t>& src = step.src();
    const std::vector<std::uint64_t>& dst = step.dst();
    const std::vector<std::uint64_t>& count = step.count();
    for (std::size_t i = 0; i < step.size(); ++i) {
      if (src[i] >= v || dst[i] >= v) {
        add(report, "endpoint-range",
            where() + "event " + std::to_string(i) +
                " endpoint out of range (" + std::to_string(src[i]) + " -> " +
                std::to_string(dst[i]) + ", v = " + std::to_string(v) + ")");
        continue;
      }
      if (((src[i] ^ dst[i]) >> shift) != 0) {
        add(report, "cluster-containment",
            where() + "message " + std::to_string(src[i]) + " -> " +
                std::to_string(dst[i]) + " leaves the sender's " +
                std::to_string(step.label) + "-cluster");
      }
      if (count[i] == 0) {
        add(report, "dummy-discipline",
            where() + "event " + std::to_string(i) + " has count 0");
      } else if (count[i] != 1 && !step.dummy(i)) {
        add(report, "dummy-discipline",
            where() + "real send " + std::to_string(src[i]) + " -> " +
                std::to_string(dst[i]) + " records count " +
                std::to_string(count[i]) + " (real sends are unit events)");
      }
    }
  }
  return report;
}

}  // namespace

void merge_into(ScheduleLintReport& base, const ScheduleLintReport& extra) {
  base.issues.insert(base.issues.end(), extra.issues.begin(),
                     extra.issues.end());
}

ScheduleLintReport lint_schedule(const Schedule& schedule) {
  ScheduleLintReport report = lint_events(schedule);
  // Degree structure over the replayed trace — only meaningful once the
  // events themselves are in range (replay_trace() throws on the corrupt
  // labels the event checks report).
  if (report.clean()) {
    merge_into(report, lint_degree_structure(schedule.replay_trace()));
  }
  return report;
}

ScheduleLintReport lint_degree_structure(const Trace& trace) {
  return lint_degree_structure(
      std::span<const SuperstepRecord>(trace.steps()), trace.log_v());
}

ScheduleLintReport lint_degree_structure(std::span<const SuperstepRecord> steps,
                                         const unsigned log_v) {
  ScheduleLintReport report;
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const SuperstepRecord& record = steps[s];
    const auto where = [&] { return step_prefix(s, record.label); };
    if (record.degree.size() != static_cast<std::size_t>(log_v) + 1) {
      add(report, "degree-shape",
          where() + "degree vector has " +
              std::to_string(record.degree.size()) + " folds, expected " +
              std::to_string(log_v + 1));
      continue;
    }
    // Folds that do not split the sender's label-cluster see only local
    // traffic: h(2^j) = 0 for every j <= label.
    for (unsigned j = 0; j <= record.label && j <= log_v; ++j) {
      if (record.degree[j] != 0) {
        add(report, "local-fold-degree",
            where() + "h(2^" + std::to_string(j) + ") = " +
                std::to_string(record.degree[j]) +
                " but folds at or above the label must be local");
      }
    }
    // Merging two fold-2^{j+1} processors into one fold-2^j processor can
    // at most double max(sent, received): h(2^j) <= 2 h(2^{j+1}).
    for (unsigned j = 1; j < log_v; ++j) {
      if (record.degree[j] > 2 * record.degree[j + 1]) {
        add(report, "degree-doubling",
            where() + "h(2^" + std::to_string(j) + ") = " +
                std::to_string(record.degree[j]) + " exceeds 2 h(2^" +
                std::to_string(j + 1) +
                ") = " + std::to_string(2 * record.degree[j + 1]));
      }
    }
  }
  return report;
}

ScheduleLintReport lint_against_formulas(const FoldTables& trace,
                                         std::uint64_t n,
                                         const CostFormula& predicted,
                                         const CostFormula& lower_bound,
                                         bool exact_h,
                                         const std::string& name) {
  ScheduleLintReport report;
  for (unsigned log_p = 1; log_p <= trace.log_v(); ++log_p) {
    const std::uint64_t p = std::uint64_t{1} << log_p;
    for (const double sigma : sigma_grid(n, p)) {
      const double measured = communication_complexity(trace, log_p, sigma);
      const double expected = predicted(n, p, sigma);
      const double bound = lower_bound(n, p, sigma);
      const auto cell = [&] {
        return name + " at p = " + std::to_string(p) +
               ", sigma = " + std::to_string(sigma);
      };
      if (exact_h) {
        const double slack = 1e-9 * std::max(1.0, std::abs(expected));
        if (std::abs(measured - expected) > slack) {
          add(report, "exact-h-drift",
              cell() + ": measured H = " + std::to_string(measured) +
                  " != predicted " + std::to_string(expected));
        }
      } else {
        if (measured > kEnvelopeFactor * expected) {
          add(report, "predicted-envelope",
              cell() + ": measured H = " + std::to_string(measured) +
                  " exceeds " + std::to_string(kEnvelopeFactor) +
                  "x predicted " + std::to_string(expected));
        }
        if (bound > kEnvelopeFactor * measured) {
          add(report, "lower-bound-envelope",
              cell() + ": lower bound " + std::to_string(bound) + " exceeds " +
                  std::to_string(kEnvelopeFactor) + "x measured H = " +
                  std::to_string(measured));
        }
      }
    }
  }
  return report;
}

}  // namespace nobl::audit
