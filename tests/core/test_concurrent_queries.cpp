// Shared const traces are safe to read from several threads. The fold sums
// behind every cost query are built as supersteps are added, so the first
// query on a freshly built Trace or TraceReader writes nothing; CI re-runs
// this suite under ThreadSanitizer by name.
#include <cstddef>
#include <cstdint>
#include <latch>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bsp/cost.hpp"
#include "bsp/trace_io.hpp"
#include "bsp/trace_store.hpp"
#include "core/optimality.hpp"
#include "core/registry.hpp"
#include "core/wiseness.hpp"

namespace nobl {
namespace {

constexpr std::size_t kThreads = 4;
constexpr std::uint64_t kN = 256;

/// Every query the evaluation path makes of a trace, at every fold, in one
/// flat vector so runs can be compared exactly.
std::vector<double> query_all(const FoldTables& tables,
                              const LowerBoundFn& lower_bound) {
  const std::vector<double> sigmas{0.0, 1.0, 16.0};
  std::vector<double> out;
  for (unsigned log_p = 1; log_p <= tables.log_v(); ++log_p) {
    for (const double sigma : sigmas) {
      out.push_back(communication_complexity(tables, log_p, sigma));
    }
    out.push_back(wiseness_alpha(tables, log_p));
    const OptimalityReport report =
        certify_optimality(tables, kN, log_p, lower_bound, sigmas);
    out.push_back(report.alpha);
    out.push_back(report.gamma);
    out.push_back(report.beta_min);
    out.push_back(report.beta_at_p);
  }
  return out;
}

TEST(ConcurrentQueries, FirstQueriesOnFreshTraceAndReaderFromFourThreads) {
  const AlgoEntry& entry = AlgoRegistry::instance().at("sort");
  // Built twice: `reference` answers the expected values, so nothing has
  // queried `trace` or `reader` before the threads start.
  const Trace reference = entry.runner(kN, BackendKind::kCost);
  const Trace trace = entry.runner(kN, BackendKind::kCost);
  std::ostringstream bytes;
  write_trace_bin(bytes, reference);
  const TraceReader reader = TraceReader::from_bytes(bytes.str());

  std::vector<std::vector<double>> from_trace(kThreads);
  std::vector<std::vector<double>> from_reader(kThreads);
  std::latch start(static_cast<std::ptrdiff_t>(kThreads));
  {
    std::vector<std::jthread> threads;  // joined on leaving the block
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        from_trace[t] = query_all(trace, entry.lower_bound);
        from_reader[t] = query_all(reader, entry.lower_bound);
      });
    }
  }

  const std::vector<double> expected =
      query_all(reference, entry.lower_bound);
  ASSERT_FALSE(expected.empty());
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(from_trace[t], expected) << "thread " << t;
    EXPECT_EQ(from_reader[t], expected) << "thread " << t;
  }
}

}  // namespace
}  // namespace nobl
