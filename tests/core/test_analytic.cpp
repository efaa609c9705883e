// The analytic backend (core/analytic.hpp): closed-form synthesizers must
// reproduce the executed kernels' traces bit for bit, the trace memo must
// return exactly what fresh cost and record runs produce, H must agree
// across analytic / cost / simulate on every (kernel, n, fold, σ) cell, and
// the data-dependent kernel must be refused by the cache (while still being
// answerable through the cost fallback).
#include "core/analytic.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bsp/backend.hpp"
#include "bsp/cost.hpp"
#include "core/registry.hpp"

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

Trace run_backend(const AlgoEntry& entry, std::uint64_t n, BackendKind kind) {
  RunOptions options;
  options.backend = kind;
  return entry.runner(n, options);
}

TEST(Analytic, SynthesizersMatchExecutedTracesBitForBit) {
  // Every kernel carrying a closed-form synthesizer must produce, for every
  // admitted size in its sweeps, the exact superstep/degree/message trace
  // the cost interpreter derives by running the program.
  std::size_t synthesized = 0;
  for (const AlgoEntry& entry : AlgoRegistry::instance().entries()) {
    if (entry.analytic == nullptr) continue;
    std::vector<std::uint64_t> sizes = entry.smoke_sizes;
    sizes.insert(sizes.end(), entry.bench_sizes.begin(),
                 entry.bench_sizes.end());
    if (entry.admits(1)) sizes.push_back(1);
    for (const std::uint64_t n : sizes) {
      SCOPED_TRACE(entry.name + " n=" + std::to_string(n));
      expect_traces_identical(run_backend(entry, n, BackendKind::kCost),
                              entry.analytic(n));
      ++synthesized;
    }
  }
  EXPECT_GE(synthesized, 6u);  // at least one size per exact kernel
}

TEST(Analytic, HAgreesAcrossAnalyticCostSimulateEverywhere) {
  // Randomized (kernel, n, σ) sweep: the H surface — every fold, every σ —
  // must be bitwise-identical under analytic, cost, and simulate. This is
  // the `nobl check` conformance rule as a unit test, σ-randomized.
  std::mt19937_64 rng(20260807);
  std::uniform_real_distribution<double> sigma_dist(0.0, 8.0);
  AnalyticBackend::instance().clear();
  for (const AlgoEntry& entry : AlgoRegistry::instance().entries()) {
    std::uniform_int_distribution<std::size_t> pick(
        0, entry.smoke_sizes.size() - 1);
    const std::uint64_t n = entry.smoke_sizes[pick(rng)];
    SCOPED_TRACE(entry.name + " n=" + std::to_string(n));
    const Trace analytic = run_backend(entry, n, BackendKind::kAnalytic);
    const Trace cost = run_backend(entry, n, BackendKind::kCost);
    const Trace simulate = run_backend(entry, n, BackendKind::kSimulate);
    const std::vector<double> sigmas{0.0, 1.0, sigma_dist(rng),
                                     sigma_dist(rng)};
    for (unsigned log_p = 0; log_p <= analytic.log_v(); ++log_p) {
      for (const double sigma : sigmas) {
        const double h = communication_complexity(analytic, log_p, sigma);
        EXPECT_EQ(h, communication_complexity(cost, log_p, sigma))
            << "p=" << (1u << log_p) << " sigma=" << sigma;
        EXPECT_EQ(h, communication_complexity(simulate, log_p, sigma))
            << "p=" << (1u << log_p) << " sigma=" << sigma;
      }
    }
  }
}

TEST(Analytic, MemoizedTraceEqualsCostAndRecordForEveryMemoKernel) {
  // Every kernel on the memo tier (no closed form, input-independent): the
  // first query runs cost and fills the memo, the second is a pure hit, and
  // both are bit-identical to fresh cost and record runs.
  AnalyticBackend& backend = AnalyticBackend::instance();
  backend.clear();
  std::size_t memo_kernels = 0;
  for (const AlgoEntry& entry : AlgoRegistry::instance().entries()) {
    if (entry.analytic != nullptr || !entry.input_independent) continue;
    ++memo_kernels;
    const std::uint64_t n = entry.smoke_sizes.front();
    SCOPED_TRACE(entry.name + " n=" + std::to_string(n));
    const AnalyticBackend::Stats before = backend.stats();
    const Trace filled = backend.memoized_trace(entry, n);
    const Trace hit = backend.memoized_trace(entry, n);
    const AnalyticBackend::Stats after = backend.stats();
    EXPECT_EQ(after.memo_misses - before.memo_misses, 1u);
    EXPECT_EQ(after.memo_hits - before.memo_hits, 1u);
    const Trace cost = run_backend(entry, n, BackendKind::kCost);
    expect_traces_identical(cost, filled);
    expect_traces_identical(cost, hit);
    expect_traces_identical(run_backend(entry, n, BackendKind::kRecord), hit);
  }
  EXPECT_EQ(memo_kernels, 7u);
  EXPECT_EQ(backend.stats().symbolic, 0u);
  EXPECT_EQ(backend.stats().fallbacks, 0u);
}

TEST(Analytic, ConcurrentQueriesOfOneKeyAgreeWithCost) {
  // A fill runs outside the memo's lock, so threads racing on one key may
  // each miss and run cost; every one must return the cost trace, and once
  // the memo holds the key every later query is a hit.
  AnalyticBackend& backend = AnalyticBackend::instance();
  backend.clear();
  const AlgoEntry& fft = AlgoRegistry::instance().at("fft");
  const std::uint64_t n = fft.smoke_sizes.front();
  std::vector<Trace> results(4);
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < results.size(); ++i) {
      threads.emplace_back([&backend, &fft, &results, i, n] {
        results[i] = backend.memoized_trace(fft, n);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  const Trace cost = run_backend(fft, n, BackendKind::kCost);
  for (const Trace& trace : results) expect_traces_identical(cost, trace);
  const AnalyticBackend::Stats stats = backend.stats();
  EXPECT_EQ(stats.memo_hits + stats.memo_misses, results.size());
  EXPECT_GE(stats.memo_misses, 1u);
  expect_traces_identical(cost, backend.memoized_trace(fft, n));
  EXPECT_EQ(backend.stats().memo_hits, stats.memo_hits + 1);
}

TEST(Analytic, DataDependentKernelIsRefusedByTheMemo) {
  AnalyticBackend& backend = AnalyticBackend::instance();
  backend.clear();
  const AlgoEntry& samplesort = AlgoRegistry::instance().at("samplesort");
  ASSERT_FALSE(samplesort.input_independent);
  const std::uint64_t n = samplesort.smoke_sizes.front();
  // Caching a data-dependent schedule would pin one input's degrees — the
  // cache must refuse outright ...
  EXPECT_THROW((void)backend.memoized_trace(samplesort, n),
               std::invalid_argument);
  // ... but the analytic backend still answers, by running cost on every
  // query, with the exact executed trace.
  const Trace cost = run_backend(samplesort, n, BackendKind::kCost);
  expect_traces_identical(cost,
                          run_backend(samplesort, n, BackendKind::kAnalytic));
  expect_traces_identical(cost,
                          run_backend(samplesort, n, BackendKind::kAnalytic));
  EXPECT_EQ(backend.stats().fallbacks, 2u);
  EXPECT_EQ(backend.stats().memo_hits, 0u);
  EXPECT_EQ(backend.stats().memo_misses, 0u);
}

TEST(Analytic, StatsDistinguishTheThreeDispatchPaths) {
  AnalyticBackend& backend = AnalyticBackend::instance();
  backend.clear();
  const auto& registry = AlgoRegistry::instance();
  const AlgoEntry& scan = registry.at("scan");
  const AlgoEntry& fft = registry.at("fft");
  (void)run_backend(scan, scan.smoke_sizes.front(), BackendKind::kAnalytic);
  (void)run_backend(fft, fft.smoke_sizes.front(), BackendKind::kAnalytic);
  (void)run_backend(fft, fft.smoke_sizes.front(), BackendKind::kAnalytic);
  const AnalyticBackend::Stats stats = backend.stats();
  EXPECT_EQ(stats.symbolic, 1u);     // scan has a closed form
  EXPECT_EQ(stats.memo_misses, 1u);  // first fft query runs cost once
  EXPECT_EQ(stats.memo_hits, 1u);    // second fft query is a memo hit
  EXPECT_EQ(stats.fallbacks, 0u);
}

}  // namespace
}  // namespace nobl
