// Trace hot-path microbenchmarks: per-message degree accounting, sync-time
// CSR delivery, and the cached O(1) cost queries. Every paper metric is a
// pure function of the trace, so these three costs gate every experiment
// sweep in the suite.
//
// main() first prints a fast-vs-reference accumulator throughput table on
// dense all-to-all and matmul-shaped message storms (the acceptance
// workloads) and on a transpose-shaped permutation storm (one message per
// VP, where the sync's finalize dominates), then hands over to
// google-benchmark for messages/sec, finalize and certify-sweep latency
// timings.
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "bsp/degree_reference.hpp"
#include "bsp/machine.hpp"
#include "bsp/trace.hpp"
#include "core/lower_bounds.hpp"
#include "core/optimality.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace nobl {
namespace {

struct Storm {
  std::uint64_t src;
  std::uint64_t dst;
};

/// Dense all-to-all: every VP messages every VP (self-messages included) —
/// the densest 0-superstep M(v) can express, v² messages.
std::vector<Storm> dense_all_to_all(std::uint64_t v) {
  std::vector<Storm> msgs;
  msgs.reserve(v * v);
  for (std::uint64_t src = 0; src < v; ++src) {
    for (std::uint64_t dst = 0; dst < v; ++dst) {
      msgs.push_back(Storm{src, dst});
    }
  }
  return msgs;
}

/// Matmul-shaped storm: the §4.1 recursion's communication silhouette on the
/// √v × √v VP grid — every VP exchanges with its row (A replication) and its
/// column (C reduction) — without the arithmetic. 2·v·√v messages.
std::vector<Storm> matmul_storm(std::uint64_t v) {
  const std::uint64_t m = sqrt_pow2(v);
  std::vector<Storm> msgs;
  msgs.reserve(2 * v * m);
  for (std::uint64_t r = 0; r < v; ++r) {
    const std::uint64_t row = r / m;
    const std::uint64_t col = r % m;
    for (std::uint64_t k = 0; k < m; ++k) {
      msgs.push_back(Storm{r, row * m + k});
      msgs.push_back(Storm{r, k * m + col});
    }
  }
  return msgs;
}

/// Transpose-shaped permutation storm: every VP of the √v × √v grid sends
/// one message to its mirror across the diagonal — v messages that touch
/// every VP once, so the sync's finalize, not the counting, dominates.
std::vector<Storm> transpose_storm(std::uint64_t v) {
  const std::uint64_t m = sqrt_pow2(v);
  std::vector<Storm> msgs;
  msgs.reserve(v);
  for (std::uint64_t r = 0; r < v; ++r) {
    msgs.push_back(Storm{r, (r % m) * m + r / m});
  }
  return msgs;
}

template <typename Accumulator>
double messages_per_second(unsigned log_v, const std::vector<Storm>& msgs,
                           unsigned reps) {
  Accumulator acc(log_v);
  SuperstepRecord rec;
  rec.degree.assign(log_v + 1u, 0);
  const auto t0 = std::chrono::steady_clock::now();
  for (unsigned rep = 0; rep < reps; ++rep) {
    for (const Storm& s : msgs) acc.count(s.src, s.dst, 1);
    acc.finalize_into(rec);
    benchmark::DoNotOptimize(rec.degree.data());
  }
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  return static_cast<double>(msgs.size()) * reps / dt.count();
}

void storm_table(const std::string& title, const std::string& shape,
                 const std::vector<std::uint64_t>& sizes,
                 std::vector<Storm> (*storm)(std::uint64_t)) {
  Table t(title, {"v", "messages/superstep", "reference msg/s", "fast msg/s",
                  "speedup"});
  for (const std::uint64_t v : sizes) {
    const unsigned log_v = log2_exact(v);
    const auto msgs = storm(v);
    // Aim for a few million messages per measurement.
    const auto reps =
        static_cast<unsigned>(2'000'000 / msgs.size() + 1);
    // Warm both paths once so allocation noise stays out of the timing.
    (void)messages_per_second<ReferenceDegreeAccumulator>(log_v, msgs, 1);
    (void)messages_per_second<DegreeAccumulator>(log_v, msgs, 1);
    const double ref =
        messages_per_second<ReferenceDegreeAccumulator>(log_v, msgs, reps);
    const double fast =
        messages_per_second<DegreeAccumulator>(log_v, msgs, reps);
    t.row()
        .add(v)
        .add(static_cast<std::uint64_t>(msgs.size()))
        .add(ref)
        .add(fast)
        .add(fast / ref);
  }
  std::cout << "[" << shape << "]\n" << t;
}

/// A long synthetic trace for the query-latency benchmarks: labels and
/// degrees pseudo-random, shaped only by the append() invariants.
Trace synthetic_trace(unsigned log_v, std::size_t supersteps) {
  Trace t(log_v);
  Xoshiro256 rng(supersteps);
  for (std::size_t s = 0; s < supersteps; ++s) {
    SuperstepRecord r;
    r.label = static_cast<unsigned>(rng.below(log_v));
    r.degree.assign(log_v + 1u, 0);
    for (unsigned j = 1; j <= log_v; ++j) r.degree[j] = rng.below(1024);
    r.messages = rng.below(1 << 16);
    t.append(std::move(r));
  }
  return t;
}

void report() {
  benchx::banner(
      "Trace hot path: O(1)-per-message accounting vs fold-per-message "
      "reference");
  storm_table("dense all-to-all message storm", "dense all-to-all",
              {16, 64, 256}, dense_all_to_all);
  storm_table("matmul-shaped message storm (row + column exchange)",
              "matmul-shaped", {16, 64, 256, 1024}, matmul_storm);
  storm_table("transpose-shaped permutation storm (one message per VP)",
              "transpose-shaped", {std::uint64_t{1} << 16}, transpose_storm);

  benchx::banner("certify_optimality sweep latency on a long trace");
  Table t("certify sweep over folds x sigma grid",
          {"supersteps", "sweeps/s"});
  for (const std::size_t steps : {std::size_t{4096}, std::size_t{65536}}) {
    const Trace trace = synthetic_trace(10, steps);
    const std::array<double, 4> sigmas{0.0, 1.0, 8.0, 64.0};
    const auto t0 = std::chrono::steady_clock::now();
    constexpr unsigned kSweeps = 200;
    for (unsigned k = 0; k < kSweeps; ++k) {
      const auto rep =
          certify_optimality(trace, 1 << 20, 10, lb::sort, sigmas);
      benchmark::DoNotOptimize(rep.beta_min);
    }
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    t.row().add(static_cast<std::uint64_t>(steps)).add(kSweeps / dt.count());
  }
  std::cout << t;
}

template <typename Accumulator>
void BM_DegreeDenseAllToAll(benchmark::State& state) {
  const auto v = static_cast<std::uint64_t>(state.range(0));
  const unsigned log_v = log2_exact(v);
  const auto msgs = dense_all_to_all(v);
  Accumulator acc(log_v);
  SuperstepRecord rec;
  rec.degree.assign(log_v + 1u, 0);
  for (auto _ : state) {
    for (const Storm& s : msgs) acc.count(s.src, s.dst, 1);
    acc.finalize_into(rec);
    benchmark::DoNotOptimize(rec.degree.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(msgs.size()));
}
BENCHMARK_TEMPLATE(BM_DegreeDenseAllToAll, DegreeAccumulator)
    ->Arg(64)
    ->Arg(256);
BENCHMARK_TEMPLATE(BM_DegreeDenseAllToAll, ReferenceDegreeAccumulator)
    ->Arg(64)
    ->Arg(256);

template <typename Accumulator>
void BM_DegreeMatmulStorm(benchmark::State& state) {
  const auto v = static_cast<std::uint64_t>(state.range(0));
  const unsigned log_v = log2_exact(v);
  const auto msgs = matmul_storm(v);
  Accumulator acc(log_v);
  SuperstepRecord rec;
  rec.degree.assign(log_v + 1u, 0);
  for (auto _ : state) {
    for (const Storm& s : msgs) acc.count(s.src, s.dst, 1);
    acc.finalize_into(rec);
    benchmark::DoNotOptimize(rec.degree.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(msgs.size()));
}
BENCHMARK_TEMPLATE(BM_DegreeMatmulStorm, DegreeAccumulator)->Arg(64)->Arg(1024);
BENCHMARK_TEMPLATE(BM_DegreeMatmulStorm, ReferenceDegreeAccumulator)
    ->Arg(64)
    ->Arg(1024);

/// The sync alone on the transpose storm: each iteration counts the storm
/// untimed, then times the finalize_into that turns it into the degree
/// vector.
template <typename Accumulator>
void BM_FinalizeTransposeStorm(benchmark::State& state) {
  const auto v = static_cast<std::uint64_t>(state.range(0));
  const unsigned log_v = log2_exact(v);
  const auto msgs = transpose_storm(v);
  Accumulator acc(log_v);
  SuperstepRecord rec;
  rec.degree.assign(log_v + 1u, 0);
  for (auto _ : state) {
    for (const Storm& s : msgs) acc.count(s.src, s.dst, 1);
    const auto t0 = std::chrono::steady_clock::now();
    acc.finalize_into(rec);
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    benchmark::DoNotOptimize(rec.degree.data());
    benchmark::ClobberMemory();
    state.SetIterationTime(dt.count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(v));
}
BENCHMARK_TEMPLATE(BM_FinalizeTransposeStorm, DegreeAccumulator)
    ->Arg(1 << 16)
    ->UseManualTime();
BENCHMARK_TEMPLATE(BM_FinalizeTransposeStorm, ReferenceDegreeAccumulator)
    ->Arg(1 << 16)
    ->UseManualTime();

/// Full-engine storm: accounting + cluster checks + CSR delivery at the sync.
void BM_MachineDenseAllToAll(benchmark::State& state) {
  const auto v = static_cast<std::uint64_t>(state.range(0));
  constexpr unsigned kSupersteps = 4;
  for (auto _ : state) {
    Machine<int> machine(v, benchx::engine());
    for (unsigned s = 0; s < kSupersteps; ++s) {
      machine.superstep(0, [v](Vp<int>& vp) {
        for (std::uint64_t dst = 0; dst < v; ++dst) {
          vp.send(dst, static_cast<int>(vp.id()));
        }
      });
    }
    benchmark::DoNotOptimize(machine.trace().total_messages());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSupersteps * static_cast<std::int64_t>(v * v));
}
BENCHMARK(BM_MachineDenseAllToAll)->Arg(64)->Arg(256);

/// Query latency: certify_optimality's fold × σ sweep against the cached
/// cumulative tables (first sweep builds the cache, the rest are O(1) reads).
void BM_CertifySweep(benchmark::State& state) {
  const Trace trace =
      synthetic_trace(10, static_cast<std::size_t>(state.range(0)));
  const std::array<double, 4> sigmas{0.0, 1.0, 8.0, 64.0};
  for (auto _ : state) {
    const auto report =
        certify_optimality(trace, 1 << 20, 10, lb::sort, sigmas);
    benchmark::DoNotOptimize(report.beta_min);
  }
}
BENCHMARK(BM_CertifySweep)->Arg(4096)->Arg(65536);

}  // namespace
}  // namespace nobl

int main(int argc, char** argv) {
  nobl::report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
