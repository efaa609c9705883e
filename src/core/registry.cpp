#include "core/registry.hpp"

#include <algorithm>
#include <complex>
#include <stdexcept>
#include <utility>

#include "algorithms/bitonic.hpp"
#include "algorithms/broadcast.hpp"
#include "algorithms/fft.hpp"
#include "algorithms/matmul.hpp"
#include "algorithms/matmul_space.hpp"
#include "algorithms/primitives.hpp"
#include "algorithms/samplesort.hpp"
#include "algorithms/scan.hpp"
#include "algorithms/sort.hpp"
#include "algorithms/stencil1d.hpp"
#include "algorithms/stencil2d.hpp"
#include "algorithms/transpose.hpp"
#include "core/analytic.hpp"
#include "core/lower_bounds.hpp"
#include "core/predictions.hpp"
#include "core/workloads.hpp"
#include "util/bits.hpp"

namespace nobl {
namespace {

bool pow2_size(std::uint64_t n) { return is_pow2(n); }

bool pow2_size_ge2(std::uint64_t n) { return is_pow2(n) && n >= 2; }

/// n must be m² for a power-of-two side m (matrix element count).
bool square_pow2_size(std::uint64_t n) {
  return is_pow2(n) && log2_exact(n) % 2 == 0;
}

}  // namespace

bool AlgoEntry::supports(BackendKind kind) const {
  return std::find(backends.begin(), backends.end(), kind) != backends.end();
}

std::uint64_t AlgoEntry::nearest_admissible(std::uint64_t n) const {
  std::uint64_t best = 0;
  auto distance = [n](std::uint64_t candidate) {
    return candidate > n ? candidate - n : n - candidate;
  };
  for (std::uint64_t candidate = 1; candidate <= max_sweep_size;
       candidate *= 2) {
    if (admits(candidate) &&
        (best == 0 || distance(candidate) < distance(best))) {
      best = candidate;
    }
  }
  return best;
}

std::string AlgoEntry::inadmissible_message(std::uint64_t n) const {
  std::string message = name + ": n = " + std::to_string(n) +
                        " is inadmissible (" + size_rule;
  const std::uint64_t nearest = nearest_admissible(n);
  if (nearest != 0) {
    message += "; nearest admissible n = " + std::to_string(nearest);
  }
  message += ")";
  return message;
}

const AlgoRegistry& AlgoRegistry::instance() {
  static const AlgoRegistry registry;
  return registry;
}

const AlgoEntry* AlgoRegistry::find(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

const AlgoEntry& AlgoRegistry::at(const std::string& name) const {
  const AlgoEntry* e = find(name);
  if (e != nullptr) return *e;
  std::string known;
  for (const auto& entry : entries_) {
    if (!known.empty()) known += ", ";
    known += entry.name;
  }
  throw std::invalid_argument("unknown algorithm \"" + name +
                              "\" (known: " + known + ")");
}

void AlgoRegistry::add(AlgoEntry entry) {
  // Uniform admissibility gate in front of every runner: an inadmissible n
  // (or unsupported backend) fails with the actionable registry message —
  // offending n, size rule, nearest admissible size — instead of the
  // kernel's bare invariant string.
  PolicyRunner raw = std::move(entry.runner);
  const std::size_t index = entries_.size();
  entry.runner = [this, index, raw = std::move(raw)](
                     std::uint64_t n, const RunOptions& options) {
    const AlgoEntry& self = entries_[index];
    if (!self.admits(n)) {
      throw std::invalid_argument(self.inadmissible_message(n));
    }
    if (!self.supports(options.backend)) {
      throw std::invalid_argument(self.name + ": backend \"" +
                                  to_string(options.backend) +
                                  "\" is not supported by this kernel");
    }
    if (options.backend == BackendKind::kAnalytic) {
      // The analytic path: closed form, or a cost run memoized per
      // (kernel, n) — the program itself never interprets kAnalytic.
      return analytic_trace(self, n);
    }
    return raw(n, options);
  };
  entries_.push_back(std::move(entry));
}

AlgoRegistry::AlgoRegistry() {
  using namespace workloads;

  add({.name = "matmul",
       .summary = "semiring matrix multiplication, Theta(n^{1/3}) memory",
       .source = "Thm 4.2",
       .size_rule = "n = m^2 elements, m a power of two",
       .runner =
           [](std::uint64_t n, const RunOptions& options) {
             const std::uint64_t m = sqrt_pow2(n);
             const auto a = random_matrix(m, m);
             const auto b = random_matrix(m, m + 1);
             return run_for_trace<mm_detail::Msg<long>>(
                 n, options,
                 [&](auto& bk) { (void)matmul_program(bk, a, b, true); });
           },
       .predicted = predict::matmul,
       .lower_bound = lb::matmul,
       .bench_sizes = {64, 4096, 16384},
       .smoke_sizes = {64, 1024},
       .pattern = "recursive 8-way block replication",
       .formula = "O(n/p^{2/3} + sigma log p)",
       .header = "src/algorithms/matmul.hpp",
       .validate = square_pow2_size,
       .max_sweep_size = std::uint64_t{1} << 18});

  add({.name = "matmul-space",
       .summary = "space-efficient matrix multiplication, O(1) extra memory",
       .source = "Sec 4.1.1",
       .size_rule = "n = m^2 elements, m a power of two",
       .runner =
           [](std::uint64_t n, const RunOptions& options) {
             const std::uint64_t m = sqrt_pow2(n);
             const auto a = random_matrix(m, m);
             const auto b = random_matrix(m, m + 1);
             return run_for_trace<mms_detail::Msg<long>>(
                 n, options,
                 [&](auto& bk) { (void)matmul_space_program(bk, a, b, true); });
           },
       .predicted = predict::matmul_space,
       .lower_bound = lb::matmul_space,
       .bench_sizes = {64, 1024, 4096},
       .smoke_sizes = {64, 1024},
       .pattern = "O(1)-memory block schedule",
       .formula = "O(n/sqrt(p) + sigma sqrt(p))",
       .header = "src/algorithms/matmul_space.hpp",
       .validate = square_pow2_size,
       .max_sweep_size = std::uint64_t{1} << 18});

  add({.name = "fft",
       .summary = "network-oblivious FFT on the butterfly DAG",
       .source = "Thm 4.5",
       .size_rule = "n a power of two",
       .runner =
           [](std::uint64_t n, const RunOptions& options) {
             const auto signal = random_signal(n, n);
             return run_for_trace<std::complex<double>>(
                 n, options,
                 [&](auto& bk) { (void)fft_program(bk, signal, true); });
           },
       .predicted = predict::fft,
       .lower_bound = lb::fft,
       .bench_sizes = {64, 1024, 16384},
       .smoke_sizes = {64, 1024},
       .pattern = "butterfly DAG via recursive transposes",
       .formula = "O((n/p + sigma) log n / log(n/p))",
       .header = "src/algorithms/fft.hpp",
       .validate = pow2_size});

  add({.name = "sort",
       .summary = "recursive Columnsort",
       .source = "Thm 4.8",
       .size_rule = "n a power of two",
       .runner =
           [](std::uint64_t n, const RunOptions& options) {
             const auto keys = random_keys(n, n);
             return run_for_trace<std::uint64_t>(
                 n, options,
                 [&](auto& bk) { (void)sort_program(bk, keys, true); });
           },
       .predicted = predict::sort,
       .lower_bound = lb::sort,
       .bench_sizes = {64, 1024, 4096},
       .smoke_sizes = {64, 256},
       .pattern = "recursive Columnsort, 8 phases",
       .formula = "O((n/p + sigma) (log n / log(n/p))^{log_{3/2} 4})",
       .header = "src/algorithms/sort.hpp",
       .validate = pow2_size,
       .max_sweep_size = std::uint64_t{1} << 20});

  add({.name = "bitonic",
       .summary = "Batcher's bitonic sorting network (ablation baseline)",
       .source = "Sec 4.3",
       .size_rule = "n a power of two",
       .runner =
           [](std::uint64_t n, const RunOptions& options) {
             const auto keys = random_keys(n, n);
             return run_for_trace<std::uint64_t>(
                 n, options,
                 [&](auto& bk) { (void)bitonic_sort_program(bk, keys); });
           },
       .predicted = bitonic_predicted,
       .lower_bound = lb::sort,
       .bench_sizes = {64, 1024, 4096},
       .smoke_sizes = {64, 256},
       .pattern = "fixed compare-exchange network",
       .formula = "Theta((n/p + sigma) * crossing stages)",
       .header = "src/algorithms/bitonic.hpp",
       .validate = pow2_size,
       .max_sweep_size = std::uint64_t{1} << 20});

  add({.name = "stencil1",
       .summary = "(n,1)-stencil diamond decomposition",
       .source = "Thm 4.11",
       .size_rule = "rod length n, a power of two",
       .runner =
           [](std::uint64_t n, const RunOptions& options) {
             const auto rod = random_rod(n, n);
             return run_for_trace<double>(n, options, [&](auto& bk) {
               (void)stencil1_program(bk, rod, heat_rule, true, 0);
             });
           },
       .predicted = predict::stencil1,
       .lower_bound =
           [](std::uint64_t n, std::uint64_t p, double sigma) {
             return lb::stencil(n, 1, p, sigma);
           },
       .bench_sizes = {64, 256, 1024},
       .smoke_sizes = {64, 256},
       .pattern = "1-D diamond decomposition",
       .formula = "O(n 4^{sqrt(log n)}) for sigma = O(n/p)",
       .header = "src/algorithms/stencil1d.hpp",
       .validate = pow2_size,
       .max_sweep_size = std::uint64_t{1} << 13});

  add({.name = "stencil2",
       .summary = "(n,2)-stencil schedule on M(n^2) (cost-faithful)",
       .source = "Thm 4.13",
       .size_rule = "grid side n, a power of two >= 2 (v = n^2)",
       .runner =
           [](std::uint64_t n, const RunOptions& options) {
             return run_for_trace<std::uint8_t>(
                 n * n, options,
                 [&](auto& bk) { (void)stencil2_program(bk, n, true, 0); });
           },
       .predicted = predict::stencil2,
       .lower_bound =
           [](std::uint64_t n, std::uint64_t p, double sigma) {
             return lb::stencil(n, 2, p, sigma);
           },
       .bench_sizes = {16, 64, 128},
       .smoke_sizes = {16},
       .pattern = "2-D diamond slabs on M(n^2)",
       .formula = "O((n^2/sqrt(p)) 8^{sqrt(log n)})",
       .header = "src/algorithms/stencil2d.hpp",
       .validate = pow2_size_ge2,
       .max_sweep_size = std::uint64_t{1} << 10});

  add({.name = "scan",
       .summary = "two-sweep tree prefix-scan (tree-reduction pattern)",
       .source = "Sec 4.5 dual / Sec 5",
       .size_rule = "n a power of two",
       .runner =
           [](std::uint64_t n, const RunOptions& options) {
             const auto addends = random_addends(n, n);
             return run_for_trace<std::uint64_t>(
                 n, options,
                 [&](auto& bk) { (void)scan_program(bk, addends); });
           },
       .predicted = predict::scan,
       .lower_bound =
           [](std::uint64_t, std::uint64_t p, double sigma) {
             return lb::scan(p, sigma);
           },
       .bench_sizes = {64, 1024, 16384},
       .smoke_sizes = {64, 1024},
       .pattern = "two-sweep reduction tree",
       .formula = "2 log p (1 + sigma)",
       .header = "src/algorithms/scan.hpp",
       .exact_h = true,
       .analytic = analytic::scan_trace,
       .validate = pow2_size});

  add({.name = "transpose",
       .summary = "recursive block matrix transposition (all-to-all pattern)",
       .source = "Sec 4.2 building block",
       .size_rule = "n = m^2 elements, m a power of two",
       .runner =
           [](std::uint64_t n, const RunOptions& options) {
             const std::uint64_t m = sqrt_pow2(n);
             const auto a = random_matrix(m, m);
             return run_for_trace<long>(
                 n, options,
                 [&](auto& bk) { (void)transpose_program(bk, a); });
           },
       .predicted = predict::transpose,
       .lower_bound = lb::transpose,
       .bench_sizes = {64, 4096, 16384},
       .smoke_sizes = {64, 1024},
       .pattern = "recursive quadrant swaps (all-to-all permutation)",
       .formula = "(n/p)(1 - 1/p) + sigma log p for p <= sqrt(n)",
       .header = "src/algorithms/transpose.hpp",
       .exact_h = true,
       .analytic = analytic::transpose_trace,
       .validate = square_pow2_size});

  add({.name = "samplesort",
       .summary = "splitter-based sample-sort (data-dependent routing)",
       .source = "Sec 4.3 ablation",
       .size_rule = "n a power of two",
       .runner =
           [](std::uint64_t n, const RunOptions& options) {
             const auto keys = random_keys(n, n);
             return run_for_trace<std::uint64_t>(
                 n, options,
                 [&](auto& bk) { (void)samplesort_program(bk, keys); });
           },
       .predicted = predict::samplesort,
       .lower_bound = lb::sort,
       .bench_sizes = {64, 1024, 4096},
       .smoke_sizes = {64, 256},
       .pattern = "data-dependent splitter routing",
       .formula = "~ 2n/p + (sqrt(n) - 1 + sigma) log p",
       .header = "src/algorithms/samplesort.hpp",
       .input_independent = false,
       .validate = pow2_size,
       .max_sweep_size = std::uint64_t{1} << 16});

  add({.name = "broadcast",
       .summary = "network-oblivious binary-tree broadcast (fanout 2)",
       .source = "Sec 4.5 / Thm 4.16",
       .size_rule = "n = v processors, a power of two",
       .runner =
           [](std::uint64_t n, const RunOptions& options) {
             return run_for_trace<std::uint64_t>(
                 n, options,
                 [&](auto& bk) {
                   (void)broadcast_program(bk, 2, std::uint64_t{1});
                 });
           },
       .predicted =
           [](std::uint64_t, std::uint64_t p, double sigma) {
             return predict::broadcast_oblivious(p, sigma, 2);
           },
       .lower_bound =
           [](std::uint64_t, std::uint64_t p, double sigma) {
             return lb::broadcast(p, sigma);
           },
       .bench_sizes = {64, 1024, 4096},
       .smoke_sizes = {64, 1024},
       .pattern = "fixed-fanout tree (kappa = 2)",
       .formula = "(kappa - 1 + sigma) log_kappa p",
       .header = "src/algorithms/broadcast.hpp",
       .exact_h = true,
       .analytic = analytic::broadcast_trace,
       .validate = pow2_size});

  add({.name = "reduce",
       .summary = "full-machine tree reduction (scan's upsweep, exact H)",
       .source = "Sec 4.5 dual",
       .size_rule = "n a power of two",
       .runner =
           [](std::uint64_t n, const RunOptions& options) {
             const auto addends = random_addends(n, n);
             return run_for_trace<std::uint64_t>(
                 n, options,
                 [&](auto& bk) { (void)reduce_program(bk, addends); });
           },
       .predicted = predict::reduce,
       .lower_bound =
           [](std::uint64_t, std::uint64_t p, double sigma) {
             return lb::reduce(p, sigma);
           },
       .bench_sizes = {64, 1024, 16384},
       .smoke_sizes = {64, 1024},
       .pattern = "full-machine reduction tree",
       .formula = "log p (1 + sigma)",
       .header = "src/algorithms/primitives.hpp",
       .exact_h = true,
       .analytic = analytic::reduce_trace,
       .validate = pow2_size});

  add({.name = "gather",
       .summary = "flat gather at VP 0 (maximally unbalanced, exact H)",
       .source = "Sec 4.5 counterpoint",
       .size_rule = "n a power of two",
       .runner =
           [](std::uint64_t n, const RunOptions& options) {
             const auto values = random_keys(n, n);
             return run_for_trace<std::uint64_t>(
                 n, options,
                 [&](auto& bk) { (void)gather_program(bk, values); });
           },
       .predicted = predict::gather,
       .lower_bound = lb::gather,
       .bench_sizes = {64, 4096, 65536},
       .smoke_sizes = {64, 1024},
       .pattern = "flat gather at VP 0",
       .formula = "n(1 - 1/p) + sigma",
       .header = "src/algorithms/primitives.hpp",
       .exact_h = true,
       .analytic = analytic::gather_trace,
       .validate = pow2_size});

  add({.name = "shift",
       .summary = "cyclic n/2-shift (maximally balanced all-cross, exact H)",
       .source = "Sec 2 folding",
       .size_rule = "n a power of two",
       .runner =
           [](std::uint64_t n, const RunOptions& options) {
             const auto values = random_keys(n, n);
             return run_for_trace<std::uint64_t>(
                 n, options,
                 [&](auto& bk) { (void)shift_program(bk, values); });
           },
       .predicted = predict::shift,
       .lower_bound = lb::shift,
       .bench_sizes = {64, 4096, 65536},
       .smoke_sizes = {64, 1024},
       .pattern = "cyclic n/2-shift (all-cross permutation)",
       .formula = "n/p + sigma",
       .header = "src/algorithms/primitives.hpp",
       .exact_h = true,
       .analytic = analytic::shift_trace,
       .validate = pow2_size});
}

}  // namespace nobl
