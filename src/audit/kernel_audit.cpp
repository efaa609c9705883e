#include "audit/kernel_audit.hpp"

#include <complex>
#include <cstdint>
#include <stdexcept>
#include <vector>

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
#include "audit/taint.hpp"
#include "core/workloads.hpp"
#include "util/bits.hpp"
#include "util/matrix.hpp"

namespace nobl::audit {
namespace {

/// Taint every element of a workload matrix at the injection boundary.
template <typename T>
Matrix<Tainted<T>> taint_matrix(const Matrix<T>& m) {
  Matrix<Tainted<T>> tracked(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      tracked(i, j) = source(m(i, j));
    }
  }
  return tracked;
}

/// Drive the kernel's program template, instantiated with tracked payloads
/// on the registry workload (same generators, same seeds — seed = n, the
/// registry runners' convention), under the audit backend. Name-keyed
/// because each kernel owns its workload and payload type; adding a kernel
/// without extending this dispatch fails audit_kernel loudly.
AuditReport taint_run(const std::string& name, std::uint64_t n) {
  using namespace workloads;
  if (name == "matmul") {
    const std::uint64_t m = sqrt_pow2(n);
    const auto a = taint_matrix(random_matrix(m, m));
    const auto b = taint_matrix(random_matrix(m, m + 1));
    AuditBackend bk(n);
    (void)matmul_program(bk, a, b, true);
    return bk.take_report();
  }
  if (name == "matmul-space") {
    const std::uint64_t m = sqrt_pow2(n);
    const auto a = taint_matrix(random_matrix(m, m));
    const auto b = taint_matrix(random_matrix(m, m + 1));
    AuditBackend bk(n);
    (void)matmul_space_program(bk, a, b, true);
    return bk.take_report();
  }
  if (name == "fft") {
    const auto signal = source_all(random_signal(n, n));
    AuditBackend bk(n);
    (void)fft_program(bk, signal, true);
    return bk.take_report();
  }
  if (name == "sort") {
    const auto keys = source_all(random_keys(n, n));
    AuditBackend bk(n);
    (void)sort_program(bk, keys, true);
    return bk.take_report();
  }
  if (name == "bitonic") {
    const auto keys = source_all(random_keys(n, n));
    AuditBackend bk(n);
    (void)bitonic_sort_program(bk, keys);
    return bk.take_report();
  }
  if (name == "stencil1") {
    const auto rod = source_all(random_rod(n, n));
    AuditBackend bk(n);
    (void)stencil1_program(bk, rod,
                           [](const auto& l, const auto& c, const auto& r) {
                             return 0.25 * l + 0.5 * c + 0.25 * r;
                           },
                           true, 0);
    return bk.take_report();
  }
  if (name == "stencil2") {
    // No input values reach the program: the schedule is a function of n
    // alone, so the taint pass runs the production template unchanged.
    AuditBackend bk(n * n);
    (void)stencil2_program(bk, n, true, 0);
    return bk.take_report();
  }
  if (name == "scan") {
    const auto addends = source_all(random_addends(n, n));
    AuditBackend bk(n);
    (void)scan_program(bk, addends);
    return bk.take_report();
  }
  if (name == "transpose") {
    const std::uint64_t m = sqrt_pow2(n);
    const auto a = taint_matrix(random_matrix(m, m));
    AuditBackend bk(n);
    (void)transpose_program(bk, a);
    return bk.take_report();
  }
  if (name == "samplesort") {
    const auto keys = source_all(random_keys(n, n));
    AuditBackend bk(n);
    (void)samplesort_program(bk, keys);
    return bk.take_report();
  }
  if (name == "broadcast") {
    AuditBackend bk(n);
    (void)broadcast_program(bk, 2, source(std::uint64_t{1}));
    return bk.take_report();
  }
  if (name == "reduce") {
    const auto addends = source_all(random_addends(n, n));
    AuditBackend bk(n);
    (void)reduce_program(bk, addends);
    return bk.take_report();
  }
  if (name == "gather") {
    const auto values = source_all(random_keys(n, n));
    AuditBackend bk(n);
    (void)gather_program(bk, values);
    return bk.take_report();
  }
  if (name == "shift") {
    const auto values = source_all(random_keys(n, n));
    AuditBackend bk(n);
    (void)shift_program(bk, values);
    return bk.take_report();
  }
  throw std::invalid_argument("audit: kernel \"" + name +
                              "\" has no taint instantiation — extend "
                              "src/audit/kernel_audit.cpp");
}

}  // namespace

KernelVerdict audit_kernel(const AlgoEntry& entry, std::uint64_t n) {
  if (n == 0) {
    if (entry.smoke_sizes.empty()) {
      throw std::invalid_argument("audit: kernel \"" + entry.name +
                                  "\" has no smoke sizes and no explicit n");
    }
    n = entry.smoke_sizes.front();
  }
  if (!entry.admits(n)) {
    throw std::invalid_argument(entry.inadmissible_message(n));
  }

  KernelVerdict verdict;
  verdict.name = entry.name;
  verdict.n = n;
  verdict.registry_input_independent = entry.input_independent;

  verdict.report = taint_run(entry.name, n);
  verdict.data_dependent = !verdict.report.oblivious();
  verdict.matches_registry =
      verdict.data_dependent == !entry.input_independent;

  const Trace trace = entry.runner(n, BackendKind::kCost);
  verdict.lint = lint_degree_structure(trace);
  merge_into(verdict.lint,
             lint_against_formulas(trace, n, entry.predicted, entry.lower_bound,
                                   entry.exact_h, entry.name));
  return verdict;
}

std::vector<KernelVerdict> audit_registry() {
  std::vector<KernelVerdict> verdicts;
  const auto& entries = AlgoRegistry::instance().entries();
  verdicts.reserve(entries.size());
  for (const AlgoEntry& entry : entries) {
    verdicts.push_back(audit_kernel(entry, 0));
  }
  return verdicts;
}

}  // namespace nobl::audit
