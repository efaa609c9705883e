// Campaigns: programmable experiment sweeps over the algorithm registry.
//
// A campaign names a set of algorithms (each with a size sweep), a backend
// matrix (simulate / cost / record / analytic, see bsp/backend.hpp and
// core/analytic.hpp), an engine matrix,
// a fold range and a σ grid. `run_campaign` executes every (algorithm, n,
// backend, engine) cell once and evaluates the full metric surface from the
// recorded trace:
//
//   * H measured vs predicted vs lower bound at every fold × σ,
//   * wiseness α / fullness γ at every fold (Defs. 3.2 / 5.2),
//   * the Theorem 3.4 certification (α, γ, β_min, guarantee) at the top
//     fold.
//
// Results render as text tables or as schema-versioned JSON that
// `nobl check` (and CI) can validate and threshold. Specs are either
// builtin (`builtin_campaign`) or parsed from a small line-oriented file
// format (`parse_campaign_spec`); parse errors carry line/column positions.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "bsp/backend.hpp"
#include "bsp/execution.hpp"
#include "bsp/trace.hpp"
#include "core/optimality.hpp"
#include "core/registry.hpp"
#include "util/json.hpp"

namespace nobl {

/// Version stamped into every result document; `nobl check` rejects
/// documents with a different major version.
inline constexpr int kResultSchemaVersion = 1;

/// One algorithm plus the input sizes to sweep.
struct AlgoSweep {
  std::string algorithm;
  std::vector<std::uint64_t> sizes;
};

struct CampaignSpec {
  std::string name;
  std::vector<AlgoSweep> sweeps;
  std::vector<ExecutionPolicy> engines = {ExecutionPolicy::sequential()};
  /// Backends to run every sweep under. Non-simulating backends ignore the
  /// engine matrix (their driver is always sequential), so they execute
  /// once per (algorithm, n) instead of once per engine.
  std::vector<BackendKind> backends = {BackendKind::kSimulate};
  /// Cap on the fold sweep (folds run 2..min(max_fold, v)); 0 = up to v.
  std::uint64_t max_fold = 0;
  /// Explicit σ grid; empty = the standard grid {0, 1, √(n/p), n/p}.
  std::vector<double> sigmas;
};

/// Parse the line-oriented campaign format:
///
///   # comment
///   name = nightly
///   algorithms = matmul:64:4096, fft, sort:256     (bare name = smoke sizes)
///   engines = seq, par:2                           (default: seq)
///   backends = simulate, cost, analytic, ...       (default: simulate)
///   sigmas = 0, 1, 4.5                             (default: auto grid)
///   max_fold = 64                                  (default: all folds)
///
/// Throws std::invalid_argument with "line L, column C" position info on
/// unknown keys, unknown algorithms, empty sweeps, or malformed numbers.
[[nodiscard]] CampaignSpec parse_campaign_spec(std::string_view text);

/// Builtin campaigns: "ci-smoke" (4 algorithms × {seq, par:2}, small sizes),
/// "golden" (tiny sweep pinned by tests/golden/), "bench" (the full
/// bench-binary sweeps, sequential), "conformance" (every kernel at its
/// smallest smoke size — the cross-backend bit-identity matrix). Throws
/// std::invalid_argument listing the known names on a miss.
[[nodiscard]] CampaignSpec builtin_campaign(const std::string& name);
[[nodiscard]] std::vector<std::string> builtin_campaign_names();

/// One (fold, σ) evaluation cell.
struct CellResult {
  std::uint64_t p = 0;
  double sigma = 0.0;
  double h = 0.0;
  double predicted = 0.0;
  double lower_bound = 0.0;
  double ratio_predicted = 0.0;  ///< h / predicted (0 when predicted == 0)
  double ratio_lb = 0.0;         ///< h / lower_bound (0 when lb == 0)
};

/// Per-fold wiseness/fullness measurements.
struct FoldResult {
  std::uint64_t p = 0;
  double alpha = 0.0;
  double gamma = 0.0;
};

/// Everything measured for one (algorithm, n, engine) run.
struct RunResult {
  std::string algorithm;
  std::string engine;  ///< to_string(policy): "seq" or "par:N"
  /// to_string(kind): "simulate" | "cost" | "record" | "analytic"
  std::string backend;
  std::uint64_t n = 0;
  std::vector<CellResult> cells;
  std::vector<FoldResult> folds;
  OptimalityReport certification;  ///< at the top swept fold
  /// The run's fold sums: log_v, supersteps, messages and every cost query.
  FoldTables tables;
};

struct CampaignResult {
  CampaignSpec spec;
  std::vector<RunResult> runs;
};

/// Execute the campaign. Progress lines ("algorithm n engine") go to
/// `progress` when non-null (the CLI passes stderr so --json stays clean).
[[nodiscard]] CampaignResult run_campaign(const CampaignSpec& spec,
                                          std::ostream* progress = nullptr);

/// Evaluate the full metric surface (cells, folds, certification) of one
/// already-executed (algorithm, n, backend, engine) cell from its trace's
/// fold sums. This is the execution-free half of a campaign run: `nobl
/// serve` calls it on cached tables so a served cell is byte-identical to a
/// fresh `run_campaign` cell by construction (same code path, same sums).
[[nodiscard]] RunResult evaluate_run(const CampaignSpec& spec,
                                     const AlgoEntry& entry, std::uint64_t n,
                                     BackendKind backend,
                                     const ExecutionPolicy& policy,
                                     const FoldTables& tables);

/// Serialize `spec` back to the line-oriented campaign grammar, such that
/// parse_campaign_spec(rendered) reproduces the spec. Used by the serve
/// client (builtin campaigns travel over the wire as text) and pinned by a
/// round-trip test.
void write_campaign_spec(std::ostream& os, const CampaignSpec& spec);

/// Serialize one run as the result-document "runs" entry. write_campaign_json
/// delegates here; `nobl serve` streams the identical object per completed
/// cell, so served and batch-run documents agree field for field.
void write_run_json(JsonWriter& w, const RunResult& run);

/// Serialize as the schema-versioned result document (see kResultSchemaVersion
/// and docs in bench/README.md).
void write_campaign_json(std::ostream& os, const CampaignResult& result);

/// Human-readable rendering: one H table + one wiseness table per
/// (algorithm, engine), mirroring the bench binaries.
void print_campaign_text(std::ostream& os, const CampaignResult& result);

/// Structural validation of a result document: schema version, required
/// keys, cell shape, and cross-engine/cross-backend conformance (runs of
/// the same algorithm and n must report identical H cells under every
/// engine AND every backend — the bit-identical guarantee of the Program
/// API, checked end to end). Returns human-readable violations; empty =
/// valid.
[[nodiscard]] std::vector<std::string> validate_campaign_json(
    const JsonValue& doc);

/// Machine-readable registry dump for `nobl list --json`: schema version,
/// every AlgoEntry (name, summary, source, size_rule, pattern, formula,
/// header, exact_h, input_independent, bench/smoke sweeps, max_sweep_size,
/// supported backends) and the builtin campaign names. docs/KERNELS.md is
/// generated from this document by scripts/gen_kernels_md.py; CI fails when
/// the committed file drifts.
void write_registry_json(std::ostream& os);

/// Threshold gate for CI. The thresholds document looks like:
///
///   {"schema_version": 1,
///    "algorithms": {"matmul": {"max_ratio_lb": 4.0, "min_alpha": 0.5,
///                              "min_guarantee": 0.1}, ...}}
///
/// For each listed algorithm, every run's worst H/LB cell must stay at or
/// under max_ratio_lb, and the certification α / guarantee must stay at or
/// above the minima. Returns violations; empty = pass.
[[nodiscard]] std::vector<std::string> check_thresholds(
    const JsonValue& results, const JsonValue& thresholds);

}  // namespace nobl
