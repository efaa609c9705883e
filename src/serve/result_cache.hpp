// Two-tier content-addressed result cache for `nobl serve`.
//
// The cache unit is the fold sums (FoldTables, bsp/trace.hpp) of one
// (kernel, n, backend) cell's trace — the strongest possible dedupe for
// cost queries: they answer every (fold, σ) cell of every request (H, α,
// γ, certification), so caching one entry subsumes the whole
// (kernel, n, σ, backend) query family, in O(log² v) words however many
// supersteps the kernel ran. Engines are deliberately NOT part of the key:
// traces are engine-invariant (pinned by
// tests/bsp/test_engine_equivalence.cpp), so a `par:2` cell is served from
// the tables a `seq` cell recorded.
//
// Tier 1 — in-memory LRU of immutable FoldTables behind shared_ptr<const>:
//   a hit hands the shared entry to evaluation, which only reads it, so no
//   hit copies it and concurrent hits need no lock beyond the LRU's
//   (eviction is by entry count, the operator knob `--memory-entries`).
// Tier 2 — a directory of `.nbt` files in the binary columnar trace
//   format (bsp/trace_store.hpp), one per key, named content-addressed:
//
//     <kernel>_n<N>_<backend>-<fnv1a64(key) as 16 hex digits>.nbt
//
//   A hit on a cold restart indexes the file through TraceReader (every
//   block CRC re-verified) and keeps the reader's tables, instead of
//   re-executing the kernel; a corrupt or truncated file is treated as a
//   miss and transparently re-written. Stores are atomic and durable
//   (unique pid+sequence temp name, fsync, then rename), so a crashed
//   server never leaves a half-written cache entry behind and concurrent
//   writers never clobber each other's temp files.
//
// Concurrent identical cells are single-flighted: the first caller
// computes, every other caller blocks on the in-flight entry and is
// counted as `coalesced` — under a thundering herd of identical queries
// the kernel executes exactly once.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <string>

#include "bsp/backend.hpp"
#include "bsp/trace.hpp"

namespace nobl::serve {

/// Cache identity of one cell. σ and the engine are evaluation-time
/// parameters of the cached tables, not part of the key (see file comment).
struct CacheKey {
  std::string kernel;
  std::uint64_t n = 0;
  BackendKind backend = BackendKind::kSimulate;

  /// Canonical key string, e.g. "fft|1024|analytic".
  [[nodiscard]] std::string string_key() const;
  /// Content address: FNV-1a 64 of string_key() as 16 lowercase hex digits.
  [[nodiscard]] std::string content_hash() const;
  /// Disk-tier file name, e.g. "fft_n1024_analytic-9f2c...47.nbt".
  [[nodiscard]] std::string file_name() const;
};

/// Which tier answered a cell.
enum class CacheTier : std::uint8_t {
  kMemory,     ///< in-memory LRU hit
  kDisk,       ///< .nbt replay through TraceReader
  kExecuted,   ///< miss in both tiers: the kernel ran
  kCoalesced,  ///< waited on an identical in-flight cell
};

/// "memory" | "disk" | "executed" | "coalesced".
[[nodiscard]] std::string to_string(CacheTier tier);

class ResultCache {
 public:
  struct Config {
    /// Disk-tier directory; empty disables the persistent tier. Created
    /// (recursively) when missing.
    std::string disk_dir;
    /// In-memory LRU capacity in entries (>= 1).
    std::size_t memory_entries = 64;
  };

  struct Counters {
    std::uint64_t memory_hits = 0;
    std::uint64_t disk_hits = 0;
    std::uint64_t executed = 0;
    std::uint64_t coalesced = 0;
  };

  explicit ResultCache(Config config);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Return the fold tables for `key`, from the memory tier, the disk tier,
  /// a coalesced in-flight computation, or by invoking `compute` (in that
  /// order; a computed trace is stored to the disk tier whole, then cached
  /// as its tables). Thread-safe; `compute` runs outside the cache lock.
  /// `tier` (when non-null) reports which path answered. Exceptions from
  /// `compute` propagate to every coalesced waiter as well as the caller.
  [[nodiscard]] std::shared_ptr<const FoldTables> get_or_compute(
      const CacheKey& key, const std::function<Trace()>& compute,
      CacheTier* tier = nullptr);

  [[nodiscard]] Counters counters() const;
  [[nodiscard]] std::size_t memory_entries() const;
  [[nodiscard]] std::size_t memory_capacity() const noexcept {
    return capacity_;
  }
  /// .nbt entries in the disk tier (counted at startup, maintained on
  /// store); 0 when the disk tier is disabled.
  [[nodiscard]] std::size_t disk_entries() const;

 private:
  struct Flight {
    bool done = false;
  };

  /// Try the disk tier; empty shared_ptr on miss or unreadable file.
  [[nodiscard]] std::shared_ptr<const FoldTables> load_from_disk(
      const CacheKey& key) const;
  void store_to_disk(const CacheKey& key, const Trace& trace);
  /// Insert into the LRU under the lock, evicting the tail beyond capacity.
  void insert_locked(const std::string& key,
                     std::shared_ptr<const FoldTables> tables);

  std::string disk_dir_;  ///< empty = disk tier disabled
  std::size_t capacity_;

  mutable std::mutex mutex_;
  std::condition_variable flight_cv_;
  /// LRU: most-recent first; map values point into the list.
  std::list<std::string> order_;
  struct Entry {
    std::list<std::string>::iterator position;
    std::shared_ptr<const FoldTables> tables;
  };
  std::map<std::string, Entry> entries_;
  std::map<std::string, std::shared_ptr<Flight>> flights_;
  Counters counters_;
  std::size_t disk_entries_ = 0;
};

}  // namespace nobl::serve
