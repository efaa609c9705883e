// Binary columnar trace store: the one block layout shared by backends,
// goldens, the CLI and the analytic cache.
//
// The paper makes traces the central artifact — H, D, wiseness and
// optimality are pure functions of the per-superstep fold-degree trace
// (Eq. 1–2) — so the store is built around exactly that shape: one block
// per superstep carrying the label, the message total, and the fold-degree
// column h(2^j) for j = 1..log v. Degrees are mostly regular across
// consecutive supersteps (tree rounds repeat, dense phases plateau), so
// each column is delta-encoded against the previous block and the deltas
// are zigzag/varint packed; dense kernels land well under the CSV size.
//
// File layout (version 1; see docs/SCHEMAS.md for the normative spec):
//
//   header   magic "NBLT" · u16 version · u16 log_v · u32 CRC-32 of the 8
//            preceding bytes                                    (12 bytes)
//   block    varint label · varint messages · zigzag-varint
//            (degree[j] − prev_degree[j]) for j = 1..log_v ·
//            u32 CRC-32 of the block payload            (one per superstep)
//   footer   0xFF sentinel · u64 supersteps · u64 total messages ·
//            u32 CRC-32 of the 17 preceding bytes               (21 bytes)
//
// degree[0] == 0 always (one processor exchanges nothing with itself) and
// is never stored. The 0xFF sentinel cannot open a valid block: a label
// varint below 64 is a single byte < 0x40. Every decoder error — bad
// magic/version, a checksum mismatch, a truncation anywhere (including at
// a block boundary: the footer is mandatory) — throws std::invalid_argument
// carrying the byte offset.
//
// Two access paths around the layout:
//
//   TraceWriter — streaming, bounded by O(log v) live state (the previous
//     block's degree column plus an encode scratch). CostBackend /
//     RecordBackend flush finalized supersteps into it one by one
//     (CostBackend::stream_to), so recording never materializes the trace.
//
//   TraceReader — mmap-backed (or over an owned buffer), a FoldTables like
//     Trace (S / F / total_F / partial_F / total_S / peak_degree after one
//     indexing pass) without materializing the file: the tables are
//     O(log² v) and blocks are decoded one at a time
//     (peak_live_blocks() == 1, asserted in tests).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "bsp/trace.hpp"

namespace nobl {

/// First bytes of every binary trace file: 'N' 'B' 'L' 'T'.
inline constexpr unsigned char kTraceBinMagic[4] = {'N', 'B', 'L', 'T'};
/// Current (and only) format version.
inline constexpr std::uint16_t kTraceBinVersion = 1;
/// Canonical file extension for binary traces (golden twins, exports).
inline constexpr const char* kTraceBinExtension = ".nbt";

/// Streaming writer: append superstep records one by one, then finish().
/// Live state is O(log v) — the previous degree column, the running
/// totals, and a per-block encode scratch — independent of the number of
/// supersteps written, so a recording backend can stream a trace that
/// never fits in RAM.
class TraceWriter {
 public:
  /// Writes the header immediately. log_v <= 63.
  TraceWriter(std::ostream& os, unsigned log_v);

  /// Finishes (writes the footer) if finish() was not called; any stream
  /// error surfaces through the stream's state, never a throw.
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Encode one superstep block. Validates the same invariants as
  /// Trace::append (degree size log_v + 1, degree[0] == 0, label range);
  /// throws std::invalid_argument on violation, std::logic_error after
  /// finish().
  void append(const SuperstepRecord& record);

  /// Write the footer. Idempotent; append() afterwards throws.
  void finish();

  [[nodiscard]] unsigned log_v() const noexcept { return log_v_; }
  [[nodiscard]] std::uint64_t supersteps() const noexcept {
    return supersteps_;
  }
  [[nodiscard]] std::uint64_t total_messages() const noexcept {
    return total_messages_;
  }
  /// Bytes emitted so far (header + blocks [+ footer after finish()]).
  [[nodiscard]] std::uint64_t bytes_written() const noexcept { return bytes_; }
  /// Live encoder state in bytes (previous column + scratch): the O(log v)
  /// residency bound the streaming tests assert.
  [[nodiscard]] std::size_t resident_bytes() const noexcept;

 private:
  std::ostream* os_;
  unsigned log_v_;
  bool finished_ = false;
  std::uint64_t supersteps_ = 0;
  std::uint64_t total_messages_ = 0;
  std::uint64_t bytes_ = 0;
  std::vector<std::uint64_t> prev_degree_;  ///< previous block's column
  std::vector<unsigned char> scratch_;      ///< per-block encode buffer
};

/// Reader over a binary trace: mmap-backed when constructed from a path,
/// buffer-backed via from_bytes (tests, istream round-trips). Construction
/// runs one streaming validation+indexing pass — every checksum, the
/// footer, and all Trace::append invariants are checked up front — that
/// feeds each decoded block to the FoldTables base, so every cost query
/// answers exactly as on the equivalent Trace. The file itself is never
/// materialized: for_each_step decodes one block at a time
/// (peak_live_blocks() == 1) and the tables are O(log² v).
class TraceReader : public FoldTables {
 public:
  /// Map `path` read-only and index it. Throws std::invalid_argument on
  /// open/map failure or any format violation (message carries the byte
  /// offset for decode errors).
  explicit TraceReader(const std::string& path);

  /// Index an in-memory image (takes ownership of the bytes).
  [[nodiscard]] static TraceReader from_bytes(std::string bytes);

  ~TraceReader();
  TraceReader(TraceReader&& other) noexcept;
  TraceReader& operator=(TraceReader&& other) noexcept;
  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  /// Decode block by block in file order, invoking `fn` on each record.
  /// The record buffer is reused across blocks — copy it to retain it.
  void for_each_step(
      const std::function<void(const SuperstepRecord&)>& fn) const;

  /// Convenience for small traces (the CLI convert path and differential
  /// tests): decode everything into an in-memory Trace.
  [[nodiscard]] Trace materialize() const;

  /// Size of the underlying image in bytes.
  [[nodiscard]] std::size_t file_bytes() const noexcept { return size_; }
  /// Maximum number of decoded superstep blocks live at once during the
  /// indexing pass (always 1: the instrumented counter behind the O(log v)
  /// streaming claim; for_each_step decodes through the same one-record
  /// walk).
  [[nodiscard]] std::size_t peak_live_blocks() const noexcept {
    return peak_live_blocks_;
  }

 private:
  TraceReader() = default;

  /// One streaming pass: validate header/blocks/footer and add every block
  /// to the FoldTables base.
  void build_index();
  void unmap() noexcept;

  // Image: exactly one of owned_ (buffer-backed) or map_ (mmap) holds it.
  std::string owned_;
  void* map_ = nullptr;
  std::size_t map_size_ = 0;
  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t peak_live_blocks_ = 0;
};

/// True iff `bytes` opens with the binary-trace magic — the sniff the CLI
/// uses to route a file to the right parser.
[[nodiscard]] bool looks_like_trace_bin(const std::string& bytes);

}  // namespace nobl
