// Wire protocol for `nobl serve`: framing, response envelopes, and the
// stats document.
//
// The protocol is deliberately line-oriented on both sides so a session is
// inspectable with `nc -U` and greppable in logs:
//
//   requests   single-line *directives* (`ping`, `stats`, `shutdown`) or a
//              multi-line *campaign spec* in the exact grammar of
//              parse_campaign_spec (docs/SCHEMAS.md), terminated by a line
//              holding a single `.` — the SMTP-style sentinel. A spec line
//              can never collide with the sentinel (specs are `key = value`
//              or comment/blank lines).
//   responses  one compact JSON document per line (NDJSON), each carrying
//              `serve_schema_version` and a `type` discriminator:
//
//     run    one completed (algorithm, n, backend, engine) cell. `run` is
//            the exact result-document runs[] object of `nobl run --json`
//            (write_run_json), so clients can aggregate streamed cells into
//            a schema-v1 campaign document; `server` is the per-cell
//            metrics envelope (cache tier, latency, queue depth).
//     done   end of one request: cell count, per-tier tallies, wall time.
//     error  structured failure. `code` ∈ {bad_request, overloaded,
//            unavailable, internal}; `retryable` tells the client whether
//            backing off and resending is meaningful (overloaded and
//            unavailable are retryable; bad_request and internal are not).
//     stats / pong / bye   replies to the directives.
//
// Responses to pipelined requests may interleave; every response carries
// the originating request id, so clients demultiplex on (`request`,
// `type`). Within one request, `run` docs stream as cells complete
// (ordered only under a single worker) and `done` is always last.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bsp/backend.hpp"

namespace nobl::serve {

/// Version stamped into every response line; bumped on any incompatible
/// change to the envelope or the stats document.
inline constexpr int kServeSchemaVersion = 1;

/// Requests larger than this are rejected with `bad_request` before any
/// parsing — the framing-level half of admission control.
inline constexpr std::size_t kMaxRequestBytes = 1 << 16;

/// Single-line directives (everything else is a campaign spec).
inline constexpr const char* kDirectivePing = "ping";
inline constexpr const char* kDirectiveStats = "stats";
inline constexpr const char* kDirectiveShutdown = "shutdown";
/// End-of-request sentinel for multi-line campaign specs.
inline constexpr const char* kRequestSentinel = ".";

/// Structured error codes. Retryability is a property of the code.
enum class ErrorCode : std::uint8_t {
  kBadRequest,   ///< malformed framing or spec; resending won't help
  kOverloaded,   ///< admission control rejected the request; retry later
  kUnavailable,  ///< server is shutting down; retry against a new server
  kInternal,     ///< unexpected failure while executing a cell
};

/// "bad_request" | "overloaded" | "unavailable" | "internal".
[[nodiscard]] std::string to_string(ErrorCode code);

/// True for the codes a client should retry with backoff.
[[nodiscard]] bool is_retryable(ErrorCode code);

/// One parsed frame from a request byte stream: either a directive or the
/// accumulated text of a campaign spec (sentinel stripped).
struct Request {
  enum class Kind : std::uint8_t { kPing, kStats, kShutdown, kSpec };
  Kind kind = Kind::kSpec;
  std::string spec_text;  ///< only for kSpec
};

/// Incremental request framer: feed raw bytes as they arrive on a
/// connection, poll complete requests out. CR before LF is stripped
/// (telnet/nc friendliness). A request whose accumulated spec exceeds
/// kMaxRequestBytes makes next() throw std::invalid_argument — the caller
/// answers with a bad_request error and drops the connection, since the
/// stream position is no longer trustworthy.
class RequestFramer {
 public:
  /// Append raw bytes from the socket.
  void feed(std::string_view bytes);

  /// Signal end of stream; an unterminated trailing spec becomes an error
  /// on the next next() call (truncation must not be silently dropped).
  void finish();

  /// Pop the next complete request, if any. Throws std::invalid_argument
  /// on oversized requests or a truncated final spec.
  [[nodiscard]] std::optional<Request> next();

  /// Bytes buffered but not yet framed (diagnostics, tests).
  [[nodiscard]] std::size_t buffered_bytes() const noexcept {
    return buffer_.size() + spec_.size();
  }

 private:
  [[nodiscard]] std::optional<std::string> pop_line();

  std::string buffer_;      ///< raw bytes not yet split into lines
  std::string spec_;        ///< lines of the spec being accumulated
  bool in_spec_ = false;    ///< saw a non-directive line, awaiting sentinel
  bool finished_ = false;   ///< finish() was called
};

/// Cumulative server statistics: the document `stats` returns and the
/// contract docs/SERVE.md's metrics reference is gated against in CI
/// (scripts/check_serve_docs.py). Every field here must be documented
/// there.
struct ServeStats {
  std::uint64_t uptime_ms = 0;
  std::uint64_t requests = 0;        ///< accepted campaign requests
  std::uint64_t cells_total = 0;     ///< cells completed (all requests)

  // Cache tiers (serve/result_cache.hpp).
  std::uint64_t memory_hits = 0;     ///< served from the in-memory LRU
  std::uint64_t disk_hits = 0;       ///< replayed from the .nbt disk tier
  std::uint64_t executed = 0;        ///< cache misses: kernel actually ran
  std::uint64_t coalesced = 0;       ///< waited on an identical in-flight cell
  std::uint64_t memory_entries = 0;  ///< traces resident in the LRU
  std::uint64_t memory_capacity = 0;
  std::uint64_t disk_entries = 0;    ///< .nbt files in the cache directory
  double hit_rate = 0.0;  ///< (memory+disk+coalesced) / cells_total; 0 if none

  // Admission control / queue.
  std::uint64_t queue_depth = 0;     ///< cells waiting right now
  std::uint64_t queue_peak = 0;
  std::uint64_t queue_capacity = 0;
  std::uint64_t rejected = 0;        ///< requests refused with `overloaded`
  std::uint64_t workers = 0;
  std::uint64_t inflight = 0;        ///< cells executing right now

  /// Completed cells per backend, indexed by BackendKind's value (the
  /// order of all_backend_kinds()).
  std::array<std::uint64_t, kBackendCount> backend_cells{};

  // Cell latency (enqueue -> response written), over a sliding window of
  // the most recent kLatencyWindow cells.
  std::uint64_t latency_count = 0;   ///< cells in the window
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_max_ms = 0.0;
};

/// Sliding-window size behind the latency percentiles.
inline constexpr std::size_t kLatencyWindow = 4096;

/// Render `stats` as the one-line `{"serve_schema_version":1,
/// "type":"stats","stats":{...}}` response document.
[[nodiscard]] std::string render_stats_doc(const ServeStats& stats);

/// Render a one-line error response for request `request_id`.
[[nodiscard]] std::string render_error_doc(std::uint64_t request_id,
                                           ErrorCode code,
                                           const std::string& message);

/// Render the `pong` / `bye` acknowledgement lines.
[[nodiscard]] std::string render_pong_doc();
[[nodiscard]] std::string render_bye_doc();

}  // namespace nobl::serve
