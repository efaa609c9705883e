#include "serve/protocol.hpp"

#include <sstream>
#include <stdexcept>

#include "util/json.hpp"

namespace nobl::serve {

std::string to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadRequest:
      return "bad_request";
    case ErrorCode::kOverloaded:
      return "overloaded";
    case ErrorCode::kUnavailable:
      return "unavailable";
    case ErrorCode::kInternal:
      return "internal";
  }
  return "internal";
}

bool is_retryable(ErrorCode code) {
  return code == ErrorCode::kOverloaded || code == ErrorCode::kUnavailable;
}

void RequestFramer::feed(std::string_view bytes) {
  buffer_.append(bytes.data(), bytes.size());
}

void RequestFramer::finish() { finished_ = true; }

std::optional<std::string> RequestFramer::pop_line() {
  const std::size_t nl = buffer_.find('\n');
  if (nl == std::string::npos) return std::nullopt;
  std::string line = buffer_.substr(0, nl);
  buffer_.erase(0, nl + 1);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return line;
}

std::optional<Request> RequestFramer::next() {
  while (true) {
    std::optional<std::string> line = pop_line();
    if (!line.has_value()) {
      if (finished_ && in_spec_) {
        in_spec_ = false;
        spec_.clear();
        throw std::invalid_argument(
            "request truncated: campaign spec not terminated by a \"" +
            std::string(kRequestSentinel) + "\" line before end of stream");
      }
      return std::nullopt;
    }
    if (in_spec_) {
      if (*line == kRequestSentinel) {
        Request request;
        request.kind = Request::Kind::kSpec;
        request.spec_text = std::move(spec_);
        spec_.clear();
        in_spec_ = false;
        return request;
      }
      spec_ += *line;
      spec_ += '\n';
      if (spec_.size() > kMaxRequestBytes) {
        in_spec_ = false;
        spec_.clear();
        throw std::invalid_argument(
            "request exceeds " + std::to_string(kMaxRequestBytes) +
            " bytes (admission control size cap)");
      }
      continue;
    }
    if (line->empty()) continue;  // idle keep-alive newlines between requests
    if (*line == kDirectivePing) return Request{Request::Kind::kPing, {}};
    if (*line == kDirectiveStats) return Request{Request::Kind::kStats, {}};
    if (*line == kDirectiveShutdown) {
      return Request{Request::Kind::kShutdown, {}};
    }
    // Anything else opens a campaign spec. The size cap applies from the
    // very first line — one unbroken oversized line must not slip past the
    // accumulation check below.
    in_spec_ = true;
    spec_ = *line;
    spec_ += '\n';
    if (spec_.size() > kMaxRequestBytes) {
      in_spec_ = false;
      spec_.clear();
      throw std::invalid_argument(
          "request exceeds " + std::to_string(kMaxRequestBytes) +
          " bytes (admission control size cap)");
    }
  }
}

namespace {

void begin_response(JsonWriter* w, const char* type) {
  w->begin_object();
  w->key("serve_schema_version").value(kServeSchemaVersion);
  w->key("type").value(type);
}

}  // namespace

std::string render_stats_doc(const ServeStats& stats) {
  std::ostringstream os;
  JsonWriter w(os, /*indent=*/0);
  begin_response(&w, "stats");
  w.key("stats").begin_object();
  w.key("uptime_ms").value(stats.uptime_ms);
  w.key("requests").value(stats.requests);
  w.key("cells_total").value(stats.cells_total);
  w.key("cache").begin_object();
  w.key("memory_hits").value(stats.memory_hits);
  w.key("disk_hits").value(stats.disk_hits);
  w.key("executed").value(stats.executed);
  w.key("coalesced").value(stats.coalesced);
  w.key("memory_entries").value(stats.memory_entries);
  w.key("memory_capacity").value(stats.memory_capacity);
  w.key("disk_entries").value(stats.disk_entries);
  w.key("hit_rate").value(stats.hit_rate);
  w.end_object();
  w.key("queue").begin_object();
  w.key("depth").value(stats.queue_depth);
  w.key("peak").value(stats.queue_peak);
  w.key("capacity").value(stats.queue_capacity);
  w.key("rejected").value(stats.rejected);
  w.key("workers").value(stats.workers);
  w.key("inflight").value(stats.inflight);
  w.end_object();
  w.key("backends").begin_object();
  for (const BackendKind kind : all_backend_kinds()) {
    w.key(to_string(kind))
        .value(stats.backend_cells[static_cast<std::size_t>(kind)]);
  }
  w.end_object();
  w.key("latency_ms").begin_object();
  w.key("window").value(stats.latency_count);
  w.key("p50").value(stats.latency_p50_ms);
  w.key("p99").value(stats.latency_p99_ms);
  w.key("max").value(stats.latency_max_ms);
  w.end_object();
  w.end_object();
  w.end_object();
  return os.str();
}

std::string render_error_doc(std::uint64_t request_id, ErrorCode code,
                             const std::string& message) {
  std::ostringstream os;
  JsonWriter w(os, /*indent=*/0);
  begin_response(&w, "error");
  w.key("request").value(request_id);
  w.key("code").value(to_string(code));
  w.key("retryable").value(is_retryable(code));
  w.key("message").value(message);
  w.end_object();
  return os.str();
}

std::string render_pong_doc() {
  std::ostringstream os;
  JsonWriter w(os, /*indent=*/0);
  begin_response(&w, "pong");
  w.end_object();
  return os.str();
}

std::string render_bye_doc() {
  std::ostringstream os;
  JsonWriter w(os, /*indent=*/0);
  begin_response(&w, "bye");
  w.end_object();
  return os.str();
}

}  // namespace nobl::serve
