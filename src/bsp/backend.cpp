#include "bsp/backend.hpp"

#include "bsp/trace_store.hpp"

namespace nobl {

void CostBackend::stream_to(TraceWriter* writer) {
  if (writer != nullptr && writer->log_v() != log_v()) {
    throw std::invalid_argument(
        "CostBackend::stream_to: writer log_v mismatch");
  }
  stream_ = writer;
}

void CostBackend::emit_record() {
  if (stream_ != nullptr) {
    // Streaming: the record is encoded into the writer's O(log v) state
    // and record_'s buffers are reused next superstep — live trace state
    // never grows with the superstep count.
    stream_->append(record_);
  } else {
    trace_.append(std::move(record_));
    record_ = SuperstepRecord{};
  }
}

std::string to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::kSimulate:
      return "simulate";
    case BackendKind::kCost:
      return "cost";
    case BackendKind::kRecord:
      return "record";
    case BackendKind::kAnalytic:
      return "analytic";
  }
  return "unknown";
}

BackendKind backend_from_string(const std::string& name) {
  if (name == "simulate" || name == "sim") return BackendKind::kSimulate;
  if (name == "cost") return BackendKind::kCost;
  if (name == "record") return BackendKind::kRecord;
  if (name == "analytic") return BackendKind::kAnalytic;
  throw std::invalid_argument(
      "unknown backend \"" + name +
      "\" (expected simulate | cost | record | analytic)");
}

const std::vector<BackendKind>& all_backend_kinds() {
  static const std::vector<BackendKind> kinds{
      BackendKind::kSimulate, BackendKind::kCost, BackendKind::kRecord,
      BackendKind::kAnalytic};
  return kinds;
}

std::size_t Schedule::total_sends() const noexcept {
  std::size_t total = 0;
  for (const ScheduleStep& step : steps) total += step.size();
  return total;
}

Trace Schedule::replay_trace() const {
  Trace trace(log_v);
  DegreeAccumulator acc(log_v);
  for (const ScheduleStep& step : steps) {
    if (step.label >= trace.label_bound()) {
      throw std::invalid_argument("Schedule: superstep label out of range");
    }
    SuperstepRecord record;
    record.label = step.label;
    record.degree.assign(log_v + 1u, 0);
    const auto& src = step.src();
    const auto& dst = step.dst();
    const auto& count = step.count();
    const std::uint64_t v = this->v();
    for (std::size_t i = 0; i < step.size(); ++i) {
      // v is a power of two: both endpoints are below it iff their OR is.
      if ((src[i] | dst[i]) >= v) {
        throw std::invalid_argument("Schedule: event endpoint out of range");
      }
      acc.count(src[i], dst[i], count[i]);
    }
    acc.finalize_into(record);
    trace.append(std::move(record));
  }
  return trace;
}

}  // namespace nobl
