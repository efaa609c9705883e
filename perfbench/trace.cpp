// perfbench_trace — the traced half of the performance benchmark.
//
// Calls each layer's public entry point in-process and records one span
// (name, start, end, parent) around every call. The spans stay in memory and
// are written to a file when the run ends. The plan (which cells, which σ
// grid, which served requests) comes from perfbench/run.py as a JSON file, so
// the cell lists live in one place; this program only times and reports.
//
// Usage: perfbench_trace PLAN.json OUT.json
//
// OUT.json holds the per-layer metrics, the result documents of every cell it
// evaluated (write_run_json, for run.py's correctness oracle), the audit
// verdicts and the predicted-H-versus-time rows.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "audit/kernel_audit.hpp"
#include "bsp/trace_store.hpp"
#include "cli/campaign.hpp"
#include "core/registry.hpp"
#include "serve/client.hpp"
#include "util/json.hpp"

namespace {

using nobl::JsonValue;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------- spans ---

struct Span {
  std::string name;
  std::int64_t parent = -1;
  std::int64_t request = -1;  ///< serve request id; -1 outside serve
  Clock::time_point start;
  Clock::time_point end;
};

/// A recorder built with `keep = false` records nothing and reports zero
/// durations: it is the untraced side of the overhead measurement.
class SpanRecorder {
 public:
  SpanRecorder(Clock::time_point origin, bool keep)
      : origin_(origin), keep_(keep) {}

  std::size_t open(std::string name, std::int64_t request) {
    if (!keep_) return 0;
    const std::int64_t parent =
        open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    spans_.push_back({std::move(name), parent, request, Clock::now(), {}});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  double close(std::size_t id) {
    if (!keep_) return 0.0;
    spans_[id].end = Clock::now();
    open_.pop_back();
    return seconds_between(spans_[id].start, spans_[id].end);
  }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// An empty recorder on the same clock, for another thread.
  [[nodiscard]] SpanRecorder fork() const { return {origin_, keep_}; }

  /// Appends another thread's spans; its root spans become children of the
  /// span open here.
  void absorb(const SpanRecorder& other) {
    const auto base = static_cast<std::int64_t>(spans_.size());
    const std::int64_t parent =
        open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    for (Span s : other.spans_) {
      s.parent = s.parent < 0 ? parent : s.parent + base;
      spans_.push_back(std::move(s));
    }
  }

  /// Writes every span, then per-name totals with self time: duration
  /// minus the union of the child spans' intervals (children on several
  /// threads may overlap).
  void write(const std::string& path) const {
    std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
        children(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                  s.end);
      }
    }
    std::vector<double> child_s(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& iv = children[i];
      std::sort(iv.begin(), iv.end());
      Clock::time_point covered = spans_[i].start;
      for (const auto& [start, end] : iv) {
        const Clock::time_point from = std::max(start, covered);
        if (end > from) {
          child_s[i] += seconds_between(from, end);
          covered = end;
        }
      }
    }
    struct Total {
      std::uint64_t count = 0;
      double total_s = 0.0;
      double self_s = 0.0;
    };
    std::map<std::string, Total> totals;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const double d = seconds_between(spans_[i].start, spans_[i].end);
      Total& t = totals[spans_[i].name];
      ++t.count;
      t.total_s += d;
      t.self_s += d - child_s[i];
    }
    std::ofstream os(path);
    nobl::JsonWriter w(os, 0);
    w.begin_object().key("spans").begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w.begin_object()
          .key("id")
          .value(static_cast<std::uint64_t>(i))
          .key("name")
          .value(s.name)
          .key("parent")
          .value(static_cast<std::int64_t>(s.parent))
          .key("request")
          .value(static_cast<std::int64_t>(s.request))
          .key("start_us")
          .value(1e6 * seconds_between(origin_, s.start))
          .key("end_us")
          .value(1e6 * seconds_between(origin_, s.end))
          .end_object();
    }
    w.end_array().key("by_name").begin_object();
    for (const auto& [name, t] : totals) {
      w.key(name)
          .begin_object()
          .key("count")
          .value(t.count)
          .key("total_s")
          .value(t.total_s)
          .key("self_s")
          .value(t.self_s)
          .end_object();
    }
    w.end_object().end_object();
    os << '\n';
    if (!os) throw std::runtime_error("cannot write span file " + path);
  }

 private:
  Clock::time_point origin_;
  bool keep_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; `seconds()` closes it early and returns its duration.
class Scope {
 public:
  Scope(SpanRecorder& rec, std::string name, std::int64_t request = -1)
      : rec_(rec), id_(rec.open(std::move(name), request)) {}
  ~Scope() {
    if (!closed_) rec_.close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  double seconds() {
    closed_ = true;
    return rec_.close(id_);
  }

 private:
  SpanRecorder& rec_;
  std::size_t id_;
  bool closed_ = false;
};

// ------------------------------------------------------------- helpers ---

struct Cell {
  std::string kernel;
  std::uint64_t n = 0;
};

std::vector<Cell> cells_of(const JsonValue& array) {
  std::vector<Cell> out;
  for (const JsonValue& c : array.as_array()) {
    out.push_back({c.as_array().at(0).as_string(),
                   static_cast<std::uint64_t>(c.as_array().at(1).as_number())});
  }
  return out;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t m = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[m] : 0.5 * (xs[m - 1] + xs[m]);
}

/// Spearman rank correlation (average ranks for ties).
double rank_corr(const std::vector<double>& a, const std::vector<double>& b) {
  auto ranks = [](const std::vector<double>& xs) {
    std::vector<std::size_t> idx(xs.size());
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    std::sort(idx.begin(), idx.end(),
              [&](std::size_t i, std::size_t j) { return xs[i] < xs[j]; });
    std::vector<double> r(xs.size());
    for (std::size_t i = 0; i < idx.size();) {
      std::size_t j = i;
      while (j + 1 < idx.size() && xs[idx[j + 1]] == xs[idx[i]]) ++j;
      for (std::size_t k = i; k <= j; ++k) r[idx[k]] = 0.5 * double(i + j) + 1;
      i = j + 1;
    }
    return r;
  };
  const std::vector<double> ra = ranks(a);
  const std::vector<double> rb = ranks(b);
  const double n = static_cast<double>(a.size());
  const double mean = (n + 1) / 2;
  double num = 0, da = 0, db = 0;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    num += (ra[i] - mean) * (rb[i] - mean);
    da += (ra[i] - mean) * (ra[i] - mean);
    db += (rb[i] - mean) * (rb[i] - mean);
  }
  return da > 0 && db > 0 ? num / std::sqrt(da * db) : 0.0;
}

struct Output {
  std::map<std::string, double> metrics;
  std::vector<std::string> run_docs;     ///< write_run_json documents
  std::vector<std::string> served_docs;  ///< served campaign documents
  std::ostringstream extra;           ///< audit + h_vs_time members

  void set(const std::string& name, double value) { metrics[name] = value; }
  void add(const std::string& name, double value) { metrics[name] += value; }
};

// ---------------------------------------------------------- bsp layer ---

struct BackendRun {
  std::string metric;  ///< the suffix of bsp.exec_s.<metric>
  nobl::RunOptions options;
};

std::vector<BackendRun> bsp_backends() {
  return {
      {"simulate", {nobl::ExecutionPolicy::sequential(),
                    nobl::BackendKind::kSimulate}},
      {"simulate_par2", {nobl::ExecutionPolicy::parallel(2),
                         nobl::BackendKind::kSimulate}},
      {"cost", {nobl::ExecutionPolicy::sequential(), nobl::BackendKind::kCost}},
      {"record", {nobl::ExecutionPolicy::sequential(),
                  nobl::BackendKind::kRecord}},
  };
}

/// Busy time in the registry runner per backend, on the run-exec cells. Every
/// trace then goes through evaluation and JSON serialization, whose documents
/// feed the correctness oracle; the cost traces also time the lazy query
/// build first.
void bsp_pass(SpanRecorder& rec, const std::vector<Cell>& cells, Output& out) {
  const nobl::CampaignSpec spec;  // default σ grid, every fold: `nobl run`
  std::vector<double> h_pred, t_cost;
  std::ostringstream rows;
  rows << "\"h_vs_time\":[";
  std::uint64_t msgs = 0, steps = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    const nobl::AlgoEntry& entry =
        nobl::AlgoRegistry::instance().at(cell.kernel);
    for (const BackendRun& b : bsp_backends()) {
      Scope span(rec, "bsp.runner." + b.metric);
      nobl::Trace trace = entry.runner(cell.n, b.options);
      const double s = span.seconds();
      out.add("bsp.exec_s." + b.metric, s);
      out.add("bsp.msgs_of." + b.metric, double(trace.total_messages()));
      if (b.metric == "cost") {
        msgs += trace.total_messages();
        steps += trace.supersteps();
        t_cost.push_back(s);
        h_pred.push_back(entry.predicted(cell.n, trace.v(), 0.0));
        rows << (c == 0 ? "" : ",") << "[\"" << cell.kernel << "\","
             << cell.n << "," << nobl::json_number(h_pred.back()) << ","
             << nobl::json_number(s) << "]";
        Scope q(rec, "bsp.trace_first_query");
        (void)trace.total_F(trace.log_v());
        out.add("bsp.trace_first_query_ms", 1e3 * q.seconds());
      }
      Scope eval(rec, "core.evaluate_run");
      nobl::RunResult run = evaluate_run(spec, entry, cell.n, b.options.backend,
                                         b.options.policy, std::move(trace));
      out.add("core.eval_s", eval.seconds());
      out.add("core.eval_cells", double(run.cells.size()));
      Scope json(rec, "cli.write_run_json");
      std::ostringstream doc;
      nobl::JsonWriter w(doc, 2);
      nobl::write_run_json(w, run);
      out.add("cli.json_s", json.seconds());
      out.add("cli.json_bytes", double(doc.str().size()));
      out.run_docs.push_back(doc.str());
    }
  }
  rows << "]";
  out.extra << rows.str() << ",";
  for (const BackendRun& b : bsp_backends()) {
    const double s = out.metrics["bsp.exec_s." + b.metric];
    out.set("bsp.ns_per_msg." + b.metric,
            1e9 * s / out.metrics["bsp.msgs_of." + b.metric]);
    out.metrics.erase("bsp.msgs_of." + b.metric);
  }
  out.set("bsp.par2_speedup", out.metrics["bsp.exec_s.simulate"] /
                                  out.metrics["bsp.exec_s.simulate_par2"]);
  out.set("bsp.msgs", double(msgs));
  out.set("bsp.supersteps", double(steps));
  out.set("bsp.h_time_rank_corr", rank_corr(h_pred, t_cost));
}

// ----------------------------------------------------- analytic / core ---

/// The analytic tier of a kernel, derived from the registry's dispatch flags
/// (exact_h, input_independent) rather than from the backend's own counters,
/// so the benchmark keeps working if a tier is deleted.
std::string analytic_tier(const nobl::AlgoEntry& entry) {
  if (entry.exact_h) return "symbolic";
  if (entry.input_independent) return "memo";
  return "fallback";
}

void core_pass(SpanRecorder& rec, const std::vector<Cell>& cells,
               const std::vector<double>& sigmas, Output& out) {
  nobl::CampaignSpec spec;
  spec.sigmas = sigmas;
  const nobl::RunOptions analytic(nobl::BackendKind::kAnalytic);
  const nobl::RunOptions cost(nobl::BackendKind::kCost);
  double memo_cost_s = 0.0;
  for (const std::string tier : {"symbolic", "memo_first", "memo_repeat",
                                 "fallback"}) {
    out.set("core.analytic_s." + tier, 0.0);
  }
  out.set("core.analytic_repeat_keys", 0.0);
  for (const Cell& cell : cells) {
    const nobl::AlgoEntry& entry =
        nobl::AlgoRegistry::instance().at(cell.kernel);
    const std::string tier = analytic_tier(entry);
    const std::string first = tier == "memo" ? "memo_first" : tier;
    Scope span(rec, "core.analytic." + first);
    nobl::Trace trace = entry.runner(cell.n, analytic);
    out.add("core.analytic_s." + first, span.seconds());
    if (tier == "memo") {
      // Same key again: what a memo tier saves, and what a campaign that
      // repeats a (kernel, n) would pay.
      {
        Scope again(rec, "core.analytic.memo_repeat");
        (void)entry.runner(cell.n, analytic);
        out.add("core.analytic_s.memo_repeat", again.seconds());
        out.add("core.analytic_repeat_keys", 1.0);
      }
      Scope c(rec, "bsp.runner.cost");
      (void)entry.runner(cell.n, cost);
      memo_cost_s += c.seconds();
    }
    Scope eval(rec, "core.evaluate_run");
    nobl::RunResult run =
        evaluate_run(spec, entry, cell.n, nobl::BackendKind::kAnalytic,
                     nobl::ExecutionPolicy::sequential(), std::move(trace));
    out.add("core.eval_s", eval.seconds());
    out.add("core.eval_cells", double(run.cells.size()));
    Scope json(rec, "cli.write_run_json");
    std::ostringstream doc;
    nobl::JsonWriter w(doc, 2);
    nobl::write_run_json(w, run);
    out.add("cli.json_s", json.seconds());
    out.add("cli.json_bytes", double(doc.str().size()));
    out.run_docs.push_back(doc.str());
  }
  out.set("core.analytic_over_cost.memo",
          memo_cost_s > 0
              ? out.metrics["core.analytic_s.memo_first"] / memo_cost_s
              : 0.0);
}

// ----------------------------------------------------------- nbt store ---

void nbt_pass(SpanRecorder& rec, const std::vector<Cell>& cells,
              const std::string& dir, Output& out) {
  std::filesystem::create_directories(dir);
  out.set("bsp.nbt_write_ms", 0.0);
  out.set("bsp.nbt_read_ms", 0.0);
  out.set("bsp.nbt_bytes", 0.0);
  for (const Cell& cell : cells) {
    const nobl::AlgoEntry& entry =
        nobl::AlgoRegistry::instance().at(cell.kernel);
    nobl::Trace trace;
    {
      Scope run(rec, "bsp.runner.cost");
      trace = entry.runner(cell.n, nobl::BackendKind::kCost);
    }
    {
      Scope q(rec, "bsp.trace_first_query");
      (void)trace.total_F(trace.log_v());
      out.add("bsp.trace_first_query_ms", 1e3 * q.seconds());
    }
    const std::string path = dir + "/" + cell.kernel + "_" +
                             std::to_string(cell.n) + nobl::kTraceBinExtension;
    {
      Scope span(rec, "bsp.nbt_write");
      std::ofstream os(path, std::ios::binary);
      nobl::TraceWriter writer(os, trace.log_v());
      for (const nobl::SuperstepRecord& step : trace.steps()) {
        writer.append(step);
      }
      writer.finish();
      os.close();
      out.add("bsp.nbt_bytes", double(writer.bytes_written()));
      out.add("bsp.nbt_write_ms", 1e3 * span.seconds());
    }
    Scope span(rec, "bsp.nbt_read");
    const nobl::TraceReader reader(path);
    if (reader.supersteps() != trace.supersteps() ||
        reader.total_F(reader.log_v()) != trace.total_F(trace.log_v())) {
      throw std::runtime_error("nbt round trip differs for " + path);
    }
    out.add("bsp.nbt_read_ms", 1e3 * span.seconds());
    std::filesystem::remove(path);
  }
}

// --------------------------------------------------------------- serve ---

struct Served {
  std::string tier;
  double client_ms = 0.0;
  double server_ms = 0.0;
  std::string doc;
};

/// Sends `requests` ([kernel, n, backend, class]) over `connections`
/// concurrent connections, each a closed loop (next request after the
/// previous reply), as serve-mix does.
void serve_pass(SpanRecorder& rec, const JsonValue& requests,
                const std::string& socket, unsigned connections, Output& out) {
  const JsonValue::Array& reqs = requests.as_array();
  std::vector<Served> served(reqs.size());
  std::vector<SpanRecorder> recs(connections, rec.fork());
  std::vector<std::string> errors(connections);
  std::atomic<std::size_t> next{0};
  auto connection = [&](unsigned c) {
    try {
      nobl::serve::ServeClient client(socket);
      for (std::size_t i = next++; i < reqs.size(); i = next++) {
        const JsonValue::Array& r = reqs[i].as_array();
        const nobl::CampaignSpec spec = nobl::parse_campaign_spec(
            "name = perfbench\nalgorithms = " + r.at(0).as_string() + ":" +
            std::to_string(static_cast<std::uint64_t>(r.at(1).as_number())) +
            "\nbackends = " + r.at(2).as_string() + "\n");
        Scope span(recs[c], "serve.request", static_cast<std::int64_t>(i));
        const nobl::serve::ClientReport report =
            nobl::serve::submit_campaign(client, spec);
        const double ms = 1e3 * span.seconds();
        if (!report.ok) {
          throw std::runtime_error("request refused: " + report.error_code +
                                   ": " + report.error_message);
        }
        served[i] = {report.tier_memory     ? "memory"
                     : report.tier_disk     ? "disk"
                     : report.tier_executed ? "executed"
                                            : "coalesced",
                     ms, report.elapsed_ms, report.results_json};
      }
    } catch (const std::exception& e) {
      errors[c] = e.what();
      next = reqs.size();
    }
  };
  {
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < connections; ++c) {
      threads.emplace_back(connection, c);
    }
    for (std::thread& t : threads) t.join();
  }
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error("serve: " + e);
  }
  for (const SpanRecorder& r : recs) rec.absorb(r);

  std::map<std::string, std::vector<double>> client_ms = {
      {"memory", {}}, {"disk", {}}, {"executed", {}}, {"coalesced", {}}};
  std::vector<double> server_ms, transport_ms;
  std::uint64_t cross = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const bool is_cross = reqs[i].as_array().at(3).as_string() ==
                          "cross_backend";
    if (served[i].tier == "executed" && is_cross) ++cross;
    client_ms[served[i].tier].push_back(served[i].client_ms);
    server_ms.push_back(served[i].server_ms);
    transport_ms.push_back(served[i].client_ms - served[i].server_ms);
    out.served_docs.push_back(std::move(served[i].doc));
  }
  for (const auto& [tier, ms] : client_ms) {
    out.set("serve.tier." + tier, double(ms.size()));
    out.set("serve.client_ms_p50." + tier, median(ms));
  }
  out.set("serve.server_ms_p50", median(server_ms));
  out.set("serve.transport_ms_p50", median(transport_ms));
  out.set("serve.hit_rate", 1.0 - double(client_ms["executed"].size()) /
                                      double(reqs.size()));
  out.set("serve.executed_cross_backend", double(cross));

  nobl::serve::ServeClient client(socket);
  client.send_line("stats");
  const std::optional<std::string> line = client.read_line();
  if (!line) throw std::runtime_error("serve: no stats reply");
  const JsonValue& queue = JsonValue::parse(*line).at("stats").at("queue");
  out.set("serve.queue_peak", queue.at("peak").as_number());
  out.set("serve.rejected", queue.at("rejected").as_number());
}

// --------------------------------------------------------------- audit ---

void audit_pass(SpanRecorder& rec, const std::vector<Cell>& cells,
                Output& out) {
  out.set("audit.kernel_s", 0.0);
  out.set("audit.passed", 0.0);
  out.set("audit.data_dependent", 0.0);
  out.extra << "\"audit\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const nobl::AlgoEntry& entry =
        nobl::AlgoRegistry::instance().at(cells[i].kernel);
    Scope span(rec, "audit.audit_kernel");
    const nobl::audit::KernelVerdict verdict =
        nobl::audit::audit_kernel(entry, cells[i].n);
    out.add("audit.kernel_s", span.seconds());
    out.add("audit.passed", verdict.passed() ? 1.0 : 0.0);
    out.add("audit.data_dependent", verdict.data_dependent ? 1.0 : 0.0);
    out.extra << (i == 0 ? "" : ",") << "{\"name\":\"" << verdict.name
              << "\",\"n\":" << verdict.n << ",\"passed\":"
              << (verdict.passed() ? "true" : "false")
              << ",\"oblivious\":"
              << (verdict.data_dependent ? "false" : "true")
              << ",\"supersteps\":" << verdict.report.steps.size() << "}";
  }
  out.extra << "],";
}

/// Cost of one span: an open/close pair on a recorder that keeps it, timed
/// over kSpanProbe pairs in a tight loop; the median of five such loops.
double span_cost_s(Clock::time_point origin) {
  constexpr int kSpanProbe = 100000;
  std::vector<double> per_span;
  for (int rep = 0; rep < 5; ++rep) {
    SpanRecorder probe(origin, true);
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kSpanProbe; ++i) {
      Scope span(probe, "bsp.runner.simulate_par2");
    }
    per_span.push_back(seconds_between(t0, Clock::now()) / kSpanProbe);
  }
  return median(per_span);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::cerr << "usage: perfbench_trace PLAN.json OUT.json\n";
    return 2;
  }
  try {
    std::ifstream in(argv[1]);
    std::stringstream text;
    text << in.rdbuf();
    const JsonValue plan = JsonValue::parse(text.str());

    const Clock::time_point origin = Clock::now();
    SpanRecorder rec(origin, true);
    Output out;
    const std::vector<Cell> bsp_cells = cells_of(plan.at("bsp_cells"));

    // Cross-check of the tracing overhead: the bsp pass with a recorder that
    // keeps nothing, before and after the recorded pass, timed as a whole.
    // The host's jitter swamps the difference; the reported overhead comes
    // from span_cost_s() instead.
    SpanRecorder untraced(origin, false);
    auto untraced_pass_s = [&] {
      Output discard;
      const Clock::time_point u0 = Clock::now();
      bsp_pass(untraced, bsp_cells, discard);
      return seconds_between(u0, Clock::now());
    };
    double untraced_s = untraced_pass_s();
    const Clock::time_point t0 = Clock::now();
    {
      Scope layer(rec, "pass.bsp");
      bsp_pass(rec, bsp_cells, out);
    }
    const double traced_s = seconds_between(t0, Clock::now());
    untraced_s = 0.5 * (untraced_s + untraced_pass_s());
    {
      Scope layer(rec, "pass.core");
      std::vector<double> sigmas;
      for (const JsonValue& s : plan.at("certify_sigmas").as_array()) {
        sigmas.push_back(s.as_number());
      }
      core_pass(rec, cells_of(plan.at("certify_cells")), sigmas, out);
    }
    {
      Scope layer(rec, "pass.nbt");
      nbt_pass(rec, cells_of(plan.at("nbt_cells")),
               plan.at("scratch").as_string(), out);
    }
    {
      Scope layer(rec, "pass.serve");
      serve_pass(rec, plan.at("serve_requests"), plan.at("socket").as_string(),
                 static_cast<unsigned>(plan.at("connections").as_number()),
                 out);
    }
    {
      Scope layer(rec, "pass.audit");
      audit_pass(rec, cells_of(plan.at("audit_cells")), out);
    }
    const double run_s = seconds_between(origin, Clock::now());
    const double span_s = span_cost_s(origin);
    out.set("trace.spans", double(rec.size()));
    out.set("trace.overhead_frac", double(rec.size()) * span_s / run_s);
    out.extra << "\"overhead_check\":{\"span_ns\":"
              << nobl::json_number(1e9 * span_s)
              << ",\"traced_run_s\":" << nobl::json_number(run_s)
              << ",\"bsp_traced_s\":" << nobl::json_number(traced_s)
              << ",\"bsp_untraced_s\":" << nobl::json_number(untraced_s)
              << "},";
    rec.write(plan.at("spans").as_string());

    std::ofstream os(argv[2]);
    os << "{" << out.extra.str() << "\"metrics\":{";
    bool first = true;
    for (const auto& [name, value] : out.metrics) {
      os << (first ? "" : ",") << "\"" << name
         << "\":" << nobl::json_number(value);
      first = false;
    }
    os << "},\"runs\":[";
    for (std::size_t i = 0; i < out.run_docs.size(); ++i) {
      os << (i == 0 ? "" : ",") << out.run_docs[i];
    }
    os << "],\"served\":[";
    for (std::size_t i = 0; i < out.served_docs.size(); ++i) {
      // As strings: run.py compares their bytes with `nobl run --json`.
      os << (i == 0 ? "" : ",") << '"' << nobl::json_escape(out.served_docs[i])
         << '"';
    }
    os << "]}\n";
    if (!os) throw std::runtime_error("cannot write " + std::string(argv[2]));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_trace: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
