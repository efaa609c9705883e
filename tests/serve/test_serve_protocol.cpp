// Wire-protocol framing and response-envelope contracts for `nobl serve`:
// directive/spec framing (including chunked delivery and CRLF), the
// admission size cap, truncation detection, response rendering, the
// raw-member splicer the client aggregates with, and the spec round trip
// (write_campaign_spec -> parse_campaign_spec).
#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "cli/campaign.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"

namespace nobl::serve {
namespace {

TEST(RequestFramer, ParsesDirectives) {
  RequestFramer framer;
  framer.feed("ping\nstats\nshutdown\n");
  ASSERT_EQ(framer.next()->kind, Request::Kind::kPing);
  ASSERT_EQ(framer.next()->kind, Request::Kind::kStats);
  ASSERT_EQ(framer.next()->kind, Request::Kind::kShutdown);
  EXPECT_FALSE(framer.next().has_value());
}

TEST(RequestFramer, AccumulatesSpecUntilSentinel) {
  RequestFramer framer;
  framer.feed("name = t\nalgorithms = fft:64\n.\n");
  const std::optional<Request> request = framer.next();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->kind, Request::Kind::kSpec);
  EXPECT_EQ(request->spec_text, "name = t\nalgorithms = fft:64\n");
  EXPECT_FALSE(framer.next().has_value());
  EXPECT_EQ(framer.buffered_bytes(), 0u);
}

TEST(RequestFramer, HandlesChunkedDeliveryAndCrLf) {
  RequestFramer framer;
  // Bytes arrive split mid-line and mid-request, with \r\n endings.
  for (const char c : std::string("algorithms = fft:64\r\n.\r\nping\r\n")) {
    framer.feed(std::string_view(&c, 1));
  }
  const std::optional<Request> spec = framer.next();
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->spec_text, "algorithms = fft:64\n");
  ASSERT_EQ(framer.next()->kind, Request::Kind::kPing);
}

TEST(RequestFramer, BlankLinesBetweenRequestsAreIgnored) {
  RequestFramer framer;
  framer.feed("\n\nping\n\n");
  ASSERT_EQ(framer.next()->kind, Request::Kind::kPing);
  EXPECT_FALSE(framer.next().has_value());
}

TEST(RequestFramer, PipelinedRequestsComeOutInOrder) {
  RequestFramer framer;
  framer.feed("algorithms = fft:64\n.\nalgorithms = sort:64\n.\nstats\n");
  EXPECT_EQ(framer.next()->spec_text, "algorithms = fft:64\n");
  EXPECT_EQ(framer.next()->spec_text, "algorithms = sort:64\n");
  EXPECT_EQ(framer.next()->kind, Request::Kind::kStats);
}

TEST(RequestFramer, OversizedSpecThrowsStructuredError) {
  RequestFramer framer;
  framer.feed("# padding\n");
  const std::string big(kMaxRequestBytes, 'x');
  framer.feed(big);
  framer.feed("\n");
  try {
    (void)framer.next();
    FAIL() << "expected invalid_argument for an oversized request";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("admission control"),
              std::string::npos);
  }
}

TEST(RequestFramer, TruncatedFinalSpecThrowsOnFinish) {
  RequestFramer framer;
  framer.feed("algorithms = fft:64\n");  // sentinel never arrives
  EXPECT_FALSE(framer.next().has_value());
  framer.finish();
  EXPECT_THROW((void)framer.next(), std::invalid_argument);
}

TEST(Protocol, ErrorDocCarriesCodeAndRetryability) {
  const JsonValue overloaded = JsonValue::parse(
      render_error_doc(7, ErrorCode::kOverloaded, "queue full"));
  EXPECT_EQ(overloaded.at("serve_schema_version").as_number(),
            kServeSchemaVersion);
  EXPECT_EQ(overloaded.at("type").as_string(), "error");
  EXPECT_EQ(overloaded.at("request").as_number(), 7);
  EXPECT_EQ(overloaded.at("code").as_string(), "overloaded");
  EXPECT_TRUE(overloaded.at("retryable").as_bool());

  const JsonValue bad =
      JsonValue::parse(render_error_doc(1, ErrorCode::kBadRequest, "nope"));
  EXPECT_FALSE(bad.at("retryable").as_bool());
  EXPECT_FALSE(is_retryable(ErrorCode::kInternal));
  EXPECT_TRUE(is_retryable(ErrorCode::kUnavailable));
}

TEST(Protocol, StatsDocPassesItsOwnValidator) {
  ServeStats stats;
  stats.cells_total = 10;
  stats.memory_hits = 4;
  stats.disk_hits = 1;
  stats.hit_rate = 0.5;
  stats.backend_cells[static_cast<std::size_t>(BackendKind::kAnalytic)] = 3;
  const JsonValue doc = JsonValue::parse(render_stats_doc(stats));
  EXPECT_TRUE(validate_serve_stats(doc).empty());
  // One counter per backend name, keyed by to_string(kind) — nothing else.
  const JsonValue::Object& backends =
      doc.at("stats").at("backends").as_object();
  EXPECT_EQ(backends.size(), kBackendCount);
  for (const BackendKind kind : all_backend_kinds()) {
    EXPECT_EQ(backends.count(to_string(kind)), 1u) << to_string(kind);
  }
  EXPECT_EQ(backends.at("analytic").as_number(), 3);
  EXPECT_EQ(backends.count("distributed"), 0u);
}

TEST(Protocol, ValidatorRejectsMissingFields) {
  EXPECT_FALSE(validate_serve_stats(JsonValue::parse("{}")).empty());
  EXPECT_FALSE(
      validate_serve_stats(
          JsonValue::parse(R"({"serve_schema_version":1,"type":"stats"})"))
          .empty());
  // Drop one cache field: the validator must name it.
  const JsonValue doc = JsonValue::parse(render_stats_doc(ServeStats{}));
  JsonValue::Object mutated = doc.as_object();
  JsonValue::Object stats_obj = mutated.at("stats").as_object();
  JsonValue::Object cache = stats_obj.at("cache").as_object();
  cache.erase("hit_rate");
  stats_obj["cache"] = JsonValue(cache);
  mutated["stats"] = JsonValue(stats_obj);
  const std::vector<std::string> violations =
      validate_serve_stats(JsonValue(mutated));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("hit_rate"), std::string::npos);
}

TEST(Protocol, ThresholdsGateMinAndMaxBounds) {
  ServeStats stats;
  stats.requests = 2;
  stats.cells_total = 10;
  stats.memory_hits = 5;
  stats.disk_hits = 0;
  stats.executed = 5;
  stats.hit_rate = 0.5;
  stats.latency_p99_ms = 12.0;
  const JsonValue doc = JsonValue::parse(render_stats_doc(stats));

  EXPECT_TRUE(check_serve_thresholds(
                  doc, JsonValue::parse(R"({"schema_version":1,
                       "comment":"free-text rationale is not a bound",
                       "min_hit_rate":0.5,"max_p99_ms":100})"))
                  .empty());
  const std::vector<std::string> too_strict = check_serve_thresholds(
      doc, JsonValue::parse(R"({"min_hit_rate":0.9,"max_executed":0})"));
  ASSERT_EQ(too_strict.size(), 2u);
  const std::string joined = too_strict[0] + "\n" + too_strict[1];
  EXPECT_NE(joined.find("hit_rate"), std::string::npos) << joined;
  EXPECT_NE(joined.find("executed"), std::string::npos) << joined;
}

TEST(Protocol, UnknownThresholdKeysAreViolations) {
  const JsonValue doc = JsonValue::parse(render_stats_doc(ServeStats{}));
  const std::vector<std::string> violations = check_serve_thresholds(
      doc, JsonValue::parse(R"({"min_hitrate":0.5})"));  // typo'd key
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("min_hitrate"), std::string::npos);
}

TEST(Client, RawMemberExtractsBalancedValues) {
  const std::string doc =
      R"({"a":1,"run":{"x":[1,2,{"y":"}, tricky"}],"z":2},"b":"s"})";
  EXPECT_EQ(raw_member(doc, "run"),
            R"({"x":[1,2,{"y":"}, tricky"}],"z":2})");
  EXPECT_EQ(raw_member(doc, "a"), "1");
  EXPECT_EQ(raw_member(doc, "b"), R"("s")");
  EXPECT_EQ(raw_member(doc, "absent"), "");
  // A nested "run" key must not shadow the top-level member.
  EXPECT_EQ(raw_member(R"({"o":{"run":0},"run":7})", "run"), "7");
}

TEST(Spec, WriteCampaignSpecRoundTrips) {
  CampaignSpec spec = builtin_campaign("ci-smoke");
  spec.backends = {BackendKind::kSimulate, BackendKind::kAnalytic};
  spec.sigmas = {0.0, 1.5};
  spec.max_fold = 8;
  std::ostringstream rendered;
  write_campaign_spec(rendered, spec);
  const CampaignSpec reparsed = parse_campaign_spec(rendered.str());
  EXPECT_EQ(reparsed.name, spec.name);
  ASSERT_EQ(reparsed.sweeps.size(), spec.sweeps.size());
  for (std::size_t i = 0; i < spec.sweeps.size(); ++i) {
    EXPECT_EQ(reparsed.sweeps[i].algorithm, spec.sweeps[i].algorithm);
    EXPECT_EQ(reparsed.sweeps[i].sizes, spec.sweeps[i].sizes);
  }
  ASSERT_EQ(reparsed.engines.size(), spec.engines.size());
  for (std::size_t i = 0; i < spec.engines.size(); ++i) {
    EXPECT_EQ(to_string(reparsed.engines[i]), to_string(spec.engines[i]));
  }
  EXPECT_EQ(reparsed.backends, spec.backends);
  EXPECT_EQ(reparsed.sigmas, spec.sigmas);
  EXPECT_EQ(reparsed.max_fold, spec.max_fold);
}

TEST(Cache, KeyIsContentAddressedAndStable) {
  const CacheKey key{"fft", 1024, BackendKind::kAnalytic};
  EXPECT_EQ(key.string_key(), "fft|1024|analytic");
  // FNV-1a 64 is a fixed function: the address must never drift, or every
  // warm cache directory in the field silently goes cold.
  EXPECT_EQ(key.file_name(), "fft_n1024_analytic-" + key.content_hash() +
                                 ".nbt");
  EXPECT_EQ(key.content_hash().size(), 16u);
  const CacheKey other{"fft", 2048, BackendKind::kAnalytic};
  EXPECT_NE(other.content_hash(), key.content_hash());
}

}  // namespace
}  // namespace nobl::serve
