// Protocol-layer unit tests: the JSON parser/writer, the incremental
// HTTP/1.1 parser with its input limits, and the XSKB wire codec —
// including the hostile inputs each must refuse (truncated frames,
// oversized bodies, absurd declared counts) since all three sit directly
// on untrusted network bytes.

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "net/http.h"
#include "net/json.h"
#include "net/wire.h"

namespace xsketch::net {
namespace {

// --- JSON ----------------------------------------------------------------

TEST(JsonTest, ParsesScalarsArraysObjects) {
  auto v = ParseJson(R"({"doc":"bib","n":2.5,"flag":true,"nil":null,)"
                     R"("qs":["//a","//b"]})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  const std::string* doc = v.value().FindString("doc");
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(*doc, "bib");
  const double* n = v.value().FindNumber("n");
  ASSERT_NE(n, nullptr);
  EXPECT_DOUBLE_EQ(*n, 2.5);
  EXPECT_TRUE(v.value().Find("nil")->is_null());
  const JsonValue* qs = v.value().Find("qs");
  ASSERT_NE(qs, nullptr);
  ASSERT_EQ(qs->kind(), JsonValue::Kind::kArray);
  ASSERT_EQ(qs->array().size(), 2u);
  EXPECT_EQ(qs->array()[1].string_value(), "//b");
  // Wrong-type lookups answer nullptr, not garbage.
  EXPECT_EQ(v.value().FindString("n"), nullptr);
  EXPECT_EQ(v.value().FindNumber("doc"), nullptr);
  EXPECT_EQ(v.value().Find("absent"), nullptr);
}

TEST(JsonTest, ParsesStringEscapes) {
  auto v = ParseJson(R"("a\"b\\c\n\tA")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().string_value(), "a\"b\\c\n\tA");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("tru").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("1 2").ok());  // trailing garbage
  EXPECT_FALSE(ParseJson("{\"a\":1} x").ok());
}

TEST(JsonTest, DepthCapStopsNestingBombs) {
  std::string deep;
  for (int i = 0; i < 64; ++i) deep += "[";
  for (int i = 0; i < 64; ++i) deep += "]";
  EXPECT_FALSE(ParseJson(deep, /*max_depth=*/32).ok());
  EXPECT_TRUE(ParseJson(deep, /*max_depth=*/128).ok());
}

TEST(JsonTest, WriterEscapesAndRoundTrips) {
  std::string out;
  AppendJsonString(&out, "a\"b\\c\nd\x01");
  auto back = ParseJson(out);
  ASSERT_TRUE(back.ok()) << out;
  EXPECT_EQ(back.value().string_value(), "a\"b\\c\nd\x01");

  out.clear();
  AppendJsonNumber(&out, 2700.0);
  auto num = ParseJson(out);
  ASSERT_TRUE(num.ok());
  EXPECT_DOUBLE_EQ(num.value().number_value(), 2700.0);

  out.clear();
  AppendJsonNumber(&out, std::nan(""));
  EXPECT_EQ(out, "null");  // JSON has no NaN
}

// The number writer AppendJsonNumber replaced: the shortest of
// printf("%.<p>g") for p = 1..17 that strtod reads back exactly.
std::string SeventeenPrecisionLoop(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  for (int prec = 1; prec <= 17; ++prec) {
    char trial[32];
    std::snprintf(trial, sizeof(trial), "%.*g", prec, v);
    if (std::strtod(trial, nullptr) == v) return trial;
  }
  return buf;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

TEST(JsonTest, NumbersRoundTripBitExactInShortestText) {
  std::vector<double> values = {
      -0.0,
      0.0,
      5e-324,  // smallest subnormal
      std::numeric_limits<double>::min(),
      DBL_MAX,
      -DBL_MAX,
      9007199254740993.0,  // 2^53 + 1, rounds to 2^53
      1e21,
      1e-7,
      100.0,
      0.1,
      2700.0,
  };
  // Seeded sweep over raw bit patterns: every exponent and mantissa shape.
  std::mt19937_64 rng(20240611);
  while (values.size() < 20000) {
    const double v = std::bit_cast<double>(rng());
    if (std::isfinite(v)) values.push_back(v);
  }
  for (const double v : values) {
    std::string out;
    AppendJsonNumber(&out, v);
    auto back = ParseJson(out);
    ASSERT_TRUE(back.ok()) << out << ": " << back.status().ToString();
    ASSERT_EQ(back.value().kind(), JsonValue::Kind::kNumber) << out;
    EXPECT_EQ(Bits(back.value().number_value()), Bits(v)) << out;
    EXPECT_LE(out.size(), SeventeenPrecisionLoop(v).size()) << out;
  }
}

TEST(JsonTest, NonFiniteNumbersRenderNull) {
  for (const double v : {std::nan(""), -std::nan(""),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    std::string out;
    AppendJsonNumber(&out, v);
    EXPECT_EQ(out, "null");
  }
}

TEST(JsonTest, IntegralNumbersRenderWithoutExponent) {
  // The precision loop wrote 100 as "1e+02"; shortest round-trip is "100".
  EXPECT_EQ(SeventeenPrecisionLoop(100.0), "1e+02");
  std::string out;
  AppendJsonNumber(&out, 100.0);
  EXPECT_EQ(out, "100");
}

// --- HTTP ----------------------------------------------------------------

HttpLimits DefaultLimits() { return HttpLimits{}; }

TEST(HttpTest, ParsesRequestWithBodyAndPipelining) {
  const std::string one =
      "POST /estimate?x=a%20b HTTP/1.1\r\nHost: h\r\n"
      "Content-Length: 4\r\nX-Deadline-Ms: 50\r\n\r\nbody";
  const std::string two = "GET /healthz HTTP/1.1\r\nHost: h\r\n\r\n";
  auto r = ParseHttpRequest(one + two, DefaultLimits());
  ASSERT_EQ(r.outcome, HttpParseOutcome::kRequest);
  EXPECT_EQ(r.consumed, one.size());  // pipelined bytes left for the next parse
  EXPECT_EQ(r.request.method, "POST");
  EXPECT_EQ(r.request.path, "/estimate");
  EXPECT_EQ(r.request.body, "body");
  ASSERT_NE(r.request.Header("x-deadline-ms"), nullptr);  // lowercased
  EXPECT_EQ(*r.request.Header("x-deadline-ms"), "50");
  auto param = r.request.QueryParam("x");
  ASSERT_TRUE(param.has_value());
  EXPECT_EQ(*param, "a b");  // percent-decoded
  EXPECT_TRUE(r.request.keep_alive);

  auto r2 = ParseHttpRequest(two, DefaultLimits());
  ASSERT_EQ(r2.outcome, HttpParseOutcome::kRequest);
  EXPECT_EQ(r2.request.method, "GET");
}

TEST(HttpTest, IncompleteInputNeedsMore) {
  const std::string full =
      "POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\n0123456789";
  for (size_t cut = 0; cut < full.size(); ++cut) {
    auto r = ParseHttpRequest(full.substr(0, cut), DefaultLimits());
    EXPECT_EQ(r.outcome, HttpParseOutcome::kNeedMore) << "cut at " << cut;
  }
  EXPECT_EQ(ParseHttpRequest(full, DefaultLimits()).outcome,
            HttpParseOutcome::kRequest);
}

TEST(HttpTest, ConnectionCloseDisablesKeepAlive) {
  auto r = ParseHttpRequest(
      "GET / HTTP/1.1\r\nConnection: close\r\n\r\n", DefaultLimits());
  ASSERT_EQ(r.outcome, HttpParseOutcome::kRequest);
  EXPECT_FALSE(r.request.keep_alive);
}

TEST(HttpTest, LimitsAndProtocolErrors) {
  HttpLimits limits;
  limits.max_header_bytes = 128;
  limits.max_body_bytes = 16;

  // Header section larger than the cap: 431 even before CRLFCRLF arrives.
  auto big_header = ParseHttpRequest(
      "GET / HTTP/1.1\r\nX-Pad: " + std::string(256, 'a'), limits);
  EXPECT_EQ(big_header.outcome, HttpParseOutcome::kError);
  EXPECT_EQ(big_header.error_status, 431);

  auto big_body = ParseHttpRequest(
      "POST / HTTP/1.1\r\nContent-Length: 1000\r\n\r\n", limits);
  EXPECT_EQ(big_body.outcome, HttpParseOutcome::kError);
  EXPECT_EQ(big_body.error_status, 413);

  auto chunked = ParseHttpRequest(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", limits);
  EXPECT_EQ(chunked.outcome, HttpParseOutcome::kError);
  EXPECT_EQ(chunked.error_status, 501);

  auto bad_version = ParseHttpRequest("GET / HTTP/2.0\r\n\r\n", limits);
  EXPECT_EQ(bad_version.outcome, HttpParseOutcome::kError);
  EXPECT_EQ(bad_version.error_status, 505);

  auto garbage = ParseHttpRequest("garbage\r\n\r\n", limits);
  EXPECT_EQ(garbage.outcome, HttpParseOutcome::kError);
  EXPECT_EQ(garbage.error_status, 400);

  auto bad_target = ParseHttpRequest("GET foo HTTP/1.1\r\n\r\n", limits);
  EXPECT_EQ(bad_target.outcome, HttpParseOutcome::kError);
  EXPECT_EQ(bad_target.error_status, 400);

  auto bad_length = ParseHttpRequest(
      "POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n", limits);
  EXPECT_EQ(bad_length.outcome, HttpParseOutcome::kError);
  EXPECT_EQ(bad_length.error_status, 400);
}

TEST(HttpTest, SerializeRoundTripsStatusAndHeaders) {
  const std::string resp = SerializeHttpResponse(
      429, "application/json", "{\"error\":\"overloaded\"}",
      /*keep_alive=*/true, {{"Retry-After", "1"}});
  EXPECT_EQ(resp.compare(0, 12, "HTTP/1.1 429"), 0) << resp;
  EXPECT_NE(resp.find("Retry-After: 1\r\n"), std::string::npos);
  EXPECT_NE(resp.find("Content-Length: 22\r\n"), std::string::npos);
  EXPECT_NE(resp.find("\r\n\r\n{\"error\":\"overloaded\"}"),
            std::string::npos);
}

// --- XSKB wire framing ---------------------------------------------------

TEST(WireTest, FrameRoundTripAndIncrementalParse) {
  std::string buf;
  AppendWireFrame(&buf, FrameType::kEstimate, "payload");
  // Every strict prefix needs more bytes.
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    auto r = ParseWireFrame(std::string_view(buf).substr(0, cut), 1 << 20);
    EXPECT_EQ(r.outcome, WireParseOutcome::kNeedMore) << "cut at " << cut;
  }
  auto r = ParseWireFrame(buf, 1 << 20);
  ASSERT_EQ(r.outcome, WireParseOutcome::kFrame);
  EXPECT_EQ(r.consumed, buf.size());
  EXPECT_EQ(r.frame.type, static_cast<uint8_t>(FrameType::kEstimate));
  EXPECT_EQ(r.frame.payload, "payload");
}

TEST(WireTest, OversizedDeclaredFrameIsAnError) {
  std::string buf;
  buf.push_back(static_cast<char>(FrameType::kBatch));
  const uint32_t huge = 1u << 30;  // declared, never sent
  buf.append(reinterpret_cast<const char*>(&huge), 4);
  auto r = ParseWireFrame(buf, /*max_frame_bytes=*/1 << 20);
  EXPECT_EQ(r.outcome, WireParseOutcome::kError);
}

TEST(WireTest, EstimateRequestRoundTrip) {
  WireEstimateRequest req;
  req.deadline_ms = 250;
  req.doc = "movies";
  req.query = "//movie[year]/title";
  auto back = DecodeEstimateRequest(EncodeEstimateRequest(req));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().deadline_ms, 250u);
  EXPECT_EQ(back.value().doc, "movies");
  EXPECT_EQ(back.value().query, "//movie[year]/title");
}

TEST(WireTest, BatchRoundTripIncludingPerQueryErrors) {
  WireBatchRequest req;
  req.doc = "bib";
  req.queries = {"//a", "//b", "//c"};
  auto back = DecodeBatchRequest(EncodeBatchRequest(req));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().queries, req.queries);

  WireBatchResponse resp;
  resp.deadline_exceeded = true;
  resp.abandoned = 1;
  resp.results.resize(3);
  resp.results[0].ok = true;
  resp.results[0].estimate = 42.5;
  resp.results[1].ok = false;
  resp.results[1].code = NackCode::kBadRequest;
  resp.results[1].error = "parse error";
  resp.results[2].ok = false;
  resp.results[2].code = NackCode::kDeadline;
  auto rt = DecodeBatchResponse(EncodeBatchResponse(resp));
  ASSERT_TRUE(rt.ok());
  EXPECT_TRUE(rt.value().deadline_exceeded);
  EXPECT_EQ(rt.value().abandoned, 1u);
  ASSERT_EQ(rt.value().results.size(), 3u);
  EXPECT_DOUBLE_EQ(rt.value().results[0].estimate, 42.5);
  EXPECT_EQ(rt.value().results[1].code, NackCode::kBadRequest);
  EXPECT_EQ(rt.value().results[1].error, "parse error");
  EXPECT_EQ(rt.value().results[2].code, NackCode::kDeadline);
}

TEST(WireTest, NackAndEstimateOkRoundTrip) {
  auto nack = DecodeNack(EncodeNack(NackCode::kOverload, "queue full"));
  ASSERT_TRUE(nack.ok());
  EXPECT_EQ(nack.value().first, NackCode::kOverload);
  EXPECT_EQ(nack.value().second, "queue full");

  auto ok = DecodeEstimateOk(EncodeEstimateOk(2700.0));
  ASSERT_TRUE(ok.ok());
  EXPECT_DOUBLE_EQ(ok.value(), 2700.0);
}

TEST(WireTest, TruncatedAndHostilePayloadsAreRejected) {
  WireEstimateRequest req;
  req.doc = "bib";
  req.query = "//book";
  const std::string good = EncodeEstimateRequest(req);
  for (size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_FALSE(DecodeEstimateRequest(good.substr(0, cut)).ok())
        << "cut at " << cut;
  }

  // A batch declaring 2^31 queries with a 20-byte payload must be
  // rejected by arithmetic, not by attempting a 2^31-element reserve.
  std::string hostile;
  const uint32_t deadline = 0;
  hostile.append(reinterpret_cast<const char*>(&deadline), 4);
  const uint16_t doc_len = 1;
  hostile.append(reinterpret_cast<const char*>(&doc_len), 2);
  hostile.push_back('b');
  const uint32_t count = 1u << 31;
  hostile.append(reinterpret_cast<const char*>(&count), 4);
  EXPECT_FALSE(DecodeBatchRequest(hostile).ok());

  EXPECT_FALSE(DecodeEstimateOk("short").ok());
  EXPECT_FALSE(DecodeNack("").ok());
}

}  // namespace
}  // namespace xsketch::net
