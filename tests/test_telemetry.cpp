// Tests for the telemetry subsystem: span nesting and collection, metric
// registry aggregation, the JSON DOM, the exporters, and the
// ledger-to-telemetry bridge. Everything here uses local SpanCollector /
// Registry instances so the global collector state is untouched.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <thread>

#include "sim/comm.hpp"
#include "support/error.hpp"
#include "telemetry/export.hpp"
#include "telemetry/json.hpp"
#include "telemetry/ledger_sink.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"

namespace mfbc::telemetry {
namespace {

#if MFBC_TELEMETRY

TEST(Span, DisabledCollectorRecordsNothing) {
  SpanCollector c;  // enabled defaults to false
  {
    Span s("root", &c);
    EXPECT_FALSE(s.active());
    s.attr("k", std::int64_t{1});
  }
  EXPECT_TRUE(c.finished().empty());
  EXPECT_EQ(c.max_depth(), 0);
}

TEST(Span, NestingTracksParentAndDepth) {
  SpanCollector c;
  c.set_enabled(true);
  {
    Span outer("outer", &c);
    EXPECT_TRUE(outer.active());
    {
      Span mid("mid", &c);
      { Span inner("inner", &c); }
    }
    { Span sibling("sibling", &c); }
  }
  const auto spans = c.finished();  // completion order: inner-first
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].name, "mid");
  EXPECT_EQ(spans[2].name, "sibling");
  EXPECT_EQ(spans[3].name, "outer");
  EXPECT_EQ(spans[3].parent, -1);
  EXPECT_EQ(spans[3].depth, 0);
  EXPECT_EQ(spans[1].parent, spans[3].id);
  EXPECT_EQ(spans[0].parent, spans[1].id);
  EXPECT_EQ(spans[0].depth, 2);
  EXPECT_EQ(spans[2].parent, spans[3].id);
  EXPECT_EQ(spans[2].depth, 1);
  EXPECT_EQ(c.max_depth(), 3);
}

TEST(Span, AttributesAndEarlyEnd) {
  SpanCollector c;
  c.set_enabled(true);
  Span s("phase", &c);
  s.attr("iters", std::int64_t{7});
  s.attr("ratio", 0.5);
  s.attr("plan", std::string("2D-AB"));
  s.end();
  s.end();  // idempotent
  const auto spans = c.finished();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].attrs.size(), 3u);
  EXPECT_EQ(std::get<std::int64_t>(spans[0].attrs[0].second), 7);
  EXPECT_DOUBLE_EQ(std::get<double>(spans[0].attrs[1].second), 0.5);
  EXPECT_EQ(std::get<std::string>(spans[0].attrs[2].second), "2D-AB");
}

TEST(Span, NoteCostLandsOnInnermostOpenSpan) {
  SpanCollector c;
  c.set_enabled(true);
  {
    Span outer("outer", &c);
    {
      Span inner("inner", &c);
      CostTotals t;
      t.words = 10;
      t.events = 1;
      c.note_cost(t);
    }
    CostTotals t2;
    t2.ops = 5;
    t2.events = 1;
    c.note_cost(t2);
  }
  const auto spans = c.finished();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_DOUBLE_EQ(spans[0].cost.words, 10);  // inner
  EXPECT_EQ(spans[0].cost.events, 1);
  EXPECT_DOUBLE_EQ(spans[1].cost.ops, 5);  // outer: only its own charge
  EXPECT_DOUBLE_EQ(spans[1].cost.words, 0);
}

TEST(Span, PerThreadStacksAreIndependent) {
  SpanCollector c;
  c.set_enabled(true);
  Span main_span("main", &c);
  std::thread([&] {
    Span worker("worker", &c);  // different thread: not a child of "main"
  }).join();
  main_span.end();
  const auto spans = c.finished();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "worker");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_NE(spans[0].tid, spans[1].tid);
}

TEST(Registry, CountersGaugesHistogramsAggregate) {
  Registry r;
  r.add("calls");
  r.add("calls", 2);
  r.set("frontier", 10);
  r.set("frontier", 4);  // gauge overwrites
  r.observe("nnz", 1);
  r.observe("nnz", 5);
  r.observe("nnz", 3);
  EXPECT_DOUBLE_EQ(r.value("calls"), 3);
  EXPECT_DOUBLE_EQ(r.value("frontier"), 4);
  EXPECT_FALSE(r.has("missing"));
  EXPECT_DOUBLE_EQ(r.value("missing"), 0);
  const HistStats h = r.histogram("nnz");
  EXPECT_DOUBLE_EQ(h.count, 3);
  EXPECT_DOUBLE_EQ(h.sum, 9);
  EXPECT_DOUBLE_EQ(h.min, 1);
  EXPECT_DOUBLE_EQ(h.max, 5);
  EXPECT_DOUBLE_EQ(h.mean(), 3);
  const auto snap = r.snapshot();
  EXPECT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap.at("calls").kind, MetricKind::kCounter);
  EXPECT_EQ(snap.at("frontier").kind, MetricKind::kGauge);
  EXPECT_EQ(snap.at("nnz").kind, MetricKind::kHistogram);
  r.clear();
  EXPECT_FALSE(r.has("calls"));
}

TEST(Registry, PercentilesExactWhileUnderTheSampleCap) {
  Registry r;
  // 1..100 in a scrambled-ish order: percentile sorts, order is irrelevant.
  for (int v = 100; v >= 1; --v) r.observe("x", v);
  const HistStats h = r.histogram("x");
  EXPECT_DOUBLE_EQ(h.percentile(50), 50);   // nearest rank: ceil(0.50*100)
  EXPECT_DOUBLE_EQ(h.percentile(95), 95);
  EXPECT_DOUBLE_EQ(h.percentile(100), 100);
  EXPECT_DOUBLE_EQ(h.percentile(0), 1);     // clamped to the smallest sample
  EXPECT_DOUBLE_EQ(h.percentile(-5), 1);    // out-of-range p is clamped
  EXPECT_DOUBLE_EQ(h.percentile(200), 100);
}

TEST(Registry, PercentileOfEmptyHistogramIsZero) {
  Registry r;
  EXPECT_DOUBLE_EQ(r.histogram("missing").percentile(50), 0);
}

TEST(Registry, DecimationBoundsSamplesAndKeepsEstimatesClose) {
  Registry r;
  const int n = 50000;  // well past kMaxSamples: several stride doublings
  for (int v = 0; v < n; ++v) r.observe("big", v);
  const HistStats h = r.histogram("big");
  EXPECT_DOUBLE_EQ(h.count, n);
  EXPECT_LE(h.samples.size(), HistStats::kMaxSamples + 1);
  EXPECT_GT(h.stride, 1);
  EXPECT_DOUBLE_EQ(h.min, 0);
  EXPECT_DOUBLE_EQ(h.max, n - 1);
  // The decimated stream is uniform, so percentile estimates stay within a
  // stride of the exact answer.
  EXPECT_NEAR(h.percentile(50), 0.50 * n, 2.0 * static_cast<double>(h.stride));
  EXPECT_NEAR(h.percentile(95), 0.95 * n, 2.0 * static_cast<double>(h.stride));
}

TEST(LedgerSink, RoutesChargesToSpansAndRegistry) {
  SpanCollector c;
  c.set_enabled(true);
  Registry reg;
  sim::Sim sim(4);
  const std::array<int, 4> all{0, 1, 2, 3};
  {
    ScopedLedgerSink sink(sim.ledger(), &c, &reg);
    Span s("work", &c);
    sim.charge_compute(0, 1000);
    sim.charge_bcast(all, 100);
    sim.charge_reduce(all, 50);
  }
  // The sink is gone: further charges must not crash or record anything.
  sim.charge_compute(1, 10);
  const auto spans = c.finished();
  ASSERT_EQ(spans.size(), 1u);
  // Span cost totals are *summed charges* (2 collectives + 1 compute), not
  // the critical-path maxima the ledger reports.
  EXPECT_EQ(spans[0].cost.events, 3);
  EXPECT_DOUBLE_EQ(spans[0].cost.ops, 1000);
  EXPECT_GT(spans[0].cost.words, 0);
  EXPECT_DOUBLE_EQ(reg.value("ledger.collectives"), 2);
  EXPECT_DOUBLE_EQ(reg.value("ledger.ops"), 1000);
  EXPECT_DOUBLE_EQ(reg.histogram("ledger.collective_ranks").max, 4);
  EXPECT_DOUBLE_EQ(reg.value("ledger.ops"), 1000);  // unchanged after uninstall
}

TEST(Export, ChromeTraceRoundTripsWithNesting) {
  SpanCollector c;
  c.set_enabled(true);
  {
    Span batch("mfbc.batch", &c);
    {
      Span phase("mfbc.forward", &c);
      Span mult("dist.spgemm", &c);
      mult.attr("plan", std::string("1D-A[4]"));
      CostTotals t;
      t.words = 12;
      t.events = 1;
      c.note_cost(t);
    }
  }
  EXPECT_EQ(c.max_depth(), 3);
  const Json doc = Json::parse(chrome_trace(c).dump(2));
  const Json& events = doc.at("traceEvents");
  ASSERT_EQ(events.size(), 3u);
  // Completion order: innermost first.
  EXPECT_EQ(events.at(std::size_t{0}).at("name").as_string(), "dist.spgemm");
  EXPECT_EQ(events.at(std::size_t{0}).at("ph").as_string(), "X");
  const Json& args = events.at(std::size_t{0}).at("args");
  EXPECT_EQ(args.at("plan").as_string(), "1D-A[4]");
  EXPECT_DOUBLE_EQ(args.at("ledger.words").as_double(), 12);
  EXPECT_EQ(events.at(std::size_t{2}).at("name").as_string(), "mfbc.batch");
}

TEST(Export, RunSummaryRoundTrips) {
  Registry reg;
  reg.add("iters", 6);
  reg.set("nodes", 16);
  reg.observe("nnz", 2);
  reg.observe("nnz", 4);
  RunSummary summary("smoke");
  summary.set("config", Json("small"));
  Json cell = Json::object();
  cell["mteps"] = Json(1.25);
  summary.add_cell(std::move(cell));
  const Json doc = Json::parse(summary.build(reg).dump());
  EXPECT_EQ(doc.at("schema").as_string(), kRunSummarySchema);
  EXPECT_EQ(doc.at("name").as_string(), "smoke");
  EXPECT_EQ(doc.at("config").as_string(), "small");
  EXPECT_DOUBLE_EQ(
      doc.at("cells").at(std::size_t{0}).at("mteps").as_double(), 1.25);
  EXPECT_DOUBLE_EQ(doc.at("counters").at("iters").as_double(), 6);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("nodes").as_double(), 16);
  EXPECT_DOUBLE_EQ(doc.at("histograms").at("nnz").at("mean").as_double(), 3);
}

#endif  // MFBC_TELEMETRY

TEST(Json, DumpAndParseRoundTrip) {
  Json j = Json::object();
  j["int"] = Json(42);
  j["neg"] = Json(-7);
  j["real"] = Json(0.125);
  j["flag"] = Json(true);
  j["none"] = Json(nullptr);
  j["text"] = Json("line\n\"quoted\"\t\\slash");
  Json arr = Json::array();
  arr.push(Json(1)).push(Json("two"));
  j["arr"] = std::move(arr);
  for (int indent : {-1, 2}) {
    const Json back = Json::parse(j.dump(indent));
    EXPECT_DOUBLE_EQ(back.at("int").as_double(), 42);
    EXPECT_DOUBLE_EQ(back.at("neg").as_double(), -7);
    EXPECT_DOUBLE_EQ(back.at("real").as_double(), 0.125);
    EXPECT_TRUE(back.at("flag").as_bool());
    EXPECT_TRUE(back.at("none").is_null());
    EXPECT_EQ(back.at("text").as_string(), "line\n\"quoted\"\t\\slash");
    EXPECT_EQ(back.at("arr").size(), 2u);
    EXPECT_EQ(back.at("arr").at(std::size_t{1}).as_string(), "two");
  }
}

TEST(Json, IntegersDumpWithoutExponent) {
  EXPECT_EQ(Json(1000000).dump(), "1000000");
  EXPECT_EQ(Json(-3).dump(), "-3");
  EXPECT_EQ(Json(2.5).dump(), "2.5");
}

TEST(Json, ObjectKeysKeepInsertionOrder) {
  Json j = Json::object();
  j["zebra"] = Json(1);
  j["alpha"] = Json(2);
  EXPECT_EQ(j.dump(), "{\"zebra\":1,\"alpha\":2}");
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), ::mfbc::Error);
  EXPECT_THROW(Json::parse("{"), ::mfbc::Error);
  EXPECT_THROW(Json::parse("[1,]"), ::mfbc::Error);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), ::mfbc::Error);
  EXPECT_THROW(Json::parse("nul"), ::mfbc::Error);
  EXPECT_THROW(Json::parse("\"unterminated"), ::mfbc::Error);
}

// Nesting is bounded: 100,000 brackets are a named parse error, not a
// stack overflow, while the few levels the exporters write still parse.
TEST(Json, ParseRejectsNestingPastTheDepthBound) {
  for (const std::string& deep :
       {std::string(100000, '['), std::string(100000, '{'),
        std::string(100000, '[') + std::string(100000, ']')}) {
    try {
      Json::parse(deep);
      ADD_FAILURE() << "100,000 nested brackets parsed";
    } catch (const ::mfbc::Error& e) {
      EXPECT_NE(std::string(e.what()).find("json parse error"),
                std::string::npos)
          << e.what();
    }
  }
  const std::string shallow = std::string(64, '[') + std::string(64, ']');
  EXPECT_EQ(Json::parse(shallow).dump(), shallow);
}

TEST(Json, TypedAccessorsThrowOnMismatch) {
  EXPECT_THROW(Json(1.0).as_string(), ::mfbc::Error);
  EXPECT_THROW(Json("x").as_double(), ::mfbc::Error);
  EXPECT_THROW(Json(1.0).at("k"), ::mfbc::Error);
  Json obj = Json::object();
  EXPECT_THROW(obj.at("missing"), ::mfbc::Error);
  EXPECT_EQ(obj.find("missing"), nullptr);
}

TEST(Json, UnicodeEscapesParse) {
  const Json j = Json::parse("\"a\\u0041\\u00e9\"");
  EXPECT_EQ(j.as_string(), "aA\xc3\xa9");
}

}  // namespace
}  // namespace mfbc::telemetry
