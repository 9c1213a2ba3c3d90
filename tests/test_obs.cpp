// Observability layer tests: sharded metrics under real parallel load, span
// nesting, trace/metrics JSON validity (checked with an in-test JSON
// parser), routing statistics, structured events and the logger upgrades.
#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/sink.h"
#include "core/gating.h"
#include "obs/events.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/routing.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "test_util.h"

namespace nebula {
namespace {

using testutil::ScopedPool;

// Minimal recursive-descent JSON parser — only validates, never builds a
// tree. Strict enough to catch comma/quote/brace bugs in the writers.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek('}')) return true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!expect(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek('}')) return true;
      if (!expect(',')) return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek(']')) return true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek(']')) return true;
      if (!expect(',')) return false;
    }
  }
  bool string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    return expect('"');
  }
  bool number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '-' || s_[pos_] == '+')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    }
    return true;
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool expect(char c) { return peek(c); }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// Captures every line written through the shared sink abstraction.
class CaptureSink : public LineSink {
 public:
  void write_line(const std::string& line) override {
    lines.push_back(line);
  }
  std::vector<std::string> lines;
};

// ---- Metrics ----------------------------------------------------------------

TEST(Metrics, ConcurrentCounterIncrementsAreExact) {
  obs::Counter& c = obs::counter("test.concurrent_counter");
  c.reset();
  ScopedPool scoped(4);
  constexpr std::size_t kN = 200000;
  scoped.pool().parallel_for(0, kN, [&](std::size_t) { c.add(1); }, 64);
  EXPECT_EQ(c.value(), static_cast<std::int64_t>(kN));
}

TEST(Metrics, ConcurrentHistogramObservationsAreExact) {
  obs::Histogram& h =
      obs::histogram("test.concurrent_hist", {1.0, 2.0, 3.0});
  h.reset();
  ScopedPool scoped(4);
  constexpr std::size_t kN = 40000;
  scoped.pool().parallel_for(
      0, kN, [&](std::size_t i) { h.observe(static_cast<double>(i % 4)); },
      64);
  EXPECT_EQ(h.count(), static_cast<std::int64_t>(kN));
  const auto counts = h.counts();
  ASSERT_EQ(counts.size(), 4u);
  // i%4 == 0,1 -> bucket<=1; ==2 -> bucket<=2; ==3 -> bucket<=3.
  EXPECT_EQ(counts[0], static_cast<std::int64_t>(kN / 2));
  EXPECT_EQ(counts[1], static_cast<std::int64_t>(kN / 4));
  EXPECT_EQ(counts[2], static_cast<std::int64_t>(kN / 4));
  EXPECT_EQ(counts[3], 0);
  EXPECT_NEAR(h.sum(), static_cast<double>(kN) * 1.5, 1e-6);
}

TEST(Metrics, GaugeSetAndAdd) {
  obs::Gauge& g = obs::gauge("test.gauge");
  g.set(2.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Metrics, RegistryJsonIsValidAndCarriesValues) {
  obs::counter("test.json_counter").reset();
  obs::counter("test.json_counter").add(7);
  std::ostringstream os;
  obs::MetricsRegistry::instance().write_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"test.json_counter\":7"), std::string::npos);
  EXPECT_NE(json.find("\"schema\":1"), std::string::npos);
}

TEST(Metrics, ExpBoundsAreAscending) {
  const auto b = obs::exp_bounds(1e-3, 10.0, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 1e-3);
  EXPECT_DOUBLE_EQ(b[3], 1.0);
  EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
}

// ---- Tracer -----------------------------------------------------------------
// These assert recording behaviour, so they only exist when tracing is
// compiled in (the default; -DNEBULA_NO_TRACE strips NEBULA_SPAN entirely).
#ifndef NEBULA_OBS_NO_TRACE

TEST(Trace, SpanNestingMatchesCallStructure) {
  obs::Tracer& tracer = obs::Tracer::instance();
  const bool was_enabled = tracer.enabled();
  tracer.clear();
  tracer.enable();
  {
    NEBULA_SPAN("test.outer");
    {
      NEBULA_SPAN("test.inner_a");
    }
    {
      NEBULA_SPAN("test.inner_b");
    }
  }
  if (!was_enabled) tracer.disable();

  const auto events = tracer.snapshot();
  const obs::TraceEvent* outer = nullptr;
  const obs::TraceEvent* inner_a = nullptr;
  const obs::TraceEvent* inner_b = nullptr;
  for (const auto& e : events) {
    const std::string name = e.name;
    if (name == "test.outer") outer = &e;
    if (name == "test.inner_a") inner_a = &e;
    if (name == "test.inner_b") inner_b = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner_a, nullptr);
  ASSERT_NE(inner_b, nullptr);
  // Same thread, and both inner spans contained in (and disjoint within)
  // the outer span — the containment Perfetto reconstructs the tree from.
  EXPECT_EQ(outer->tid, inner_a->tid);
  EXPECT_EQ(outer->tid, inner_b->tid);
  const auto end = [](const obs::TraceEvent* e) {
    return e->start_ns + e->dur_ns;
  };
  EXPECT_GE(inner_a->start_ns, outer->start_ns);
  EXPECT_LE(end(inner_a), end(outer));
  EXPECT_GE(inner_b->start_ns, outer->start_ns);
  EXPECT_LE(end(inner_b), end(outer));
  EXPECT_LE(end(inner_a), inner_b->start_ns);
  tracer.clear();
}

TEST(Trace, JsonExportIsValidChromeTraceShape) {
  obs::Tracer& tracer = obs::Tracer::instance();
  const bool was_enabled = tracer.enabled();
  tracer.clear();
  tracer.enable();
  {
    NEBULA_SPAN("test.export");
  }
  if (!was_enabled) tracer.disable();
  std::ostringstream os;
  tracer.write_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test.export\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  tracer.clear();
}

TEST(Trace, DisabledSpansRecordNothing) {
  obs::Tracer& tracer = obs::Tracer::instance();
  const bool was_enabled = tracer.enabled();
  tracer.disable();
  tracer.clear();
  {
    NEBULA_SPAN("test.should_not_appear");
  }
  EXPECT_TRUE(tracer.snapshot().empty());
  if (was_enabled) tracer.enable();
}

TEST(Trace, DisabledSpanOverheadIsNegligible) {
  obs::Tracer& tracer = obs::Tracer::instance();
  const bool was_enabled = tracer.enabled();
  tracer.disable();
  constexpr int kIters = 1000000;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    NEBULA_SPAN("test.disabled_hot");
  }
  const double ns_per_iter =
      std::chrono::duration<double, std::nano>(
          std::chrono::steady_clock::now() - start)
          .count() /
      kIters;
  if (was_enabled) tracer.enable();
  // One relaxed load per span. Guarded generously (CI noise, sanitizers):
  // a mutex or map lookup on this path would blow way past this bound.
  EXPECT_LT(ns_per_iter, 150.0);
}

#endif  // NEBULA_OBS_NO_TRACE

// ---- Routing stats ----------------------------------------------------------

TEST(Routing, UniformLoadIsBalanced) {
  const auto rs = obs::routing_stats({1.0, 1.0, 1.0, 1.0});
  ASSERT_EQ(rs.utilisation.size(), 4u);
  for (double u : rs.utilisation) EXPECT_NEAR(u, 0.25, 1e-12);
  EXPECT_NEAR(rs.normalized_entropy, 1.0, 1e-12);
  EXPECT_NEAR(rs.imbalance, 1.0, 1e-12);
}

TEST(Routing, CollapsedLoadIsMaximallyImbalanced) {
  const auto rs = obs::routing_stats({0.0, 5.0, 0.0, 0.0});
  EXPECT_NEAR(rs.normalized_entropy, 0.0, 1e-12);
  EXPECT_NEAR(rs.imbalance, 4.0, 1e-12);
}

TEST(Routing, AllZeroFallsBackToUniform) {
  const auto rs = obs::routing_stats({0.0, 0.0});
  EXPECT_NEAR(rs.utilisation[0], 0.5, 1e-12);
  EXPECT_NEAR(rs.normalized_entropy, 1.0, 1e-12);
}

TEST(Routing, SelectorUtilisationSumsToOnePerLayer) {
  ModuleSelector selector(/*input_dim=*/16, /*embed_dim=*/8,
                          /*layer_widths=*/{4, 6});
  Tensor x({12, 16});
  Rng rng(42);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = rng.normal();
  }
  const auto stats = selector_routing_stats(selector, x, /*top_k=*/2);
  ASSERT_EQ(stats.size(), 2u);
  for (std::size_t l = 0; l < stats.size(); ++l) {
    double soft_sum = 0.0, topk_sum = 0.0;
    for (double u : stats[l].soft.utilisation) soft_sum += u;
    for (double u : stats[l].topk.utilisation) topk_sum += u;
    EXPECT_NEAR(soft_sum, 1.0, 1e-9) << "layer " << l;
    EXPECT_NEAR(topk_sum, 1.0, 1e-9) << "layer " << l;
    EXPECT_GE(stats[l].soft.normalized_entropy, 0.0);
    EXPECT_LE(stats[l].soft.normalized_entropy, 1.0 + 1e-12);
    EXPECT_GE(stats[l].topk.imbalance, 1.0 - 1e-12);
  }
}

// ---- Events -----------------------------------------------------------------

TEST(Events, SinkToggleAndEmission) {
  obs::EventLog& log = obs::EventLog::instance();
  auto capture = std::make_shared<CaptureSink>();
  log.set_sink(capture);
  EXPECT_TRUE(log.enabled());
  obs::JsonWriter w;
  w.begin_object().key("type").value("round").end_object();
  log.emit(w.str());
  log.set_sink(nullptr);
  EXPECT_FALSE(log.enabled());
  ASSERT_EQ(capture->lines.size(), 1u);
  EXPECT_EQ(capture->lines[0], "{\"type\":\"round\"}");
}

// ---- JsonWriter -------------------------------------------------------------

TEST(JsonWriterTest, EscapesAndNestsCorrectly) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("s").value("a\"b\\c\nd");
  w.key("arr").begin_array().value(1).value(2.5).value(true).end_array();
  w.key("nested").begin_object().key("x").value(std::int64_t{-3}).end_object();
  w.end_object();
  const std::string json = w.str();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_EQ(json,
            "{\"s\":\"a\\\"b\\\\c\\nd\",\"arr\":[1,2.5,true],"
            "\"nested\":{\"x\":-3}}");
}

TEST(JsonWriterTest, NonFiniteNumbersBecomeNull) {
  obs::JsonWriter w;
  w.begin_array().value(std::nan("")).value(1.0).end_array();
  EXPECT_EQ(w.str(), "[null,1]");
}

// ---- Logging upgrades -------------------------------------------------------

TEST(LoggingObs, PrefixCarriesTimestampThreadAndLevel) {
  Logger& logger = Logger::instance();
  const LogLevel prev = logger.level();
  auto capture = std::make_shared<CaptureSink>();
  logger.set_sink(capture);
  logger.set_level(LogLevel::kInfo);
  NEBULA_LOG(kInfo) << "hello obs";
  logger.set_sink(nullptr);
  logger.set_level(prev);
  ASSERT_EQ(capture->lines.size(), 1u);
  const std::string& line = capture->lines[0];
  EXPECT_NE(line.find("[INFO] hello obs"), std::string::npos) << line;
  EXPECT_NE(line.find("[t"), std::string::npos) << line;
  EXPECT_EQ(line.front(), '[') << line;
}

TEST(LoggingObs, ParseLevelAcceptsNamesAndDigits) {
  EXPECT_EQ(Logger::parse_level("debug", LogLevel::kError), LogLevel::kDebug);
  EXPECT_EQ(Logger::parse_level("WARN", LogLevel::kError), LogLevel::kWarn);
  EXPECT_EQ(Logger::parse_level("warning", LogLevel::kError), LogLevel::kWarn);
  EXPECT_EQ(Logger::parse_level("2", LogLevel::kError), LogLevel::kWarn);
  EXPECT_EQ(Logger::parse_level("bogus", LogLevel::kInfo), LogLevel::kInfo);
}

}  // namespace
}  // namespace nebula
