// Unit tests for the observability subsystem (src/obs/): histogram bucket
// boundaries, trace ring-buffer wraparound, JSON export round-trips, typed
// trace fields and their rendering, the InvariantChecker rules on synthetic
// streams, and the BENCH_*.json result-file writer.
//
// The round-trip tests bring their own strict recursive-descent JSON parser
// (the emitter promises RFC 8259; the parser holds it to that), so every
// assertion here consumes the exported bytes, not the writer's internals.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "../../bench/support.hpp"
#include "obs/invariants.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace eternal::obs {
namespace {

// ------------------------------------------------------------ JSON parser

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& k) const {
    auto it = object.find(k);
    if (it == object.end()) throw std::runtime_error("missing key: " + k);
    return it->second;
  }
  bool has(const std::string& k) const { return object.count(k) != 0; }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json parse error at offset " + std::to_string(pos_) +
                             ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    JsonValue v;
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"':
        v.kind = JsonValue::kString;
        v.string = parse_string();
        return v;
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        v.kind = JsonValue::kBool;
        v.boolean = true;
        return v;
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        v.kind = JsonValue::kBool;
        return v;
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return v;
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= (unsigned)(h - '0');
            else if (h >= 'a' && h <= 'f') code |= (unsigned)(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= (unsigned)(h - 'A' + 10);
            else fail("bad hex digit");
          }
          if (code > 0x7F) fail("test parser only handles ASCII escapes");
          out += static_cast<char>(code);
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit((unsigned char)text_[pos_]) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected number");
    JsonValue v;
    v.kind = JsonValue::kNumber;
    v.number = std::stod(std::string(text_.substr(start, pos_ - start)));
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

JsonValue parse_json(std::string_view text) { return JsonParser(text).parse(); }

// ------------------------------------------------------------- JsonWriter

TEST(JsonWriter, CommaPlacementAcrossNestedContainers) {
  JsonWriter w;
  w.begin_object();
  w.field("a", std::uint64_t{1});
  w.key("b");
  w.begin_array();
  w.value(std::uint64_t{2});
  w.begin_object();
  w.field("c", "x");
  w.end_object();
  w.value(true);
  w.null();
  w.end_array();
  w.field("d", 3.5);
  w.end_object();
  EXPECT_EQ(std::move(w).take(), R"({"a":1,"b":[2,{"c":"x"},true,null],"d":3.5})");
}

TEST(JsonWriter, EscapesControlCharactersAndQuotes) {
  JsonWriter w;
  w.value(std::string_view("a\"b\\c\nd\te\x01" "f"));
  EXPECT_EQ(std::move(w).take(), "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::nan(""));
  w.end_array();
  EXPECT_EQ(std::move(w).take(), "[null,null]");
}

TEST(JsonWriter, RawSplicesPreSerializedValue) {
  JsonWriter inner;
  inner.begin_object();
  inner.field("x", std::uint64_t{7});
  inner.end_object();

  JsonWriter w;
  w.begin_object();
  w.field("a", std::uint64_t{1});
  w.key("nested");
  w.raw(std::move(inner).take());
  w.field("b", std::uint64_t{2});
  w.end_object();
  const std::string out = std::move(w).take();
  EXPECT_EQ(out, R"({"a":1,"nested":{"x":7},"b":2})");
  EXPECT_EQ(parse_json(out).at("nested").at("x").number, 7.0);
}

// -------------------------------------------------------------- Histogram

TEST(Histogram, BoundsAreInclusiveUpperEdges) {
  Histogram h({10, 20});
  h.observe(10);  // lands in bucket 0: value <= 10
  h.observe(11);  // bucket 1
  h.observe(20);  // bucket 1: inclusive edge
  h.observe(21);  // overflow bucket
  ASSERT_EQ(h.counts().size(), 3u);
  EXPECT_EQ(h.counts()[0], 1u);
  EXPECT_EQ(h.counts()[1], 2u);
  EXPECT_EQ(h.counts()[2], 1u);
}

TEST(Histogram, TracksCountSumMinMaxMean) {
  Histogram h({100});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u) << "empty histogram reports min 0, not uint64 max";
  EXPECT_EQ(h.mean(), 0.0);
  h.observe(4);
  h.observe(16);
  h.observe(1000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1020u);
  EXPECT_EQ(h.min(), 4u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 340.0);
}

TEST(Histogram, ExponentialBoundsAreStrictlyAscending) {
  const auto doubling = Histogram::exponential(1000, 2.0, 4);
  EXPECT_EQ(doubling, (std::vector<std::uint64_t>{1000, 2000, 4000, 8000}));

  // A degenerate factor must still produce usable (strictly ascending) bounds.
  const auto flat = Histogram::exponential(5, 1.0, 4);
  for (std::size_t i = 1; i < flat.size(); ++i) EXPECT_GT(flat[i], flat[i - 1]);

  const auto& latency = Histogram::default_latency_bounds();
  ASSERT_FALSE(latency.empty());
  EXPECT_EQ(latency.front(), 1000u);  // 1 us in ns
  for (std::size_t i = 1; i < latency.size(); ++i)
    EXPECT_EQ(latency[i], latency[i - 1] * 2);
}

TEST(Histogram, PercentileEdgeCases) {
  Histogram empty({10, 20});
  EXPECT_EQ(empty.percentile(50), 0.0) << "empty histogram: every percentile is 0";
  EXPECT_EQ(empty.percentile(0), 0.0);
  EXPECT_EQ(empty.percentile(100), 0.0);

  Histogram one({10, 20});
  one.observe(15);
  // A single sample IS every percentile: the in-bucket interpolation is
  // clamped to [min, max] = [15, 15], so no bucket edge can leak out.
  EXPECT_EQ(one.percentile(0), 15.0);
  EXPECT_EQ(one.percentile(50), 15.0);
  EXPECT_EQ(one.percentile(100), 15.0);

  Histogram h({10, 20});
  h.observe(5);
  h.observe(15);
  h.observe(18);
  EXPECT_EQ(h.percentile(0), 5.0) << "p0 is the observed minimum";
  EXPECT_EQ(h.percentile(-3), 5.0) << "negative p clamps to the minimum";
  EXPECT_EQ(h.percentile(100), 18.0) << "p100 is the observed maximum";
  EXPECT_EQ(h.percentile(250), 18.0) << "p>100 clamps to the maximum";

  // Percentiles landing in the overflow bucket (beyond the last bound) have
  // no upper edge to interpolate against; they report the observed max.
  Histogram overflow({10});
  overflow.observe(1);
  overflow.observe(5000);
  overflow.observe(9000);
  EXPECT_EQ(overflow.percentile(99), 9000.0);
  EXPECT_EQ(overflow.percentile(60), 9000.0);

  // Non-finite p must not poison the rank arithmetic; the !(p > 0) guard
  // routes NaN to the minimum instead of falling through.
  EXPECT_EQ(h.percentile(std::numeric_limits<double>::quiet_NaN()), 5.0);
}

// -------------------------------------------------------- MetricsRegistry

TEST(MetricsRegistry, HandsOutStableReferences) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  reg.counter("a");  // map growth must not move existing instruments
  reg.counter("z");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(MetricsRegistry, HistogramBoundsFixedAtFirstUse) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("rtt", {1, 2, 3});
  Histogram& again = reg.histogram("rtt", {99});
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(again.bounds(), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(reg.histogram("lat").bounds(), Histogram::default_latency_bounds());
}

TEST(MetricsRegistry, ToJsonRoundTrips) {
  MetricsRegistry reg;
  reg.counter("totem.deliveries").add(41);
  Histogram& h = reg.histogram("rtt_ns", {10, 20});
  h.observe(5);
  h.observe(15);
  h.observe(500);

  const JsonValue doc = parse_json(reg.to_json());
  EXPECT_EQ(doc.at("counters").at("totem.deliveries").number, 41.0);
  const JsonValue& rtt = doc.at("histograms").at("rtt_ns");
  EXPECT_EQ(rtt.at("count").number, 3.0);
  EXPECT_EQ(rtt.at("sum").number, 520.0);
  EXPECT_EQ(rtt.at("min").number, 5.0);
  EXPECT_EQ(rtt.at("max").number, 500.0);
  ASSERT_EQ(rtt.at("bounds").array.size(), 2u);
  ASSERT_EQ(rtt.at("counts").array.size(), 3u);
  EXPECT_EQ(rtt.at("counts").array[0].number, 1.0);
  EXPECT_EQ(rtt.at("counts").array[1].number, 1.0);
  EXPECT_EQ(rtt.at("counts").array[2].number, 1.0);
}

// ------------------------------------------------------------ TraceBuffer

TraceEvent make_event(std::uint64_t seq, std::uint32_t node = 1, Fields fields = {}) {
  TraceEvent ev;
  ev.sim_time = util::TimePoint(util::Duration(1000 * (std::int64_t)seq));
  ev.node = util::NodeId{node};
  ev.layer = Layer::kTotem;
  ev.kind = "deliver";
  ev.seq = seq;
  ev.fields = fields;
  return ev;
}

TEST(TraceBuffer, WrapsDroppingOldestFirst) {
  TraceBuffer buf(4);
  for (std::uint64_t s = 0; s < 10; ++s) buf.push(make_event(s));
  EXPECT_EQ(buf.capacity(), 4u);
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.total(), 10u);
  EXPECT_EQ(buf.dropped(), 6u);
  const auto events = buf.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(events[i].seq, 6 + i) << "snapshot must be oldest-first";
}

TEST(TraceBuffer, ExactlyFullBufferDropsNothing) {
  TraceBuffer buf(3);
  for (std::uint64_t s = 0; s < 3; ++s) buf.push(make_event(s));
  EXPECT_EQ(buf.dropped(), 0u);
  const auto events = buf.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events.front().seq, 0u);
  EXPECT_EQ(events.back().seq, 2u);

  buf.clear();
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.total(), 0u);
  buf.push(make_event(99));
  EXPECT_EQ(buf.snapshot().front().seq, 99u);
}

TEST(TraceBuffer, ToJsonRoundTrips) {
  TraceBuffer buf(8);
  buf.push(make_event(1, 2, {{"ring", 5}, {"digest", "abc"}}));
  buf.push(make_event(2, 3, {{"ring", 5}, {"digest", "\"quoted\""}}));

  const JsonValue doc = parse_json(buf.to_json());
  EXPECT_EQ(doc.at("capacity").number, 8.0);
  EXPECT_EQ(doc.at("total").number, 2.0);
  EXPECT_EQ(doc.at("dropped").number, 0.0);
  const auto& events = doc.at("events").array;
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at("t").number, 1000.0);
  EXPECT_EQ(events[0].at("node").number, 2.0);
  EXPECT_EQ(events[0].at("layer").string, "totem");
  EXPECT_EQ(events[0].at("kind").string, "deliver");
  EXPECT_EQ(events[0].at("seq").number, 1.0);
  EXPECT_EQ(events[0].at("detail").string, "ring=5 digest=abc");
  EXPECT_EQ(events[1].at("detail").string, "ring=5 digest=\"quoted\"");
}

TEST(TraceBuffer, InternedNamesOutliveTheirSource) {
  TraceBuffer buf(4);
  std::string_view kept;
  {
    std::string name = "a-scenario-name-longer-than-any-small-string";
    kept = buf.intern(name);
    EXPECT_EQ(buf.intern(name).data(), kept.data()) << "one copy per distinct name";
  }
  EXPECT_EQ(kept, "a-scenario-name-longer-than-any-small-string");
}

// ------------------------------------------------------------ typed fields

TEST(TraceFields, RenderKeepsCallSiteOrderAndSkipsAbsentFields) {
  const Fields fields{{"ring", 7},
                      obs::when(false, {"rix", 1}),
                      {"phase", "operational"},
                      Field::ratio("chunk", 3, 8),
                      obs::when(true, {"batch", 2})};
  EXPECT_EQ(fields.size(), 4u);
  EXPECT_EQ(render(fields), "ring=7 phase=operational chunk=3/8 batch=2");
  EXPECT_EQ(render(Fields{}), "");

  EXPECT_EQ(fields.num("ring"), 7u);
  EXPECT_EQ(fields.num("rix", 99), 99u) << "absent field falls back";
  EXPECT_FALSE(fields.has("rix"));
  EXPECT_EQ(fields.text("phase"), "operational");
  EXPECT_EQ(fields.text("ring"), "") << "a number has no text";
  ASSERT_NE(fields.find("chunk"), nullptr);
  EXPECT_EQ(fields.find("chunk")->num(), 3u);
  EXPECT_EQ(fields.find("chunk")->den(), 8u);
}

TEST(TraceFields, OverflowingTheInlineCapacityThrows) {
  Fields fields;
  for (std::size_t i = 0; i < Fields::kCapacity; ++i) fields.push({"k", i});
  EXPECT_EQ(fields.size(), Fields::kCapacity);
  EXPECT_THROW(fields.push({"k", 1}), std::length_error);
  fields.push(Field());  // absent fields never count
}

// ------------------------------------------------------- InvariantChecker

TraceEvent totem_deliver(std::uint32_t node, std::uint64_t seq, std::uint64_t ring,
                         std::uint64_t digest) {
  TraceEvent ev;
  ev.node = util::NodeId{node};
  ev.layer = Layer::kTotem;
  ev.kind = "deliver";
  ev.seq = seq;
  ev.fields = {{"ring", ring}, {"view", 3}, {"origin", 1}, {"digest", digest}, {"size", 64}};
  return ev;
}

TraceEvent totem_install(std::uint32_t node, std::uint64_t ring) {
  TraceEvent ev;
  ev.node = util::NodeId{node};
  ev.layer = Layer::kTotem;
  ev.kind = "view_install";
  ev.seq = 0;
  ev.fields = {{"ring", ring}, {"members", 2}};
  return ev;
}

TraceEvent mech_event(std::uint32_t node, std::string_view kind, Fields fields) {
  TraceEvent ev;
  ev.node = util::NodeId{node};
  ev.layer = Layer::kMech;
  ev.kind = kind;
  ev.fields = fields;
  return ev;
}

/// An enqueue or request_inject of (client 9, op_seq) at `replica` of group 5.
TraceEvent op_event(std::string_view kind, std::uint64_t replica, std::uint64_t op_seq) {
  return mech_event(1, kind,
                    {{"group", 5}, {"replica", replica}, {"client", 9}, {"op_seq", op_seq}});
}

/// A phase event of `replica` (on `node`) of group 5.
template <std::size_t N, std::size_t M>
TraceEvent phase_event(std::uint32_t node, std::uint64_t replica, const char (&phase)[N],
                       const char (&style)[M]) {
  return mech_event(node, "phase",
                    {{"group", 5}, {"replica", replica}, {"phase", phase}, {"style", style}});
}

TEST(InvariantChecker, CleanStreamHasNoViolations) {
  std::vector<TraceEvent> events;
  for (std::uint32_t node : {1u, 2u}) {
    events.push_back(totem_deliver(node, 10, 11, 0xaa));
    events.push_back(totem_deliver(node, 11, 11, 0xbb));
    events.push_back(totem_install(node, 21));
    events.push_back(totem_deliver(node, 30, 21, 0xcc));
  }
  events.push_back(op_event("enqueue", 1, 1));
  events.push_back(op_event("enqueue", 1, 2));
  events.push_back(op_event("request_inject", 1, 1));
  events.push_back(op_event("request_inject", 1, 2));
  events.push_back(phase_event(1, 1, "operational", "warm-passive"));
  events.push_back(phase_event(2, 2, "backup", "warm-passive"));
  const auto violations = InvariantChecker::check(events);
  EXPECT_TRUE(violations.empty()) << InvariantChecker::report(violations);
}

TEST(InvariantChecker, FlagsDeliveryGapWithoutInstall) {
  std::vector<TraceEvent> events{totem_deliver(1, 10, 11, 0xaa),
                                 totem_deliver(1, 12, 11, 0xbb)};
  const auto violations = InvariantChecker::check(events);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, "delivery-gap");
}

TEST(InvariantChecker, ViewInstallLegitimisesSequenceJump) {
  std::vector<TraceEvent> events{totem_deliver(1, 10, 11, 0xaa),
                                 totem_install(1, 21),
                                 totem_deliver(1, 25, 21, 0xbb)};
  EXPECT_TRUE(InvariantChecker::check(events).empty());

  // ...but only on the node that installed it.
  events.push_back(totem_deliver(2, 10, 11, 0xaa));
  events.push_back(totem_deliver(2, 25, 21, 0xbb));
  EXPECT_TRUE(InvariantChecker::check(events).empty())
      << "a ring change on the other node is not a same-ring gap";
  events.push_back(totem_deliver(2, 27, 21, 0xcc));
  const auto violations = InvariantChecker::check(events);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, "delivery-gap");
}

TEST(InvariantChecker, FlagsCrossNodeIdentityDisagreement) {
  std::vector<TraceEvent> events{totem_deliver(1, 10, 11, 0xaa),
                                 totem_deliver(2, 10, 11, 0xd1ff)};
  const auto violations = InvariantChecker::check(events);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, "order-agreement");
}

TEST(InvariantChecker, FlagsDuplicateOperationPerIncarnation) {
  std::vector<TraceEvent> events{op_event("enqueue", 1, 1), op_event("request_inject", 1, 1),
                                 op_event("request_inject", 1, 1)};
  auto violations = InvariantChecker::check(events);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].rule, "duplicate-op");

  // A *new incarnation* (fresh ReplicaId) may legitimately re-execute the
  // operation after state transfer + replay.
  std::vector<TraceEvent> relaunch{op_event("enqueue", 1, 1), op_event("request_inject", 1, 1),
                                   op_event("enqueue", 2, 1), op_event("request_inject", 2, 1)};
  EXPECT_TRUE(InvariantChecker::check(relaunch).empty());
}

TEST(InvariantChecker, FlagsTwoConcurrentPrimaries) {
  std::vector<TraceEvent> events{phase_event(1, 1, "operational", "warm-passive"),
                                 phase_event(2, 2, "operational", "warm-passive")};
  const auto violations = InvariantChecker::check(events);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, "multi-primary");

  // Orderly failover: the old primary dies before the backup is promoted.
  std::vector<TraceEvent> failover{phase_event(1, 1, "operational", "warm-passive"),
                                   phase_event(2, 2, "backup", "warm-passive"),
                                   phase_event(1, 1, "dead", "warm-passive"),
                                   phase_event(2, 2, "replaying", "warm-passive"),
                                   phase_event(2, 2, "operational", "warm-passive")};
  EXPECT_TRUE(InvariantChecker::check(failover).empty());
}

TEST(InvariantChecker, ActiveGroupsMayHaveManyOperationalReplicas) {
  std::vector<TraceEvent> events{phase_event(1, 1, "operational", "active"),
                                 phase_event(2, 2, "operational", "active"),
                                 phase_event(3, 3, "operational", "active")};
  EXPECT_TRUE(InvariantChecker::check(events).empty());
}

TEST(InvariantChecker, FlagsExecutionOutOfEnqueueOrder) {
  std::vector<TraceEvent> events{op_event("enqueue", 1, 1), op_event("enqueue", 1, 2),
                                 op_event("request_inject", 1, 2),
                                 op_event("request_inject", 1, 1)};
  const auto violations = InvariantChecker::check(events);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, "replay-order");
}

TEST(InvariantChecker, FlagsInjectionWithoutEnqueueRecord) {
  std::vector<TraceEvent> events{op_event("request_inject", 1, 1)};
  const auto violations = InvariantChecker::check(events);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, "replay-order");
}

TEST(InvariantChecker, ReplayOrderViolationCarriesEventIndexAndFomPhase) {
  // FOM-engine injections stamp fom_pos/fom_phase into request_inject; the
  // replay-order rule must report the offending event's index and the phase
  // the FOM was in, both in the Violation fields and in the message.
  const auto inject = [](std::uint64_t op_seq, std::uint64_t pos) {
    return mech_event(1, "request_inject",
                      {{"group", 5},
                       {"replica", 1},
                       {"client", 9},
                       {"op_seq", op_seq},
                       {"fom_pos", pos},
                       {"fom_phase", "decode"}});
  };
  std::vector<TraceEvent> events{op_event("enqueue", 1, 1), op_event("enqueue", 1, 2),
                                 inject(2, 0), inject(1, 1)};
  const auto violations = InvariantChecker::check(events);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, "replay-order");
  EXPECT_EQ(violations[0].event_index, 3u)
      << "the injection that could not be matched against the enqueue order";
  EXPECT_EQ(violations[0].phase, "decode");
  EXPECT_NE(violations[0].message.find("injected in phase decode"), std::string::npos)
      << violations[0].message;

  // ...and report_with_context anchors the stream excerpt on that event.
  const std::string report =
      InvariantChecker::report_with_context(violations, events, 1);
  EXPECT_NE(report.find(">>> [3]"), std::string::npos) << report;
}

TEST(InvariantChecker, RefusesToVouchForTruncatedBuffer) {
  TraceBuffer buf(2);
  for (std::uint64_t s = 0; s < 5; ++s) buf.push(make_event(s));
  const auto violations = InvariantChecker::check(buf);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].rule, "trace-dropped");
}

// -------------------------------------------------------- bench JSON files

TEST(BenchResultWriter, EmitsSchemaOneDocuments) {
  MetricsRegistry reg;
  reg.counter("totem.deliveries").add(123);

  bench::BenchResultWriter out("throughput");
  out.row().col("replicas", std::uint64_t{1}).col("style", "active").col(
      "invocations_per_s", 2500.25);
  out.row().col("replicas", std::uint64_t{3}).col("style", "active").col(
      "invocations_per_s", 1800.5);
  const std::string doc_text = out.finish(&reg);

  const JsonValue doc = parse_json(doc_text);
  EXPECT_EQ(doc.at("bench").string, "throughput");
  EXPECT_EQ(doc.at("schema_version").number, 1.0);
  const auto& rows = doc.at("rows").array;
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].at("replicas").number, 1.0);
  EXPECT_EQ(rows[0].at("style").string, "active");
  EXPECT_DOUBLE_EQ(rows[1].at("invocations_per_s").number, 1800.5);
  EXPECT_EQ(doc.at("metrics").at("counters").at("totem.deliveries").number, 123.0);
}

TEST(BenchResultWriter, WritesParseableFile) {
  const std::string path = ::testing::TempDir() + "/BENCH_obs_test.json";
  bench::BenchResultWriter out("obs_test");
  out.row().col("value", 42.0);
  ASSERT_TRUE(out.write_file(path));

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string text(1 << 16, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), f));
  std::fclose(f);
  std::remove(path.c_str());

  const JsonValue doc = parse_json(text);
  EXPECT_EQ(doc.at("bench").string, "obs_test");
  ASSERT_EQ(doc.at("rows").array.size(), 1u);
  EXPECT_EQ(doc.at("rows").array[0].at("value").number, 42.0);
  EXPECT_FALSE(doc.has("metrics"));
}

}  // namespace
}  // namespace eternal::obs
