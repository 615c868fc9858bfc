// Observability-layer tests (DESIGN.md §11): registry/shard determinism
// across thread counts, EpochSeries golden CSV, chrome-trace JSON schema,
// the span profile and span-name schema, tracing bitwise-neutrality, and
// the SimConfig::Builder validations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/run_report.h"
#include "core/simulator.h"
#include "obs/registry.h"
#include "obs/series.h"
#include "obs/tracer.h"
#include "orbit/constellation.h"
#include "replay/replayer.h"
#include "trace/stream.h"
#include "trace/workload.h"
#include "util/geo.h"
#include "util/parallel.h"

namespace starcdn {
namespace {

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON reader, just enough to validate the
// tracer / RunReport exports without pulling in a dependency. Numbers are
// kept as raw text (the tests only check presence and a few exact values).
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  std::string scalar;  // number text or string value
  std::vector<Json> array;
  std::map<std::string, Json> object;

  [[nodiscard]] bool has(const std::string& key) const {
    return object.find(key) != object.end();
  }
  [[nodiscard]] const Json& at(const std::string& key) const {
    return object.at(key);
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  Json parse() {
    const Json v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json error at byte " + std::to_string(pos_) +
                             ": " + why);
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }
  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  Json value() {
    switch (peek()) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string_value();
      case 't':
      case 'f':
        return boolean();
      case 'n':
        literal("null");
        return Json{};
      default:
        return number();
    }
  }

  void literal(const std::string& word) {
    skip_ws();
    if (s_.compare(pos_, word.size(), word) != 0) fail("bad literal");
    pos_ += word.size();
  }

  Json boolean() {
    Json v;
    v.type = Json::Type::kBool;
    if (peek() == 't') {
      literal("true");
      v.boolean = true;
    } else {
      literal("false");
    }
    return v;
  }

  Json number() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected number");
    Json v;
    v.type = Json::Type::kNumber;
    v.scalar = s_.substr(start, pos_ - start);
    return v;
  }

  Json string_value() {
    expect('"');
    Json v;
    v.type = Json::Type::kString;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("bad escape");
        const char e = s_[pos_++];
        switch (e) {
          case 'n': v.scalar += '\n'; break;
          case 't': v.scalar += '\t'; break;
          case 'u':
            if (pos_ + 4 > s_.size()) fail("bad \\u escape");
            pos_ += 4;  // validated, not decoded; tests use ASCII
            v.scalar += '?';
            break;
          default: v.scalar += e; break;
        }
      } else {
        v.scalar += c;
      }
    }
    return v;
  }

  Json array() {
    expect('[');
    Json v;
    v.type = Json::Type::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  Json object() {
    expect('{');
    Json v;
    v.type = Json::Type::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      const Json key = string_value();
      expect(':');
      v.object.emplace(key.scalar, value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

Json parse_json(const std::string& text) { return JsonParser(text).parse(); }

// ---------------------------------------------------------------------------
// Registry + Shard unit tests.

TEST(Registry, ReRegisteringByNameReturnsSameHandle) {
  obs::Registry r;
  const obs::CounterId a = r.counter("requests", "help");
  const obs::CounterId b = r.counter("requests", "ignored on re-fetch");
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(r.counters(), 1u);
  EXPECT_EQ(r.name_of(a), "requests");
}

TEST(Registry, KindCollisionThrows) {
  obs::Registry r;
  (void)r.counter("x", "");
  EXPECT_THROW((void)r.gauge("x", ""), std::invalid_argument);
  EXPECT_THROW((void)r.histogram("x", "", {1.0}), std::invalid_argument);
}

TEST(Registry, UnsortedHistogramBoundsThrow) {
  obs::Registry r;
  EXPECT_THROW((void)r.histogram("h", "", {10.0, 5.0}), std::invalid_argument);
}

TEST(Registry, MergeFoldsShardsInArgumentOrder) {
  obs::Registry r;
  const obs::CounterId c = r.counter("c", "");
  const obs::GaugeId g = r.gauge("g", "");
  const obs::HistogramId h = r.histogram("h", "", {1.0, 2.0});

  obs::Shard a(r);
  obs::Shard b(r);
  a.add(c, 3);
  b.add(c, 4);
  a.set(g, 1.0);
  b.set(g, 2.0);
  a.observe(h, 0.5);
  b.observe(h, 1.5);

  const obs::Shard merged = obs::merge(r, {&a, &b});
  EXPECT_EQ(merged.value(c), 7u);
  // Gauges are last-writer-wins in merge order: b set it last.
  EXPECT_EQ(merged.value(g), 2.0);
  const auto& cells = merged.cells(h);
  EXPECT_EQ(cells.count, 2u);
  EXPECT_DOUBLE_EQ(cells.sum, 2.0);
  EXPECT_EQ(cells.counts[0], 1u);  // <= 1.0
  EXPECT_EQ(cells.counts[1], 1u);  // <= 2.0

  // Swapping the order changes only the gauge (last writer), nothing else.
  const obs::Shard swapped = obs::merge(r, {&b, &a});
  EXPECT_EQ(swapped.value(c), 7u);
  EXPECT_EQ(swapped.value(g), 1.0);
}

// ---------------------------------------------------------------------------
// EpochSeries golden CSV.

TEST(EpochSeries, GoldenCsv) {
  obs::Registry r;
  const obs::CounterId a = r.counter("a", "");
  const obs::CounterId b = r.counter("b", "");
  obs::Shard shard(r);
  obs::EpochSeries series(&r, {a, b});

  series.advance_to(0, shard);  // no-op: epoch 0 is already open
  shard.add(a, 1);
  shard.add(b, 10);
  series.advance_to(1, shard);  // closes epoch 0
  shard.add(a, 2);
  shard.add(b, 20);
  series.advance_to(3, shard);  // closes epochs 1 and 2 (2 is empty)
  shard.add(a, 4);
  shard.add(b, 40);
  series.finish(shard);  // closes the partial epoch 3
  series.finish(shard);  // idempotent

  const obs::SeriesTable t = series.table(15.0);
  ASSERT_EQ(t.rows(), 4u);
  EXPECT_EQ(t.at(3, 0), 7u);    // cumulative
  EXPECT_EQ(t.delta(2, 1), 0u);  // quiet epoch

  std::ostringstream csv;
  t.write_csv(csv);
  EXPECT_EQ(csv.str(),
            "epoch,t_end_s,a,b\n"
            "0,15.000000,1,10\n"
            "1,30.000000,2,20\n"
            "2,45.000000,0,0\n"
            "3,60.000000,4,40\n");
}

TEST(EpochSeries, DerivedColumnsAppendAtExport) {
  obs::Registry r;
  const obs::CounterId hits = r.counter("hits", "");
  const obs::CounterId reqs = r.counter("reqs", "");
  obs::Shard shard(r);
  obs::EpochSeries series(&r, {hits, reqs});
  shard.add(hits, 1);
  shard.add(reqs, 4);
  series.finish(shard);

  const obs::SeriesTable t = series.table(15.0);
  const std::size_t hc = t.column("hits");
  const std::size_t rc = t.column("reqs");
  std::ostringstream csv;
  t.write_csv(csv, {{"hit_rate", [hc, rc](const obs::SeriesTable& tt,
                                          std::size_t row) {
                       const double d = static_cast<double>(tt.delta(row, rc));
                       return d == 0.0
                                  ? 0.0
                                  : static_cast<double>(tt.delta(row, hc)) / d;
                     }}});
  EXPECT_EQ(csv.str(),
            "epoch,t_end_s,hits,reqs,hit_rate\n"
            "0,15.000000,1,4,0.250000\n");
}

// ---------------------------------------------------------------------------
// Tracer: chrome://tracing JSON object-format schema.

TEST(Tracer, ChromeTraceSchema) {
  obs::Tracer tracer;
  tracer.complete("phase_a", "core", 10, 25,
                  {obs::arg("requests", std::uint64_t{42})});
  tracer.instant("epoch", "sim", {obs::arg("idx", std::uint64_t{7})});
  {
    obs::TraceSpan span(&tracer, "scoped", "core");
  }
  EXPECT_EQ(tracer.events(), 3u);

  std::ostringstream os;
  tracer.write_json(os);
  const Json root = parse_json(os.str());
  ASSERT_EQ(root.type, Json::Type::kObject);
  ASSERT_TRUE(root.has("traceEvents"));
  EXPECT_EQ(root.at("displayTimeUnit").scalar, "ms");

  const Json& events = root.at("traceEvents");
  ASSERT_EQ(events.type, Json::Type::kArray);
  ASSERT_EQ(events.array.size(), 3u);
  for (const Json& e : events.array) {
    ASSERT_EQ(e.type, Json::Type::kObject);
    EXPECT_TRUE(e.has("name"));
    EXPECT_TRUE(e.has("cat"));
    EXPECT_TRUE(e.has("ts"));
    EXPECT_TRUE(e.has("pid"));
    EXPECT_TRUE(e.has("tid"));
    ASSERT_TRUE(e.has("ph"));
    const std::string ph = e.at("ph").scalar;
    EXPECT_TRUE(ph == "X" || ph == "i") << "unexpected phase " << ph;
    if (ph == "X") {
      EXPECT_TRUE(e.has("dur"));
    }
  }

  const Json& first = events.array[0];
  EXPECT_EQ(first.at("name").scalar, "phase_a");
  EXPECT_EQ(first.at("ts").scalar, "10");
  EXPECT_EQ(first.at("dur").scalar, "25");
  EXPECT_EQ(first.at("args").at("requests").scalar, "42");

  const Json& second = events.array[1];
  EXPECT_EQ(second.at("ph").scalar, "i");
  EXPECT_EQ(second.at("args").at("idx").scalar, "7");
}

TEST(Tracer, ProfileAggregatesCompleteEventsByName) {
  obs::Tracer tracer;
  tracer.complete("zeta", "core", 0, 4'000);
  tracer.complete("alpha", "variant", 10, 1'500);
  tracer.complete("zeta", "core", 20, 2'000);
  tracer.instant("zeta", "sim");  // instants carry no duration: ignored
  tracer.complete("alpha", "variant", 30, 500);
  tracer.complete("zeta", "core", 40, 6'000);

  const obs::ProfileReport p = tracer.profile();
  ASSERT_EQ(p.entries.size(), 2u);
  EXPECT_EQ(p.entries[0].name, "alpha");  // name-sorted
  EXPECT_EQ(p.entries[0].calls, 2u);
  EXPECT_DOUBLE_EQ(p.entries[0].total_ms, 2.0);
  EXPECT_DOUBLE_EQ(p.entries[0].max_ms, 1.5);
  EXPECT_DOUBLE_EQ(p.entries[0].mean_ms(), 1.0);
  EXPECT_EQ(p.entries[1].name, "zeta");
  EXPECT_EQ(p.entries[1].calls, 3u);
  EXPECT_DOUBLE_EQ(p.entries[1].total_ms, 12.0);
  EXPECT_DOUBLE_EQ(p.entries[1].max_ms, 6.0);
  EXPECT_DOUBLE_EQ(p.entries[1].mean_ms(), 4.0);

  // The printed table is sorted by total time, largest first.
  std::ostringstream os;
  p.print(os);
  const std::string table = os.str();
  ASSERT_NE(table.find("zeta"), std::string::npos);
  ASSERT_NE(table.find("alpha"), std::string::npos);
  EXPECT_LT(table.find("zeta"), table.find("alpha"));

  EXPECT_TRUE(obs::Tracer{}.profile().entries.empty());
}

TEST(Tracer, NullTracerIsSafe) {
  obs::set_tracer(nullptr);
  EXPECT_EQ(obs::tracer(), nullptr);
  // Spans on a null tracer are no-ops (the hot wiring relies on this).
  obs::TraceSpan span(nullptr, "noop", "core");
  span.set_args({obs::arg("k", "v")});
}

// ---------------------------------------------------------------------------
// Span schema: the names, categories and counts that readers of a trace
// (the perfbench/ harvest among them) key on.

struct SpanRecord {
  std::string name;
  std::string cat;
  Json args;
};

/// Complete ('X') events of `tracer`, read back through its JSON export.
std::vector<SpanRecord> complete_spans(const obs::Tracer& tracer) {
  std::ostringstream os;
  tracer.write_json(os);
  const Json root = parse_json(os.str());
  std::vector<SpanRecord> out;
  for (const Json& e : root.at("traceEvents").array) {
    if (e.at("ph").scalar != "X") continue;
    out.push_back({e.at("name").scalar, e.at("cat").scalar,
                   e.has("args") ? e.at("args") : Json{}});
  }
  return out;
}

std::size_t count_spans(const std::vector<SpanRecord>& spans,
                        const std::string& name, const std::string& cat) {
  return static_cast<std::size_t>(
      std::count_if(spans.begin(), spans.end(), [&](const SpanRecord& s) {
        return s.name == name && s.cat == cat;
      }));
}

/// Counts the blocks a consumer pulls from the wrapped stream.
class CountingStream final : public trace::RequestStream {
 public:
  explicit CountingStream(trace::RequestStream& inner) : inner_(&inner) {}
  [[nodiscard]] bool next(trace::RequestBlock& out) override {
    const bool got = inner_->next(out);
    if (got) ++pulled_;
    return got;
  }
  [[nodiscard]] std::size_t pulled() const noexcept { return pulled_; }

 private:
  trace::RequestStream* inner_;
  std::size_t pulled_ = 0;
};

/// Installs `tracer` process-wide for the enclosing scope.
class ScopedTracer {
 public:
  explicit ScopedTracer(obs::Tracer& t) { obs::set_tracer(&t); }
  ~ScopedTracer() { obs::set_tracer(nullptr); }
  ScopedTracer(const ScopedTracer&) = delete;
  ScopedTracer& operator=(const ScopedTracer&) = delete;
};

TEST(TraceSchema, GenerationSpansCoverEveryRequest) {
  auto p = trace::default_params(trace::TrafficClass::kVideo);
  p.object_count = 2'000;
  p.requests_per_weight = 2'000;
  p.duration_s = 1 * util::kHour.value();
  const trace::WorkloadModel workload(util::paper_cities(), p);
  const std::uint64_t total = workload.total_request_count();

  obs::Tracer tracer;
  {
    const ScopedTracer installed(tracer);
    // About 370 requests a minute: each 4 Ki block but the last needs a
    // fill of its own, so there are 5 or more.
    const auto stream = workload.generate_stream({4'096});
    trace::RequestBlock block;
    std::uint64_t pulled = 0;
    while (stream->next(block)) pulled += block.count();
    EXPECT_EQ(pulled, total);
  }
  const std::vector<SpanRecord> spans = complete_spans(tracer);
  ASSERT_EQ(count_spans(spans, "generate_count", "trace"), 1u);
  std::uint64_t windowed = 0;
  std::size_t windows = 0;
  for (const SpanRecord& s : spans) {
    if (s.name == "generate_count") {
      EXPECT_EQ(s.args.at("requests").scalar, std::to_string(total));
    } else if (s.name == "generate_window") {
      EXPECT_EQ(s.cat, "trace");
      windowed += std::stoull(s.args.at("requests").scalar);
      ++windows;
    }
  }
  EXPECT_GE(windows, 5u);
  EXPECT_EQ(windowed, total);
}

TEST(TraceSchema, ScheduleAndClusterReplaySpans) {
  orbit::WalkerParams wp;
  wp.planes = 6;
  wp.slots_per_plane = 4;
  const orbit::Constellation shell{wp};
  auto p = trace::default_params(trace::TrafficClass::kVideo);
  p.object_count = 2'000;
  p.requests_per_weight = 200;
  p.duration_s = 600.0;
  const trace::WorkloadModel workload(util::paper_cities(), p);
  const auto requests = trace::merge_by_time(workload.generate());

  obs::Tracer tracer;
  {
    const ScopedTracer installed(tracer);
    const sched::LinkSchedule schedule(shell, util::paper_cities(),
                                       util::Seconds{p.duration_s});
    trace::VectorStream stream(requests, 1'024);
    const replay::ReplayReport r =
        replay::replay_cluster(shell, schedule, stream, replay::ReplayConfig{});
    EXPECT_EQ(r.requests, requests.size());
  }
  const std::vector<SpanRecord> spans = complete_spans(tracer);
  EXPECT_EQ(count_spans(spans, "LinkSchedule::build", "sched"), 1u);
  EXPECT_EQ(count_spans(spans, "replay_cluster", "replay"), 1u);
  EXPECT_EQ(count_spans(spans, "spawn_cluster", "replay"), 1u);
  EXPECT_EQ(count_spans(spans, "cluster_shutdown", "replay"), 1u);
}

// ---------------------------------------------------------------------------
// Simulator-level fixture: a small scenario shared by the determinism,
// tracing-neutrality, span-schema, series and sink tests.

class ObsSimTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    shell_ = new orbit::Constellation{orbit::WalkerParams{}};
    auto p = trace::default_params(trace::TrafficClass::kVideo);
    p.object_count = 10'000;
    p.requests_per_weight = 4'000;
    p.duration_s = 1 * util::kHour.value();
    const trace::WorkloadModel workload(util::paper_cities(), p);
    requests_ = new std::vector<trace::Request>(
        trace::merge_by_time(workload.generate()));
    schedule_ = new sched::LinkSchedule(*shell_, util::paper_cities(),
                                        util::Seconds{p.duration_s});
  }
  static void TearDownTestSuite() {
    delete requests_;
    delete schedule_;
    delete shell_;
    requests_ = nullptr;
    schedule_ = nullptr;
    shell_ = nullptr;
  }

  static core::SimConfig small_config() {
    return core::SimConfig::Builder{}
        .cache_capacity(util::mib(128))
        .buckets(4)
        .variants({core::Variant::kStarCdn, core::Variant::kVanillaLru,
                   core::Variant::kStatic})
        .build();
  }

  static core::RunReport run_report(const core::SimConfig& cfg) {
    core::Simulator sim(*shell_, *schedule_, cfg);
    trace::VectorStream stream(*requests_);
    sim.run(stream);
    return sim.finish();
  }

  static orbit::Constellation* shell_;
  static std::vector<trace::Request>* requests_;
  static sched::LinkSchedule* schedule_;
};

orbit::Constellation* ObsSimTest::shell_ = nullptr;
std::vector<trace::Request>* ObsSimTest::requests_ = nullptr;
sched::LinkSchedule* ObsSimTest::schedule_ = nullptr;

void expect_reports_bitwise_equal(const core::RunReport& a,
                                  const core::RunReport& b) {
  ASSERT_EQ(a.variants.size(), b.variants.size());
  ASSERT_EQ(a.totals, b.totals);
  for (std::size_t i = 0; i < a.variants.size(); ++i) {
    const core::VariantReport& va = a.variants[i];
    const core::VariantReport& vb = b.variants[i];
    EXPECT_EQ(va.variant, vb.variant);
    EXPECT_EQ(va.counters, vb.counters) << "variant " << va.name;
    EXPECT_EQ(va.series.columns, vb.series.columns);
    EXPECT_EQ(va.series.epochs, vb.series.epochs) << "variant " << va.name;
    EXPECT_EQ(va.series.values, vb.series.values) << "variant " << va.name;
    EXPECT_EQ(va.metrics.latency_ms.samples(), vb.metrics.latency_ms.samples())
        << "variant " << va.name;
  }
}

// The ISSUE's headline contract: merged registry output is bitwise
// identical for any STARCDN_THREADS value.
TEST_F(ObsSimTest, RegistryBitwiseIdenticalAcrossThreadCounts) {
  util::set_parallel_threads(1);
  const core::RunReport baseline = run_report(small_config());
  EXPECT_GT(baseline.totals.size(), 0u);
  for (const int threads : {2, 4, 8}) {
    util::set_parallel_threads(threads);
    const core::RunReport r = run_report(small_config());
    expect_reports_bitwise_equal(baseline, r);
  }
  util::set_parallel_threads(0);
}

// Spans observe the clock only: installing a tracer must not move a single
// bit of simulation output.
TEST_F(ObsSimTest, TracingIsBitwiseNeutral) {
  obs::set_tracer(nullptr);
  const core::RunReport untraced = run_report(small_config());
  obs::Tracer tracer;
  core::RunReport traced;
  {
    const ScopedTracer installed(tracer);
    traced = run_report(small_config());
  }
  expect_reports_bitwise_equal(untraced, traced);
  EXPECT_GT(tracer.events(), 0u);
}

// One Simulator run's spans, pinned by name and category: "core" holds the
// run, its finish and one stage1_context per pulled chunk; "variant" holds
// one span per chunk per variant, named to_string(variant).
TEST_F(ObsSimTest, SimulatorSpanSchemaIsPinned) {
  const core::SimConfig cfg = small_config();
  const std::size_t chunk = requests_->size() / 6 + 1;
  obs::Tracer tracer;
  std::size_t pulled = 0;
  {
    const ScopedTracer installed(tracer);
    core::Simulator sim(*shell_, *schedule_, cfg);
    trace::VectorStream inner(*requests_, chunk);
    CountingStream stream(inner);
    sim.run(stream);
    (void)sim.finish();
    pulled = stream.pulled();
  }
  ASSERT_EQ(pulled, 6u);

  const std::vector<SpanRecord> spans = complete_spans(tracer);
  EXPECT_EQ(count_spans(spans, "Simulator::run", "core"), 1u);
  EXPECT_EQ(count_spans(spans, "Simulator::finish", "core"), 1u);
  EXPECT_EQ(count_spans(spans, "stage1_context", "core"), pulled);
  std::size_t variant_spans = 0;
  for (const core::Variant v : cfg.variants) {
    EXPECT_EQ(count_spans(spans, core::to_string(v), "variant"), pulled)
        << core::to_string(v);
    variant_spans += count_spans(spans, core::to_string(v), "variant");
  }
  EXPECT_EQ(variant_spans,
            static_cast<std::size_t>(std::count_if(
                spans.begin(), spans.end(),
                [](const SpanRecord& s) { return s.cat == "variant"; })));
}

TEST_F(ObsSimTest, SeriesMatchesFinalTotalsAndTracksHandovers) {
  const core::RunReport report = run_report(small_config());
  for (const core::VariantReport& vr : report.variants) {
    ASSERT_GT(vr.series.rows(), 0u) << vr.name;
    const std::size_t req = vr.series.column("requests");
    const std::size_t hand = vr.series.column("handovers");
    ASSERT_NE(req, std::string::npos);
    ASSERT_NE(hand, std::string::npos);
    // Cumulative last row == end-of-run totals: one source of truth.
    EXPECT_EQ(vr.series.at(vr.series.rows() - 1, req), vr.metrics.requests);
    EXPECT_EQ(vr.series.at(vr.series.rows() - 1, hand),
              vr.metrics.handovers);

    // Every VariantMetrics scalar is the same-named shard counter: finish()
    // converts the shard once instead of keeping a synced mirror.
    const core::VariantMetrics& m = vr.metrics;
    const std::pair<std::string, std::uint64_t> scalars[] = {
        {"requests", m.requests},
        {"local_hits", m.local_hits},
        {"routed_hits", m.routed_hits},
        {"relay_west_hits", m.relay_west_hits},
        {"relay_east_hits", m.relay_east_hits},
        {"misses", m.misses},
        {"unreachable", m.unreachable},
        {"transient_misses", m.transient_misses},
        {"handovers", m.handovers},
        {"bytes_requested", m.bytes_requested},
        {"bytes_hit", m.bytes_hit},
        {"uplink_bytes", m.uplink_bytes},
        {"isl_bytes", m.isl_bytes},
        {"prefetch_bytes", m.prefetch_bytes},
        {"relay_west_only_requests", m.relay.west_only_requests},
        {"relay_east_only_requests", m.relay.east_only_requests},
        {"relay_both_requests", m.relay.both_requests},
        {"relay_west_only_bytes", m.relay.west_only_bytes},
        {"relay_east_only_bytes", m.relay.east_only_bytes},
        {"relay_both_bytes", m.relay.both_bytes},
    };
    ASSERT_EQ(vr.counters.size(), std::size(scalars)) << vr.name;
    for (const auto& scalar : scalars) {
      const auto it = std::find_if(
          vr.counters.begin(), vr.counters.end(),
          [&](const auto& c) { return c.first == scalar.first; });
      ASSERT_NE(it, vr.counters.end()) << vr.name << ' ' << scalar.first;
      EXPECT_EQ(it->second, scalar.second) << vr.name << ' ' << scalar.first;
    }
  }
  // LEO first-contact satellites change every few epochs; the static
  // baseline never hands over by construction.
  EXPECT_GT(report.variant(core::Variant::kStarCdn).metrics.handovers, 0u);
  EXPECT_EQ(report.variant(core::Variant::kStatic).metrics.handovers, 0u);
}

TEST_F(ObsSimTest, RecordEpochSeriesOffDisablesRows) {
  auto cfg = small_config();
  cfg.record_epoch_series = false;
  const core::RunReport report = run_report(cfg);
  for (const core::VariantReport& vr : report.variants) {
    EXPECT_EQ(vr.series.rows(), 0u);
  }
  // Metrics still flow through the registry regardless.
  EXPECT_GT(report.variant(core::Variant::kStarCdn).metrics.requests, 0u);
}

TEST_F(ObsSimTest, RunReportJsonIsWellFormed) {
  const core::RunReport report = run_report(small_config());
  std::ostringstream os;
  report.write_json(os);
  const Json root = parse_json(os.str());
  ASSERT_TRUE(root.has("variants"));
  const Json& variants = root.at("variants");
  ASSERT_EQ(variants.type, Json::Type::kObject);
  ASSERT_EQ(variants.object.size(), report.variants.size());
  for (const core::VariantReport& vr : report.variants) {
    ASSERT_TRUE(variants.has(vr.name)) << vr.name;
    const Json& v = variants.at(vr.name);
    EXPECT_TRUE(v.has("counters"));
    EXPECT_TRUE(v.has("summary"));
    EXPECT_TRUE(v.has("series"));
    EXPECT_EQ(v.at("counters").at("requests").scalar,
              std::to_string(vr.metrics.requests));
  }
  ASSERT_TRUE(root.has("totals"));
  EXPECT_TRUE(root.at("totals").has("requests"));
}

TEST_F(ObsSimTest, SinksFireOnFinishInRegistrationOrder) {
  core::Simulator sim(*shell_, *schedule_, small_config());
  std::ostringstream summary_out;
  core::SummarySink summary(summary_out);
  sim.add_sink(summary);
  trace::VectorStream stream(*requests_);
  sim.run(stream);
  const core::RunReport report = sim.finish();
  EXPECT_NE(summary_out.str().find("StarCDN"), std::string::npos);
  EXPECT_NE(summary_out.str().find("req hit rate"), std::string::npos);
  EXPECT_GT(report.variant(core::Variant::kStarCdn).metrics.requests, 0u);
}

// ---------------------------------------------------------------------------
// SimConfig::Builder validation + the latency reservoir knob.

TEST(SimConfigBuilder, RejectsNonSquareBuckets) {
  EXPECT_THROW((void)core::SimConfig::Builder{}.buckets(5).build(),
               std::invalid_argument);
}

TEST(SimConfigBuilder, RejectsZeroCapacity) {
  EXPECT_THROW(
      (void)core::SimConfig::Builder{}.cache_capacity(util::Bytes{0}).build(),
      std::invalid_argument);
}

TEST(SimConfigBuilder, RejectsTransientProbabilityOutOfRange) {
  EXPECT_THROW((void)core::SimConfig::Builder{}
                   .transient_failures(1.5, util::Seconds{300.0})
                   .build(),
               std::invalid_argument);
  EXPECT_THROW((void)core::SimConfig::Builder{}
                   .transient_failures(0.1, util::Seconds{0.0})
                   .build(),
               std::invalid_argument);
}

TEST(SimConfigBuilder, RejectsPrefetchWithoutPrefetchVariant) {
  EXPECT_THROW((void)core::SimConfig::Builder{}
                   .prefetch_objects_per_epoch(16)
                   .variants({core::Variant::kVanillaLru})
                   .build(),
               std::invalid_argument);
  // ...and accepts it once kPrefetch is actually in the variant list.
  const auto cfg = core::SimConfig::Builder{}
                       .prefetch_objects_per_epoch(16)
                       .variants({core::Variant::kVanillaLru,
                                  core::Variant::kPrefetch})
                       .build();
  EXPECT_EQ(cfg.prefetch_objects_per_epoch, 16);
}

TEST(SimConfigBuilder, FluentSettersLandInConfig) {
  const auto cfg = core::SimConfig::Builder{}
                       .cache_capacity(util::mib(64))
                       .buckets(9)
                       .seed(77)
                       .sample_latency(false)
                       .latency_reservoir(1'000)
                       .record_epoch_series(false)
                       .variant(core::Variant::kStarCdn)
                       .build();
  EXPECT_EQ(cfg.cache_capacity, util::mib(64));
  EXPECT_EQ(cfg.buckets, 9);
  EXPECT_EQ(cfg.seed, 77u);
  EXPECT_FALSE(cfg.sample_latency);
  EXPECT_EQ(cfg.latency_reservoir, 1'000u);
  EXPECT_FALSE(cfg.record_epoch_series);
  ASSERT_EQ(cfg.variants.size(), 1u);
  EXPECT_EQ(cfg.variants[0], core::Variant::kStarCdn);
}

TEST(SimConfigBuilder, DefaultReservoirMatchesDocumentedConstant) {
  const core::SimConfig cfg;
  EXPECT_EQ(cfg.latency_reservoir, core::kDefaultLatencyReservoir);
}

TEST_F(ObsSimTest, LatencyReservoirKnobCapsSampleMemory) {
  auto cfg = small_config();
  cfg.latency_reservoir = 64;
  const core::RunReport report = run_report(cfg);
  const auto& m = report.variant(core::Variant::kStarCdn).metrics;
  EXPECT_LE(m.latency_ms.samples().size(), 64u);
  // count() still reflects every observation, only storage is capped.
  EXPECT_GT(m.latency_ms.count(), 64u);
}

}  // namespace
}  // namespace starcdn
