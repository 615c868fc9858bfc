// The streaming trace pipeline's contract (DESIGN.md §12): chunked streams
// are *bitwise* equivalent to the materialized path — same requests, same
// order, same simulator metrics — for any chunk size and thread count; the
// loser-tree merge reproduces merge_by_time's stable tie-break exactly; and
// the minute-major generator keeps its counting pass and its cities'
// popularity tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/simulator.h"
#include "sched/scheduler.h"
#include "trace/minute_order.h"
#include "trace/stream.h"
#include "trace/trace_io.h"
#include "trace/workload.h"
#include "util/geo.h"
#include "util/hash.h"
#include "util/loser_tree.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace starcdn {
namespace {

struct ThreadOverrideGuard {
  explicit ThreadOverrideGuard(int n) { util::set_parallel_threads(n); }
  ~ThreadOverrideGuard() { util::set_parallel_threads(0); }
};

// --- LoserTree ---------------------------------------------------------------

/// Merge sorted integer sources through the tree, tie-breaking on source
/// index — the reference is a concatenate + stable_sort.
std::vector<int> tree_merge(const std::vector<std::vector<int>>& sources) {
  std::vector<std::size_t> pos(sources.size(), 0);
  const auto less = [&](std::size_t a, std::size_t b) {
    const bool ea = pos[a] >= sources[a].size();
    const bool eb = pos[b] >= sources[b].size();
    if (ea || eb) return !ea && eb;
    if (sources[a][pos[a]] != sources[b][pos[b]]) {
      return sources[a][pos[a]] < sources[b][pos[b]];
    }
    return a < b;
  };
  util::LoserTree<decltype(less)> tree(sources.size(), less);
  std::size_t total = 0;
  for (const auto& s : sources) total += s.size();
  std::vector<int> out;
  out.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    out.push_back(sources[tree.winner()][pos[tree.winner()]]);
    ++pos[tree.winner()];
    tree.replayed();
  }
  return out;
}

TEST(LoserTree, MergesSortedSourcesWithStableTieBreak) {
  const std::vector<std::vector<int>> sources = {
      {1, 4, 4, 9}, {2, 4, 7}, {}, {0, 4, 4, 4, 12}, {4}};
  const auto merged = tree_merge(sources);
  const std::vector<int> expect = {0, 1, 2, 4, 4, 4, 4, 4, 4, 4, 7, 9, 12};
  EXPECT_EQ(merged, expect);
}

TEST(LoserTree, SingleAndEmptySourceCounts) {
  EXPECT_EQ(tree_merge({{3, 5, 8}}), (std::vector<int>{3, 5, 8}));
  EXPECT_EQ(tree_merge({}), std::vector<int>{});
  EXPECT_EQ(tree_merge({{}, {}}), std::vector<int>{});
}

TEST(LoserTree, NonPowerOfTwoSourceCounts) {
  for (std::size_t k = 1; k <= 9; ++k) {
    std::vector<std::vector<int>> sources(k);
    std::vector<int> expect;
    for (std::size_t s = 0; s < k; ++s) {
      for (int v = static_cast<int>(s); v < 40; v += static_cast<int>(k)) {
        sources[s].push_back(v);
        expect.push_back(v);
      }
    }
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(tree_merge(sources), expect) << "k=" << k;
  }
}

// --- merge_by_time on the loser tree -----------------------------------------

/// The pre-loser-tree implementation, kept as the ordering reference: the
/// merge must stay byte-for-byte compatible with concatenation in trace
/// order + stable sort by timestamp.
std::vector<trace::Request> legacy_merge(const trace::MultiTrace& traces) {
  std::vector<trace::Request> all;
  for (const auto& t : traces) {
    all.insert(all.end(), t.requests.begin(), t.requests.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const trace::Request& a, const trace::Request& b) {
                     return a.timestamp_s < b.timestamp_s;
                   });
  return all;
}

void expect_same_requests(const std::vector<trace::Request>& a,
                          const std::vector<trace::Request>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].timestamp_s, b[i].timestamp_s) << "request " << i;
    ASSERT_EQ(a[i].object, b[i].object) << "request " << i;
    ASSERT_EQ(a[i].size, b[i].size) << "request " << i;
    ASSERT_EQ(a[i].location, b[i].location) << "request " << i;
  }
}

trace::MultiTrace traces_with_ties() {
  // Deliberate cross-trace timestamp ties: the stable tie-break (earlier
  // trace first) is exactly what the loser tree must reproduce.
  trace::MultiTrace traces(3);
  for (std::uint16_t t = 0; t < 3; ++t) {
    traces[t].location = t;
    for (int i = 0; i < 50; ++i) {
      trace::Request r;
      r.timestamp_s = static_cast<double>(i / 2);  // ties within & across
      r.object = static_cast<trace::ObjectId>(1000 * t + i);
      r.size = 100 + t;
      r.location = t;
      traces[t].requests.push_back(r);
    }
  }
  traces.push_back({});  // empty trailing trace
  return traces;
}

TEST(MergeByTime, PinsLegacyStableOrdering) {
  const auto traces = traces_with_ties();
  expect_same_requests(trace::merge_by_time(traces), legacy_merge(traces));
}

TEST(MergeByTime, WorkloadTracesMatchLegacyOrdering) {
  auto p = trace::default_params(trace::TrafficClass::kVideo);
  p.object_count = 5'000;
  p.requests_per_weight = 2'000;
  p.duration_s = util::kHour.value();
  const trace::WorkloadModel model(util::paper_cities(), p);
  const auto traces = model.generate();
  expect_same_requests(trace::merge_by_time(traces), legacy_merge(traces));
}

// --- Stream adapters ---------------------------------------------------------

TEST(RequestStream, VectorStreamRoundTripsAtAnyChunk) {
  const auto traces = traces_with_ties();
  const auto merged = trace::merge_by_time(traces);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  trace::kDefaultChunkRequests}) {
    trace::VectorStream stream(merged, chunk);
    ASSERT_EQ(stream.size_hint(), merged.size());
    expect_same_requests(trace::collect(stream), merged);
  }
}

TEST(RequestStream, MultiTraceStreamMatchesMergeByTime) {
  const auto traces = traces_with_ties();
  const auto merged = trace::merge_by_time(traces);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  trace::kDefaultChunkRequests}) {
    trace::MultiTraceStream stream(traces, chunk);
    ASSERT_EQ(stream.size_hint(), merged.size());
    expect_same_requests(trace::collect(stream), merged);
  }
}

TEST(RequestStream, BlocksNeverEmptyAndRespectChunkSize) {
  const auto traces = traces_with_ties();
  trace::MultiTraceStream stream(traces, 16);
  trace::RequestBlock block;
  std::size_t total = 0;
  while (stream.next(block)) {
    ASSERT_FALSE(block.empty());
    ASSERT_LE(block.count(), 16u);
    total += block.count();
  }
  EXPECT_EQ(total, *stream.size_hint());
  EXPECT_TRUE(block.empty());  // next() leaves the block empty at EOS
}

TEST(RequestStream, FileRoundTripPreservesBlocksAndRequests) {
  const auto traces = traces_with_ties();
  const auto merged = trace::merge_by_time(traces);
  const std::string path = testing::TempDir() + "stream_roundtrip.bin";

  trace::MultiTraceStream writer_src(traces, 13);
  trace::write_binary_stream(writer_src, path);

  const auto reader = trace::open_binary_stream(path);
  ASSERT_EQ(reader->size_hint(), merged.size());
  trace::RequestBlock block;
  std::vector<trace::Request> back;
  while (reader->next(block)) {
    ASSERT_FALSE(block.empty());
    ASSERT_LE(block.count(), 13u);  // written block sizes preserved
    for (std::size_t i = 0; i < block.count(); ++i) {
      back.push_back(block.at(i));
    }
  }
  expect_same_requests(back, merged);
  std::remove(path.c_str());
}

// --- generate_stream ---------------------------------------------------------

trace::WorkloadParams small_params() {
  auto p = trace::default_params(trace::TrafficClass::kVideo);
  p.object_count = 5'000;
  p.requests_per_weight = 2'000;
  p.duration_s = util::kHour.value();
  return p;
}

TEST(GenerateStream, BitwiseMatchesMaterializedAcrossChunksAndThreads) {
  const trace::WorkloadModel model(util::paper_cities(), small_params());
  const auto merged = trace::merge_by_time(model.generate());
  // The hour holds about 370 requests a minute: chunks 1 and 7 leave most
  // of a minute for later blocks, 1,000 spans a few minutes and 64 Ki the
  // whole trace.
  for (const int threads : {1, 4, 8}) {
    for (const std::size_t chunk :
         {std::size_t{1}, std::size_t{7}, std::size_t{1000},
          trace::kDefaultChunkRequests}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " chunk=" + std::to_string(chunk));
      ThreadOverrideGuard guard(threads);
      const auto stream = model.generate_stream({chunk});
      ASSERT_EQ(stream->size_hint(), merged.size());
      std::vector<trace::Request> streamed;
      trace::RequestBlock block;
      while (stream->next(block)) {
        // Every block but the last holds exactly one chunk.
        ASSERT_EQ(block.count(),
                  std::min(chunk, merged.size() - streamed.size()));
        for (std::size_t i = 0; i < block.count(); ++i) {
          streamed.push_back(block.at(i));
        }
      }
      expect_same_requests(streamed, merged);
    }
  }
}

TEST(GenerateStream, ThreadCountInvariant) {
  // A whole day at low density: one 64 Ki fill spans hundreds of minutes,
  // thousands of (city, minute) cells.
  auto p = small_params();
  p.duration_s = util::kDay.value();
  p.requests_per_weight = 20'000;
  const trace::WorkloadModel model(util::paper_cities(), p);
  const auto merged = trace::merge_by_time(model.generate());
  for (const int threads : {1, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadOverrideGuard guard(threads);
    const auto stream = model.generate_stream();
    expect_same_requests(trace::collect(*stream), merged);
  }
}

TEST(GenerateStream, DenseAndTiedMinutesMatchMaterialized) {
  // A fill merges each minute in time slices of a few thousand draws. Five
  // dense minutes (about 22,000 requests each) take several slices apiece;
  // a 30 s trace has one minute, half of whose draws the end-of-day clamp
  // ties at 29.999 s across every city, so the (timestamp, city)
  // tie-break decides their order.
  for (const double duration_s : {300.0, 30.0}) {
    auto p = small_params();
    p.duration_s = duration_s;
    p.requests_per_weight = duration_s > 60.0 ? 10'000 : 2'000;
    const trace::WorkloadModel model(util::paper_cities(), p);
    const auto merged = trace::merge_by_time(model.generate());
    for (const int threads : {1, 4}) {
      for (const std::size_t chunk : {std::size_t{7}, std::size_t{1000},
                                      trace::kDefaultChunkRequests}) {
        SCOPED_TRACE("duration=" + std::to_string(duration_s) +
                     " threads=" + std::to_string(threads) +
                     " chunk=" + std::to_string(chunk));
        ThreadOverrideGuard guard(threads);
        const auto stream = model.generate_stream({chunk});
        expect_same_requests(trace::collect(*stream), merged);
      }
    }
  }
}

TEST(GenerateStream, EmptyCityAndSingleRequestEdgeCases) {
  std::vector<util::City> cities = {
      {"quiet", {48.0, 11.0}, 0.0, "de"},     // zero traffic weight
      {"busy", {51.5, -0.1}, 1.0, "en-gb"},
      {"silent", {40.7, -74.0}, 0.0, "en-us"},
  };
  auto p = trace::default_params(trace::TrafficClass::kVideo);
  p.object_count = 500;
  p.duration_s = util::kHour.value();

  p.requests_per_weight = 1;  // exactly one request, from the busy city
  {
    const trace::WorkloadModel model(cities, p);
    EXPECT_EQ(model.total_request_count(), 1u);
    const auto merged = trace::merge_by_time(model.generate());
    ASSERT_EQ(merged.size(), 1u);
    const auto stream = model.generate_stream({1});
    expect_same_requests(trace::collect(*stream), merged);
  }

  p.requests_per_weight = 300;
  {
    const trace::WorkloadModel model(cities, p);
    const auto merged = trace::merge_by_time(model.generate());
    ASSERT_EQ(merged.size(), 300u);
    for (const auto& r : merged) EXPECT_EQ(r.location, 1);
    const auto stream = model.generate_stream({17});
    expect_same_requests(trace::collect(*stream), merged);
  }
}

TEST(GenerateStream, AllCitiesEmptyYieldsNothing) {
  // Per-city counts truncate to zero: weight * requests_per_weight < 1.
  std::vector<util::City> cities = {{"a", {0.0, 0.0}, 0.0, "x"},
                                    {"b", {1.0, 1.0}, 0.9, "y"}};
  auto p = trace::default_params(trace::TrafficClass::kVideo);
  p.object_count = 100;
  p.requests_per_weight = 1;
  const trace::WorkloadModel model(cities, p);
  const auto stream = model.generate_stream();
  ASSERT_EQ(stream->size_hint(), 0u);
  trace::RequestBlock block;
  EXPECT_FALSE(stream->next(block));
}

/// Order-sensitive hash of every emitted field (timestamp bits, object,
/// size, location).
std::uint64_t trace_digest(const std::vector<trace::Request>& requests) {
  std::uint64_t h = 0;
  for (const auto& r : requests) {
    h = util::hash_combine(h, std::bit_cast<std::uint64_t>(r.timestamp_s));
    h = util::hash_combine(h, static_cast<std::uint64_t>(r.object));
    h = util::hash_combine(h, static_cast<std::uint64_t>(r.size));
    h = util::hash_combine(h, r.location);
  }
  return h;
}

TEST(GenerateStream, TraceDigestPinned) {
  // The identity tests above compare the two generation paths with each
  // other, so a change to the sampler or the time ordering they share
  // would pass them. This pins the generated trace itself, as drawn
  // minute-major (trace/minute_order.h).
  const trace::WorkloadModel model(util::paper_cities(), small_params());
  const std::uint64_t total = model.total_request_count();
  const auto stream = model.generate_stream();
  const auto streamed = trace::collect(*stream);
  ASSERT_EQ(streamed.size(), total);
  constexpr std::uint64_t kPinned = 0x041018b84d23c7ecULL;
  EXPECT_EQ(trace_digest(streamed), kPinned)
      << std::hex << trace_digest(streamed);
  EXPECT_EQ(trace_digest(trace::merge_by_time(model.generate())), kPinned);
}

TEST(MinuteOrder, LastFractionStaysInItsMinute) {
  // (m + (1 - 2^-53))·60 rounds to (m+1)·60 for every m >= 1; the draw must
  // still land in minute m, so that a draw's minute is its cell.
  constexpr double kLastFraction = 1.0 - 0x1.0p-53;
  for (const std::size_t m :
       {std::size_t{1}, std::size_t{2}, std::size_t{59}, std::size_t{1439},
        std::size_t{100'000}}) {
    SCOPED_TRACE("minute " + std::to_string(m));
    const double start = static_cast<double>(m) * 60.0;
    const double ts = trace::detail::draw_timestamp(m, kLastFraction, 1e12);
    EXPECT_LT(ts, start + 60.0);
    EXPECT_GE(ts, start);
    EXPECT_EQ(ts, std::nextafter(start + 60.0, 0.0));
    EXPECT_EQ(trace::detail::draw_timestamp(m, 0.0, 1e12), start);
  }
  // The end-of-day clamp keeps the last minute's draws inside it.
  const double clamp = 3'600.0 - 1e-3;
  EXPECT_EQ(trace::detail::draw_timestamp(59, kLastFraction, clamp), clamp);
  EXPECT_GE(clamp, 59 * 60.0);
}

TEST(MinuteOrder, SortByTimeIsStableSort) {
  // Against std::stable_sort: spread-out timestamps, heavy ties (the
  // end-of-day clamp), one bucket holding everything, and items outside
  // the stated range.
  struct Item {
    double ts;
    std::size_t id;
  };
  util::Rng rng(11);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{17}, std::size_t{5'000}}) {
    for (int shape = 0; shape < 4; ++shape) {
      SCOPED_TRACE("n=" + std::to_string(n) + " shape=" +
                   std::to_string(shape));
      std::vector<Item> items(n);
      for (std::size_t i = 0; i < n; ++i) {
        double ts = 120.0 + 60.0 * rng.uniform();
        if (shape == 1 && rng.bernoulli(0.5)) ts = 150.0;   // ties
        if (shape == 2) ts = 120.0 + 1e-9 * rng.uniform();  // one bucket
        if (shape == 3) ts = 60.0 + 180.0 * rng.uniform();  // out of range
        items[i] = {ts, i};
      }
      auto expected = items;
      std::stable_sort(
          expected.begin(), expected.end(),
          [](const Item& a, const Item& b) { return a.ts < b.ts; });
      trace::detail::sort_by_time(std::span(items), 120.0, 60.0);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(items[i].id, expected[i].id) << "position " << i;
      }
    }
  }
}

/// The minute m with m·60 <= ts < (m+1)·60, exactly: ts / 60 can round up
/// to m + 1 for the last doubles of minute m.
std::size_t minute_of(double ts) {
  auto m = static_cast<std::size_t>(ts / util::kMinute.value());
  if (static_cast<double>(m) * util::kMinute.value() > ts) --m;
  return m;
}

TEST(GenerateStream, MinuteCountsMatchCountingPass) {
  const trace::WorkloadModel model(util::paper_cities(), small_params());
  const std::size_t cities = util::paper_cities().size();
  std::vector<std::vector<std::uint32_t>> counted(cities);
  for (std::size_t c = 0; c < cities; ++c) {
    counted[c] = model.minute_counts(c);
    ASSERT_EQ(counted[c].size(), 60u);
  }
  std::vector<std::vector<std::uint32_t>> streamed(
      cities, std::vector<std::uint32_t>(60, 0));
  const auto stream = model.generate_stream({1000});
  trace::RequestBlock block;
  while (stream->next(block)) {
    for (std::size_t i = 0; i < block.count(); ++i) {
      const std::size_t m = minute_of(block.timestamp_s[i]);
      ASSERT_LT(m, 60u);
      ++streamed[block.location[i]][m];
    }
  }
  for (std::size_t c = 0; c < cities; ++c) {
    SCOPED_TRACE("city " + std::to_string(c));
    EXPECT_EQ(streamed[c], counted[c]);
    std::uint64_t sum = 0;
    for (const auto n : counted[c]) sum += n;
    EXPECT_EQ(sum, model.city_request_count(c));
  }
}

/// Upper 1e-6 tail of the chi-squared distribution with `df` degrees of
/// freedom, by the Wilson–Hilferty cube-root normal approximation (z of the
/// standard normal's 1e-6 upper tail: 4.753).
double chi2_bound(double df) {
  const double v = 2.0 / (9.0 * df);
  const double c = 1.0 - v + 4.753 * std::sqrt(v);
  return df * c * c * c;
}

TEST(GenerateStream, ObjectFrequenciesMatchCityZipfTables) {
  // Pearson chi-squared of each city's object counts against its
  // popularity table. Objects are binned in probability order and merged
  // until every bin expects at least 20 requests; the statistic must stay
  // under the 1e-6 upper tail of chi-squared with (bins - 1) degrees of
  // freedom, so a correct generator fails one city's check with
  // probability about 1e-5 per seed, and this seed is fixed.
  auto p = small_params();
  p.object_count = 2'000;
  p.requests_per_weight = 20'000;
  const trace::WorkloadModel model(util::paper_cities(), p);
  const trace::MultiTrace traces = model.generate();
  for (std::size_t c = 0; c < traces.size(); ++c) {
    SCOPED_TRACE("city " + std::to_string(c));
    std::vector<std::uint64_t> seen(p.object_count, 0);
    for (const auto& r : traces[c].requests) ++seen[r.object];
    const auto n = static_cast<double>(traces[c].requests.size());
    std::vector<std::pair<double, std::uint64_t>> cells;  // (prob, count)
    for (std::size_t o = 0; o < p.object_count; ++o) {
      const double q = model.request_probability(o, c);
      if (q == 0.0) {
        EXPECT_EQ(seen[o], 0u) << "object " << o << " is out of reach";
        continue;
      }
      cells.emplace_back(q, seen[o]);
    }
    std::sort(cells.begin(), cells.end(), std::greater<>());
    std::vector<std::pair<double, double>> bins;  // (expected, observed)
    bool open = false;
    for (const auto& [q, count] : cells) {
      if (!open) bins.emplace_back(0.0, 0.0);
      bins.back().first += q * n;
      bins.back().second += static_cast<double>(count);
      open = bins.back().first < 20.0;
    }
    if (open && bins.size() > 1) {  // fold a short last bin into the one before
      bins[bins.size() - 2].first += bins.back().first;
      bins[bins.size() - 2].second += bins.back().second;
      bins.pop_back();
    }
    double chi2 = 0.0;
    for (const auto& [expected, observed] : bins) {
      chi2 += (observed - expected) * (observed - expected) / expected;
    }
    ASSERT_GE(bins.size(), 30u);
    EXPECT_LT(chi2, chi2_bound(static_cast<double>(bins.size() - 1)))
        << bins.size() << " bins";
  }
}

// --- Simulator::run(RequestStream&) ------------------------------------------

void expect_identical_metrics(const core::VariantMetrics& a,
                              const core::VariantMetrics& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.local_hits, b.local_hits);
  EXPECT_EQ(a.routed_hits, b.routed_hits);
  EXPECT_EQ(a.relay_west_hits, b.relay_west_hits);
  EXPECT_EQ(a.relay_east_hits, b.relay_east_hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.unreachable, b.unreachable);
  EXPECT_EQ(a.transient_misses, b.transient_misses);
  EXPECT_EQ(a.handovers, b.handovers);
  EXPECT_EQ(a.bytes_requested, b.bytes_requested);
  EXPECT_EQ(a.bytes_hit, b.bytes_hit);
  EXPECT_EQ(a.uplink_bytes, b.uplink_bytes);
  EXPECT_EQ(a.isl_bytes, b.isl_bytes);
  EXPECT_EQ(a.prefetch_bytes, b.prefetch_bytes);
  // Uplink meter statistics see identical (satellite, epoch) cells only if
  // the stream path defers its flush to the end of the run.
  EXPECT_EQ(a.uplink_meter.total_bytes(), b.uplink_meter.total_bytes());
  EXPECT_EQ(a.uplink_meter.throughput_gbps().count(),
            b.uplink_meter.throughput_gbps().count());
  EXPECT_EQ(a.uplink_meter.throughput_gbps().mean(),
            b.uplink_meter.throughput_gbps().mean());
  ASSERT_EQ(a.latency_ms.count(), b.latency_ms.count());
  EXPECT_EQ(a.latency_ms.median(), b.latency_ms.median());
  EXPECT_EQ(a.latency_ms.quantile(0.99), b.latency_ms.quantile(0.99));
}

TEST(SimulatorStream, BitwiseMatchesMaterializedAcrossChunksAndThreads) {
  const orbit::Constellation shell{orbit::WalkerParams{}};
  const trace::WorkloadModel workload(util::paper_cities(), small_params());
  const auto requests = trace::merge_by_time(workload.generate());
  const sched::LinkSchedule schedule(shell, util::paper_cities(),
                                     util::Seconds{small_params().duration_s});

  const std::vector<core::Variant> variants = {
      core::Variant::kStatic,     core::Variant::kStarCdn,
      core::Variant::kHashOnly,   core::Variant::kRelayOnly,
      core::Variant::kVanillaLru, core::Variant::kPrefetch};
  core::SimConfig cfg;
  cfg.cache_capacity = util::mib(64);
  cfg.buckets = 4;
  cfg.transient_down_prob = 0.02;

  auto simulate = [&](int threads, std::size_t chunk) {
    ThreadOverrideGuard guard(threads);
    core::Simulator sim(shell, schedule, cfg);
    for (const auto v : variants) sim.add_variant(v);
    trace::VectorStream stream(requests, chunk);
    sim.run(stream);
    return sim.finish();
  };

  // Reference: the whole trace as one block, on one thread.
  const core::RunReport reference = simulate(1, requests.size());
  for (const int threads : {1, 4, 8}) {
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                    trace::kDefaultChunkRequests}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " chunk=" + std::to_string(chunk));
      const core::RunReport streamed = simulate(threads, chunk);
      for (const auto v : variants) {
        SCOPED_TRACE(core::to_string(v));
        expect_identical_metrics(reference.variant(v).metrics,
                                 streamed.variant(v).metrics);
      }
    }
  }
}

TEST(SimulatorStream, GeneratedStreamMatchesMaterializedEndToEnd) {
  // The full pipeline: generate_stream -> Simulator::run(stream) equals
  // generate + merge_by_time replayed as one whole-trace block, with no
  // materialization on the stream side.
  const orbit::Constellation shell{orbit::WalkerParams{}};
  const trace::WorkloadModel workload(util::paper_cities(), small_params());
  const sched::LinkSchedule schedule(shell, util::paper_cities(),
                                     util::Seconds{small_params().duration_s});
  core::SimConfig cfg;
  cfg.cache_capacity = util::mib(64);

  const auto requests = trace::merge_by_time(workload.generate());
  core::Simulator materialized(shell, schedule, cfg);
  materialized.add_variant(core::Variant::kStarCdn);
  trace::VectorStream whole(requests, requests.size());
  materialized.run(whole);

  core::Simulator streamed(shell, schedule, cfg);
  streamed.add_variant(core::Variant::kStarCdn);
  const auto stream = workload.generate_stream({1024});
  streamed.run(*stream);

  expect_identical_metrics(
      materialized.finish().variant(core::Variant::kStarCdn).metrics,
      streamed.finish().variant(core::Variant::kStarCdn).metrics);
}

TEST(SimulatorStream, EmptyStreamIsANoOp) {
  const orbit::Constellation shell{orbit::WalkerParams{}};
  const sched::LinkSchedule schedule(shell, util::paper_cities(),
                                     util::Seconds{30 * 60.0});
  core::SimConfig cfg;
  core::Simulator sim(shell, schedule, cfg);
  sim.add_variant(core::Variant::kStarCdn);
  const std::vector<trace::Request> none;
  trace::VectorStream stream(none, 64);
  sim.run(stream);
  EXPECT_EQ(sim.finish().variant(core::Variant::kStarCdn).metrics.requests,
            0u);
}

}  // namespace
}  // namespace starcdn
