#include "trace/workload.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "util/geo.h"
#include "util/hash.h"

namespace starcdn::trace {
namespace {

WorkloadParams tiny_params() {
  auto p = default_params(TrafficClass::kVideo);
  p.object_count = 20'000;
  p.requests_per_weight = 8'000;
  p.duration_s = 2 * util::kHour.value();
  return p;
}

TEST(Workload, DefaultParamsPerClass) {
  const auto video = default_params(TrafficClass::kVideo);
  const auto web = default_params(TrafficClass::kWeb);
  const auto dl = default_params(TrafficClass::kDownload);
  // Web: smaller objects, more of them. Downloads: fewer, larger, global.
  EXPECT_LT(web.size_mu, video.size_mu);
  EXPECT_GT(dl.size_mu, video.size_mu);
  EXPECT_GT(web.object_count, dl.object_count);
  EXPECT_GT(dl.global_fraction, video.global_fraction);
}

TEST(WorkloadModel, RejectsZeroObjectCount) {
  auto p = tiny_params();
  p.object_count = 0;
  try {
    const WorkloadModel w(util::paper_cities(), p);
    FAIL() << "object_count = 0 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("object_count"), std::string::npos)
        << e.what();
  }
}

TEST(WorkloadModel, RequestProbabilityDigestPinned) {
  // Every object x city of the video default, bit for bit: the region
  // gate, the distance decay, the reach cut-off and each table's total.
  const auto& cities = util::paper_cities();
  const WorkloadModel model(cities, default_params(TrafficClass::kVideo));
  std::uint64_t h = 0;
  for (std::size_t c = 0; c < cities.size(); ++c) {
    for (std::size_t i = 0; i < model.object_count(); ++i) {
      h = util::hash_combine(h, std::bit_cast<std::uint64_t>(
                                    model.request_probability(
                                        static_cast<ObjectId>(i), c)));
    }
  }
  EXPECT_EQ(h, 0x196a72e66548de7dULL) << std::hex << h;
}

TEST(Workload, GenerationIsDeterministic) {
  const auto& cities = util::paper_cities();
  const WorkloadModel a(cities, tiny_params());
  const WorkloadModel b(cities, tiny_params());
  const auto ta = a.generate_city(0, 1'000);
  const auto tb = b.generate_city(0, 1'000);
  ASSERT_EQ(ta.requests.size(), tb.requests.size());
  for (std::size_t i = 0; i < ta.requests.size(); ++i) {
    EXPECT_EQ(ta.requests[i].object, tb.requests[i].object);
    EXPECT_EQ(ta.requests[i].timestamp_s, tb.requests[i].timestamp_s);
  }
}

TEST(Workload, SeedChangesTrace) {
  const auto& cities = util::paper_cities();
  auto p1 = tiny_params();
  auto p2 = tiny_params();
  p2.seed = 777;
  const auto ta = WorkloadModel(cities, p1).generate_city(0, 500);
  const auto tb = WorkloadModel(cities, p2).generate_city(0, 500);
  int same = 0;
  for (std::size_t i = 0; i < 500; ++i) {
    same += ta.requests[i].object == tb.requests[i].object;
  }
  EXPECT_LT(same, 250);
}

TEST(Workload, TimestampsSortedAndBounded) {
  const auto& cities = util::paper_cities();
  const WorkloadModel w(cities, tiny_params());
  const auto t = w.generate_city(2, 2'000);
  for (std::size_t i = 1; i < t.requests.size(); ++i) {
    EXPECT_LE(t.requests[i - 1].timestamp_s, t.requests[i].timestamp_s);
  }
  EXPECT_GE(t.requests.front().timestamp_s, 0.0);
  EXPECT_LT(t.requests.back().timestamp_s, tiny_params().duration_s);
}

TEST(Workload, RequestCountsFollowCityWeights) {
  const auto& cities = util::paper_cities();
  const WorkloadModel w(cities, tiny_params());
  const auto traces = w.generate();
  ASSERT_EQ(traces.size(), cities.size());
  // New York (weight 1.8) must have more requests than Vienna (0.8).
  EXPECT_GT(traces[4].requests.size(), traces[7].requests.size());
  EXPECT_EQ(traces[4].location_name, "NewYork");
}

TEST(Workload, SizesConsistentPerObject) {
  const auto& cities = util::paper_cities();
  const WorkloadModel w(cities, tiny_params());
  const auto t = w.generate_city(0, 3'000);
  for (const auto& r : t.requests) {
    EXPECT_EQ(r.size, w.object_size(r.object));
    EXPECT_GE(r.size, 1u);
  }
}

TEST(Workload, OverlapDecaysWithDistance) {
  // The Fig. 2 property: nearby same-region cities share much more traffic
  // than transatlantic or cross-language pairs.
  const auto& cities = util::paper_cities();
  auto p = tiny_params();
  p.requests_per_weight = 20'000;
  const WorkloadModel w(cities, p);
  const auto traces = w.generate();
  const auto ny_dc = overlap(traces[4], traces[3]);       // 327 km, same region
  const auto ny_london = overlap(traces[4], traces[5]);   // 5,570 km, en family
  const auto ny_istanbul = overlap(traces[4], traces[8]); // 8,070 km, cross
  EXPECT_GT(ny_dc.traffic_overlap, 0.75);
  EXPECT_GT(ny_dc.traffic_overlap, ny_london.traffic_overlap);
  EXPECT_GT(ny_dc.traffic_overlap, ny_istanbul.traffic_overlap);
  EXPECT_LT(ny_london.traffic_overlap, 0.6);
  EXPECT_LT(ny_istanbul.traffic_overlap, 0.5);
  // Traffic overlap always exceeds object overlap (hot objects travel).
  EXPECT_GT(ny_dc.traffic_overlap, ny_dc.object_overlap);
}

TEST(Workload, RegionGateExcludesContentDeterministically) {
  const auto& cities = util::paper_cities();
  const WorkloadModel w(cities, tiny_params());
  // Frankfurt (6) and Vienna (7) share the "de" region: every object must
  // have identical reachability status (zero or non-zero) driven by the
  // same gate, scaled only by distance.
  int de_mismatch = 0;
  for (ObjectId id = 0; id < 2'000; ++id) {
    const bool in_ffm = w.weight(id, 6) > 0.0;
    const bool in_vie = w.weight(id, 7) > 0.0;
    if (in_ffm != in_vie) ++de_mismatch;
  }
  // Reach decay can differ slightly; mismatches must be rare.
  EXPECT_LT(de_mismatch, 100);
}

TEST(Workload, HomeCityAlwaysReachable) {
  const auto& cities = util::paper_cities();
  const WorkloadModel w(cities, tiny_params());
  // Every object must be accessible somewhere (its home city).
  for (ObjectId id = 0; id < 1'000; ++id) {
    double max_w = 0.0;
    for (std::size_t c = 0; c < cities.size(); ++c) {
      max_w = std::max(max_w, w.weight(id, c));
    }
    EXPECT_GT(max_w, 0.0) << "object " << id << " unreachable everywhere";
  }
}

TEST(Workload, MergeByTimeGloballySorted) {
  const auto& cities = util::paper_cities();
  const WorkloadModel w(cities, tiny_params());
  const auto merged = merge_by_time(w.generate());
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1].timestamp_s, merged[i].timestamp_s);
  }
  EXPECT_GT(merged.size(), 0u);
}

TEST(Workload, EmptyCitiesThrows) {
  const std::vector<util::City> none;
  EXPECT_THROW(WorkloadModel(none, tiny_params()), std::invalid_argument);
}

TEST(Overlap, SelfOverlapIsTotal) {
  const auto& cities = util::paper_cities();
  const WorkloadModel w(cities, tiny_params());
  const auto t = w.generate_city(0, 1'000);
  const auto r = overlap(t, t);
  EXPECT_DOUBLE_EQ(r.object_overlap, 1.0);
  EXPECT_DOUBLE_EQ(r.traffic_overlap, 1.0);
}

TEST(Overlap, DisjointTracesOverlapZero) {
  LocationTrace a, b;
  a.requests.push_back({0.0, 1, 10, 0});
  b.requests.push_back({0.0, 2, 10, 1});
  const auto r = overlap(a, b);
  EXPECT_DOUBLE_EQ(r.object_overlap, 0.0);
  EXPECT_DOUBLE_EQ(r.traffic_overlap, 0.0);
}

}  // namespace
}  // namespace starcdn::trace
