#include "replay/replayer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/workload.h"
#include "util/geo.h"

namespace starcdn::replay {
namespace {

/// A small cluster, so the TCP mode stays cheap (6x4 grid = 24 workers),
/// its 600 s schedule and a 3,600-request trace, built once for the suite.
class Replay : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    orbit::WalkerParams p;
    p.planes = 6;
    p.slots_per_plane = 4;
    shell_ = std::make_unique<orbit::Constellation>(p);
    schedule_ = std::make_unique<sched::LinkSchedule>(
        *shell_, util::paper_cities(), util::Seconds{600.0});
    requests_ = std::make_unique<std::vector<trace::Request>>(
        small_requests());
  }
  static void TearDownTestSuite() {
    requests_.reset();
    schedule_.reset();
    shell_.reset();
  }

  static std::vector<trace::Request> small_requests() {
    auto p = trace::default_params(trace::TrafficClass::kVideo);
    p.object_count = 2'000;
    p.duration_s = 600.0;
    const trace::WorkloadModel w(util::paper_cities(), p);
    std::vector<trace::Request> reqs;
    for (std::size_t c = 0; c < util::paper_cities().size(); ++c) {
      const auto t = w.generate_city(c, 400);
      reqs.insert(reqs.end(), t.requests.begin(), t.requests.end());
    }
    std::sort(reqs.begin(), reqs.end(), [](const auto& a, const auto& b) {
      return a.timestamp_s < b.timestamp_s;
    });
    return reqs;
  }

  /// replay_cluster over `requests` (the suite's trace by default).
  static ReplayReport replay(const ReplayConfig& cfg,
                             const std::vector<trace::Request>& requests =
                                 *requests_) {
    trace::VectorStream stream(requests);
    return replay_cluster(*shell_, *schedule_, stream, cfg);
  }

  /// replay_cluster over `requests` in `chunk`-request blocks; the message
  /// of the std::invalid_argument it throws, or "" when it does not throw.
  static std::string rejection(const std::vector<trace::Request>& requests,
                               std::size_t chunk) {
    trace::VectorStream stream(requests, chunk);
    try {
      (void)replay_cluster(*shell_, *schedule_, stream, ReplayConfig{});
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  }

  /// The suite trace's first six requests.
  static std::vector<trace::Request> first_six() {
    return {requests_->begin(), requests_->begin() + 6};
  }

  static inline std::unique_ptr<orbit::Constellation> shell_;
  static inline std::unique_ptr<sched::LinkSchedule> schedule_;
  static inline std::unique_ptr<std::vector<trace::Request>> requests_;
};

TEST_F(Replay, InProcessBasicAccounting) {
  ReplayConfig cfg;
  cfg.cache_capacity = util::mib(512);
  const auto report = replay(cfg);
  EXPECT_EQ(report.requests, requests_->size());
  EXPECT_GT(report.hits, 0u);
  EXPECT_EQ(report.hits + report.misses, report.requests);
  EXPECT_GT(report.request_hit_rate(), 0.0);
  EXPECT_GT(report.uplink_bytes, 0u);
}

TEST_F(Replay, TcpModeMatchesInProcessBitForBit) {
  // The paper's replayer uses TCP between per-satellite processes; our two
  // transports must produce identical results — the protocol, not the
  // transport, determines caching behaviour.
  ReplayConfig inproc;
  inproc.cache_capacity = util::mib(256);
  inproc.transport = TransportKind::kInProcess;
  ReplayConfig tcp = inproc;
  tcp.transport = TransportKind::kTcp;
  EXPECT_EQ(replay(inproc), replay(tcp));
}

TEST_F(Replay, RelayImprovesHitRate) {
  ReplayConfig with_relay;
  with_relay.cache_capacity = util::mib(128);
  ReplayConfig no_east = with_relay;
  no_east.relay_east = false;

  const auto full = replay(with_relay);
  const auto west_only = replay(no_east);
  EXPECT_GE(full.hits, west_only.hits);
  EXPECT_GT(full.relay_hits, 0u);
}

TEST_F(Replay, DeterministicAcrossRuns) {
  ReplayConfig cfg;
  cfg.cache_capacity = util::mib(64);
  EXPECT_EQ(replay(cfg), replay(cfg));
}

TEST_F(Replay, RejectsLocationOutsideSchedule) {
  // location == n_cities at the last epoch would read past the end of the
  // schedule table; the schedule rejects it and the cluster still shuts
  // down cleanly.
  trace::Request r;
  r.timestamp_s = 599.0;
  r.object = 1;
  r.size = 1024;
  r.location = static_cast<std::uint16_t>(util::paper_cities().size());
  EXPECT_THROW((void)replay(ReplayConfig{}, {r}), std::out_of_range);
}

TEST_F(Replay, RejectsOutOfOrderNaNAndNegativeTimestamps) {
  const auto ok = first_six();
  ASSERT_EQ(rejection(ok, 64), "");

  auto reversed = ok;
  std::swap(reversed[3].timestamp_s, reversed[4].timestamp_s);
  ASSERT_LT(reversed[4].timestamp_s, reversed[3].timestamp_s);
  EXPECT_EQ(rejection(reversed, 64).rfind("request 4:", 0), 0u);

  auto nan = ok;
  nan[2].timestamp_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(rejection(nan, 64).rfind("request 2:", 0), 0u);

  auto negative = ok;
  negative[0].timestamp_s = -1.0;
  EXPECT_EQ(rejection(negative, 64).rfind("request 0:", 0), 0u);
}

TEST_F(Replay, RejectsStepBackAcrossChunkBoundary) {
  auto split = first_six();
  split[3].timestamp_s = std::nextafter(split[2].timestamp_s, 0.0);
  EXPECT_EQ(rejection(split, 3).rfind("request 3:", 0), 0u);
  EXPECT_EQ(rejection(split, 64).rfind("request 3:", 0), 0u);
}

TEST_F(Replay, RejectsTimestampAtScheduleHorizon) {
  // The 600 s schedule has 40 epochs of 15 s: 600 s has no geometry. The
  // first request at the horizon is the first of the second 3-request
  // chunk, so its position is counted across chunks.
  const double horizon = 600.0;
  auto late = first_six();
  for (std::size_t i = 3; i < late.size(); ++i) late[i].timestamp_s = horizon;
  EXPECT_EQ(rejection(late, 3).rfind("request 3:", 0), 0u);
  EXPECT_EQ(rejection(late, 64).rfind("request 3:", 0), 0u);

  auto below = late;
  for (std::size_t i = 3; i < below.size(); ++i) {
    below[i].timestamp_s = std::nextafter(horizon, 0.0);
  }
  EXPECT_EQ(rejection(below, 3), "");
}

}  // namespace
}  // namespace starcdn::replay
