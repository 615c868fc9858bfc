#include "replay/replayer.h"

#include <gtest/gtest.h>

#include "trace/workload.h"
#include "util/geo.h"

namespace starcdn::replay {
namespace {

/// Small cluster so the TCP mode stays cheap: 6x4 grid = 24 workers.
orbit::WalkerParams small_shell() {
  orbit::WalkerParams p;
  p.planes = 6;
  p.slots_per_plane = 4;
  return p;
}

std::vector<trace::Request> small_requests() {
  auto p = trace::default_params(trace::TrafficClass::kVideo);
  p.object_count = 2'000;
  p.duration_s = 600.0;
  const trace::WorkloadModel w(util::paper_cities(), p);
  std::vector<trace::Request> reqs;
  for (std::size_t c = 0; c < util::paper_cities().size(); ++c) {
    const auto t = w.generate_city(c, 400);
    reqs.insert(reqs.end(), t.requests.begin(), t.requests.end());
  }
  std::sort(reqs.begin(), reqs.end(),
            [](const auto& a, const auto& b) {
              return a.timestamp_s < b.timestamp_s;
            });
  return reqs;
}

/// replay_cluster over a materialized trace.
ReplayReport replay(const orbit::Constellation& shell,
                    const sched::LinkSchedule& schedule,
                    const std::vector<trace::Request>& requests,
                    const ReplayConfig& cfg) {
  trace::VectorStream stream(requests);
  return replay_cluster(shell, schedule, stream, cfg);
}

TEST(Replay, InProcessBasicAccounting) {
  const orbit::Constellation shell{small_shell()};
  const sched::LinkSchedule schedule(shell, util::paper_cities(), util::Seconds{600.0});
  const auto requests = small_requests();

  ReplayConfig cfg;
  cfg.cache_capacity = util::mib(512);
  const auto report = replay(shell, schedule, requests, cfg);
  EXPECT_EQ(report.requests, requests.size());
  EXPECT_GT(report.hits, 0u);
  EXPECT_EQ(report.hits + report.misses, report.requests);
  EXPECT_GT(report.request_hit_rate(), 0.0);
  EXPECT_GT(report.uplink_bytes, 0u);
}

TEST(Replay, TcpModeMatchesInProcessBitForBit) {
  // The paper's replayer uses TCP between per-satellite processes; our two
  // transports must produce identical results — the protocol, not the
  // transport, determines caching behaviour.
  const orbit::Constellation shell{small_shell()};
  const sched::LinkSchedule schedule(shell, util::paper_cities(), util::Seconds{600.0});
  const auto requests = small_requests();

  ReplayConfig inproc;
  inproc.cache_capacity = util::mib(256);
  inproc.transport = TransportKind::kInProcess;
  ReplayConfig tcp = inproc;
  tcp.transport = TransportKind::kTcp;

  const auto a = replay(shell, schedule, requests, inproc);
  const auto b = replay(shell, schedule, requests, tcp);
  EXPECT_EQ(a, b);
}

TEST(Replay, RelayImprovesHitRate) {
  const orbit::Constellation shell{small_shell()};
  const sched::LinkSchedule schedule(shell, util::paper_cities(), util::Seconds{600.0});
  const auto requests = small_requests();

  ReplayConfig with_relay;
  with_relay.cache_capacity = util::mib(128);
  ReplayConfig no_east = with_relay;
  no_east.relay_east = false;

  const auto full = replay(shell, schedule, requests, with_relay);
  const auto west_only = replay(shell, schedule, requests, no_east);
  EXPECT_GE(full.hits, west_only.hits);
  EXPECT_GT(full.relay_hits, 0u);
}

TEST(Replay, DeterministicAcrossRuns) {
  const orbit::Constellation shell{small_shell()};
  const sched::LinkSchedule schedule(shell, util::paper_cities(), util::Seconds{600.0});
  const auto requests = small_requests();
  ReplayConfig cfg;
  cfg.cache_capacity = util::mib(64);
  const auto a = replay(shell, schedule, requests, cfg);
  const auto b = replay(shell, schedule, requests, cfg);
  EXPECT_EQ(a, b);
}

TEST(Replay, RejectsLocationOutsideSchedule) {
  // location == n_cities at the last epoch would read past the end of the
  // schedule table; the schedule rejects it and the cluster still shuts
  // down cleanly.
  const orbit::Constellation shell{small_shell()};
  const sched::LinkSchedule schedule(shell, util::paper_cities(),
                                     util::Seconds{600.0});
  trace::Request r;
  r.timestamp_s = 599.0;
  r.object = 1;
  r.size = 1024;
  r.location = static_cast<std::uint16_t>(util::paper_cities().size());
  const std::vector<trace::Request> bad{r};
  EXPECT_THROW((void)replay(shell, schedule, bad, ReplayConfig{}),
               std::out_of_range);
}

}  // namespace
}  // namespace starcdn::replay
