#include "replay/replayer.h"

#include <memory>
#include <thread>
#include <vector>

#include "core/serve.h"
#include "net/transport.h"
#include "obs/tracer.h"
#include "util/ids.h"

namespace starcdn::replay {

namespace {

using net::Channel;
using net::Message;
using net::MessageType;

constexpr std::uint32_t kShutdownFlag = 1u << 1;

/// Worker: one satellite's cache server. Speaks the wire protocol until a
/// shutdown control message arrives.
void worker_loop(std::uint32_t node_id, Channel& channel,
                 const ReplayConfig& config) {
  const auto cache = cache::make_cache(
      config.policy, config.cache_capacity,
      cache::presize_hint(config.cache_capacity,
                          config.mean_object_size_hint));
  for (;;) {
    const auto msg = channel.recv();
    if (!msg) return;  // orchestrator closed the channel
    Message reply;
    reply.src = node_id;
    reply.dst = msg->src;
    reply.object_id = msg->object_id;
    reply.size_bytes = msg->size_bytes;
    reply.request_id = msg->request_id;
    switch (msg->type) {
      case MessageType::kRequest:  // touch: a hit refreshes the entry
        reply.type = MessageType::kResponse;
        if (cache->touch(msg->object_id)) reply.flags |= net::kFlagHit;
        channel.send(reply);
        break;
      case MessageType::kRelayProbe:  // peek: no side effect
        reply.type = MessageType::kRelayReply;
        if (cache->peek(msg->object_id)) reply.flags |= net::kFlagHit;
        channel.send(reply);
        break;
      case MessageType::kGroundReply:  // admit (a fill); no reply
        cache->admit(msg->object_id, msg->size_bytes);
        break;
      case MessageType::kControl:
        if (msg->flags & kShutdownFlag) return;
        break;
      default:
        break;  // ignore unexpected traffic rather than wedging the cluster
    }
  }
}

struct Cluster {
  std::vector<std::unique_ptr<Channel>> channels;  // orchestrator side
  std::vector<std::thread> threads;

  Cluster() = default;
  Cluster(Cluster&&) = default;
  Cluster& operator=(Cluster&&) = default;

  ~Cluster() {
    for (auto& ch : channels) {
      if (ch) ch->close();
    }
    for (auto& t : threads) {
      if (t.joinable()) t.join();
    }
  }
};

Cluster spawn_cluster(int n_nodes, const ReplayConfig& config) {
  Cluster cluster;
  cluster.channels.resize(static_cast<std::size_t>(n_nodes));
  if (config.transport == TransportKind::kInProcess) {
    for (int i = 0; i < n_nodes; ++i) {
      auto [orch_end, node_end] = net::make_inproc_pair();
      cluster.channels[static_cast<std::size_t>(i)] = std::move(orch_end);
      cluster.threads.emplace_back(
          [i, &config, node = std::shared_ptr<Channel>(std::move(node_end))] {
            worker_loop(static_cast<std::uint32_t>(i), *node, config);
          });
    }
  } else {
    // TCP mode: workers dial the orchestrator's loopback listener and
    // identify themselves with a control hello (paper setup: per-satellite
    // processes over TCP; threads here, same wire behaviour).
    net::TcpListener listener(0);
    const std::uint16_t port = listener.port();
    for (int i = 0; i < n_nodes; ++i) {
      cluster.threads.emplace_back([i, port, &config] {
        auto ch = net::TcpChannel::connect("127.0.0.1", port);
        Message hello;
        hello.type = MessageType::kControl;
        hello.src = static_cast<std::uint32_t>(i);
        ch->send(hello);
        worker_loop(static_cast<std::uint32_t>(i), *ch, config);
      });
    }
    for (int i = 0; i < n_nodes; ++i) {
      auto ch = listener.accept();
      const auto hello = ch->recv();
      if (!hello || hello->type != MessageType::kControl) {
        throw std::runtime_error("replay: bad hello from worker");
      }
      cluster.channels[hello->src] = std::move(ch);
    }
  }
  return cluster;
}

/// The serve plan's cache access (core/serve.h) as messages to the
/// satellite workers: touch and peek are blocking RPCs, admit is one-way.
struct ClusterCaches {
  static constexpr bool kPeekBoth = false;  // no Table 3 split to report
  Cluster& cluster;
  std::uint64_t rpc_id = 0;

  /// Sends `type` about `id` to `sat`'s worker; returns the matching
  /// reply's hit flag, or false at once for a one-way fill.
  bool send(MessageType type, util::SatId sat, cache::ObjectId id,
            util::Bytes size = 0) {
    Message m;
    m.type = type;
    m.object_id = id;
    m.size_bytes = size;
    m.request_id = ++rpc_id;
    Channel& ch = *cluster.channels[util::as_index(sat)];
    ch.send(m);
    if (type == MessageType::kGroundReply) return false;
    for (;;) {
      auto reply = ch.recv();
      if (!reply) throw std::runtime_error("replay: worker died mid-RPC");
      if (reply->request_id == m.request_id) {
        return (reply->flags & net::kFlagHit) != 0;
      }
    }
  }
  bool touch(util::SatId sat, cache::ObjectId id) {
    return send(MessageType::kRequest, sat, id);
  }
  bool peek(util::SatId sat, cache::ObjectId id) {
    return send(MessageType::kRelayProbe, sat, id);
  }
  void admit(util::SatId sat, cache::ObjectId id, util::Bytes size) {
    send(MessageType::kGroundReply, sat, id, size);
  }
};

}  // namespace

ReplayReport replay_cluster(const orbit::Constellation& constellation,
                            const sched::LinkSchedule& schedule,
                            trace::RequestStream& stream,
                            const ReplayConfig& config) {
  const obs::TraceSpan span(
      obs::tracer(), "replay_cluster", "replay",
      {obs::arg("requests", stream.size_hint().value_or(0)),
       obs::arg("nodes", static_cast<std::int64_t>(constellation.size()))});
  const core::BucketMapper mapper(constellation, config.buckets);
  Cluster cluster = [&] {
    const obs::TraceSpan spawn_span(obs::tracer(), "spawn_cluster", "replay");
    return spawn_cluster(constellation.size(), config);
  }();

  const auto users = static_cast<std::uint64_t>(config.users_per_city);
  ClusterCaches caches{cluster};
  ReplayReport report;
  std::uint64_t request_counter = 0;
  trace::RequestBlock block;
  trace::TimeOrderCheck time_order(schedule.horizon().value());
  while (stream.next(block)) {
    time_order.check(block);
    for (std::size_t i = 0; i < block.count(); ++i) {
      const trace::Request r = block.at(i);
      ++report.requests;
      const util::SatId fc = core::contact(schedule, users, r.timestamp_s,
                                           util::CityId{r.location},
                                           request_counter++)
                                 .fc.sat;
      const core::Fetch f =
          fc.value() < 0
              ? core::Fetch{}  // coverage gap: bent pipe to the ground
              : core::fetch(
                    mapper, core::Variant::kStarCdn, config.relay_east,
                    core::route(mapper, fc, mapper.bucket_of_object(r.object)),
                    r.object, r.size, caches);
      if (f.source == core::Fetch::Source::kGround) {
        ++report.misses;
        report.uplink_bytes += r.size;
      } else {
        ++report.hits;
        if (f.source != core::Fetch::Source::kOwner) ++report.relay_hits;
      }
    }
  }

  // Graceful shutdown so worker caches drain deterministically.
  const obs::TraceSpan bye_span(obs::tracer(), "cluster_shutdown", "replay");
  for (auto& ch : cluster.channels) {
    Message bye;
    bye.type = MessageType::kControl;
    bye.flags = kShutdownFlag;
    ch->send(bye);
  }
  return report;
}

}  // namespace starcdn::replay
