#include "replay/replayer.h"

#include <memory>
#include <thread>
#include <vector>

#include "core/bucket_mapper.h"
#include "net/transport.h"
#include "obs/tracer.h"
#include "util/hash.h"
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
      case MessageType::kRequest:
        // Owner-path access: touch (hit) without admitting on miss — the
        // orchestrator decides the fill source first.
        reply.type = MessageType::kResponse;
        if (cache->touch(msg->object_id)) reply.flags |= net::kFlagHit;
        channel.send(reply);
        break;
      case MessageType::kRelayProbe:
        // Side-effect-free probe of a neighbour replica.
        reply.type = MessageType::kRelayReply;
        if (cache->peek(msg->object_id)) reply.flags |= net::kFlagHit;
        channel.send(reply);
        break;
      case MessageType::kGroundReply:
        // Fill directive: object arrived (from replica or ground); admit.
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

/// Blocking RPC helper: send and await the matching reply.
Message rpc(Channel& ch, const Message& m) {
  ch.send(m);
  for (;;) {
    auto reply = ch.recv();
    if (!reply) throw std::runtime_error("replay: worker died mid-RPC");
    if (reply->request_id == m.request_id) return *reply;
  }
}

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

  ReplayReport report;
  std::uint64_t request_counter = 0;
  std::uint64_t rpc_id = 0;
  const auto channel_of = [&](util::SatId sat) -> Channel& {
    return *cluster.channels[util::as_index(sat)];
  };

  const auto process = [&](const trace::Request& r) {
    ++report.requests;
    const util::EpochIdx epoch =
        schedule.epoch_of(util::Seconds{r.timestamp_s});
    const std::uint64_t user =
        util::splitmix64(request_counter++) %
        static_cast<std::uint64_t>(config.users_per_city);
    const auto fc =
        schedule.first_contact(epoch, util::CityId{r.location}, user);
    if (fc.sat.value() < 0) {
      ++report.misses;
      report.uplink_bytes += r.size;
      return;
    }
    const util::SatId owner =
        mapper.owner_of(fc.sat, mapper.bucket_of_object(r.object));
    const util::SatId serving = owner.value() >= 0 ? owner : fc.sat;

    Message req;
    req.type = MessageType::kRequest;
    req.object_id = r.object;
    req.size_bytes = r.size;
    req.request_id = ++rpc_id;
    const Message resp = rpc(channel_of(serving), req);
    if (resp.flags & net::kFlagHit) {
      ++report.hits;
      return;
    }

    // Relayed fetch: probe same-bucket west then east replicas.
    bool relayed = false;
    for (const util::SatId replica :
         {mapper.west_of(serving),
          config.relay_east ? mapper.east_of(serving) : util::kNoSat}) {
      if (replica.value() < 0) continue;
      Message probe;
      probe.type = MessageType::kRelayProbe;
      probe.object_id = r.object;
      probe.size_bytes = r.size;
      probe.request_id = ++rpc_id;
      const Message reply = rpc(channel_of(replica), probe);
      if (reply.flags & net::kFlagHit) {
        relayed = true;
        break;
      }
    }
    if (!relayed) report.uplink_bytes += r.size;  // origin fetch

    // Fill the owner either way (from the replica or from the ground).
    Message fill;
    fill.type = MessageType::kGroundReply;
    fill.object_id = r.object;
    fill.size_bytes = r.size;
    fill.flags = relayed ? net::kFlagHit : 0;
    channel_of(serving).send(fill);
    if (relayed) {
      ++report.hits;
      ++report.relay_hits;
    } else {
      ++report.misses;
    }
  };

  trace::RequestBlock block;
  trace::TimeOrderCheck time_order;
  while (stream.next(block)) {
    time_order.check(block);
    for (std::size_t i = 0; i < block.count(); ++i) process(block.at(i));
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
