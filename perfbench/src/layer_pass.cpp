#include "layer_pass.h"

#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "cache/cache.h"
#include "core/bucket_mapper.h"
#include "net/codec.h"
#include "net/transport.h"
#include "util/hash.h"
#include "util/ids.h"

namespace perfbench {

using namespace starcdn;

namespace {

/// Requests of the workload sent through the codec, and through the echo
/// channel; enough for a stable per-message mean in well under a second.
constexpr std::size_t kCodecRequests = 1u << 18;
constexpr std::size_t kRpcRequests = 20'000;

/// Replies to every message with the message itself until the client end
/// is closed. The destructor closes the channel pair and joins the thread.
class EchoServer {
 public:
  EchoServer()
      : ends_(net::make_inproc_pair()), thread_([this] { serve(); }) {}
  ~EchoServer() {
    ends_.first->close();
    thread_.join();
  }
  EchoServer(const EchoServer&) = delete;
  EchoServer& operator=(const EchoServer&) = delete;

  [[nodiscard]] net::Channel& client() { return *ends_.first; }

 private:
  void serve() noexcept {
    try {
      while (auto m = ends_.second->recv()) ends_.second->send(*m);
    } catch (const std::exception&) {
      // The client closed mid-reply; nothing is waiting for it.
    }
  }

  std::pair<std::unique_ptr<net::Channel>, std::unique_ptr<net::Channel>>
      ends_;
  std::thread thread_;
};

/// Accumulated seconds and operations of one timed step.
struct Meter {
  double seconds = 0.0;
  std::uint64_t ops = 0;

  template <typename Fn>
  void time(std::uint64_t n, Fn&& batch) {
    const auto t0 = std::chrono::steady_clock::now();
    batch();
    seconds += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    ops += n;
  }
  [[nodiscard]] double ns_per_op() const noexcept {
    return ops != 0 ? seconds * 1e9 / static_cast<double>(ops) : 0.0;
  }
};

net::Message request_message(const trace::Request& r, std::uint64_t id) {
  net::Message m;
  m.type = net::MessageType::kRequest;
  m.src = r.location;
  m.object_id = r.object;
  m.size_bytes = r.size;
  m.request_id = id;
  return m;
}

}  // namespace

LayerPass run_layer_pass(const WorkloadSpec& spec, const Setup& setup) {
  const sched::LinkSchedule& schedule = *setup.schedule;
  const orbit::Constellation& shell = *setup.shell;
  const core::BucketMapper mapper(shell, kBuckets);
  const auto users_per_city =
      static_cast<std::uint64_t>(schedule.params().users_per_city);
  const cache::Bytes capacity = kReferenceCapacity;
  const std::size_t presize = cache::presize_hint(capacity, util::mib(16));
  std::vector<std::unique_ptr<cache::Cache>> caches(
      static_cast<std::size_t>(shell.size()));

  LayerPass out;
  Meter first_contact, bucket_map, relay_lookup, access, peek, codec;
  std::uint64_t peek_found = 0;
  std::vector<net::Message> rpc_messages;

  // Per-batch inputs and results, reused across chunks.
  std::vector<util::EpochIdx> epochs;
  std::vector<util::CityId> cities;
  std::vector<std::uint64_t> users;
  std::vector<sched::Candidate> contact;
  std::vector<std::size_t> reachable;  // request index within the chunk
  std::vector<orbit::SatelliteId> owner;
  std::vector<std::optional<orbit::SatelliteId>> west, east;
  std::vector<int> owner_slot, west_slot, east_slot;
  std::vector<std::size_t> missed;
  std::vector<net::Message> messages;

  const auto slot_of = [&](const std::optional<orbit::SatelliteId>& id) {
    return id ? shell.index_of(*id).value() : -1;
  };

  const auto stream = setup.model().generate_stream({spec.chunk});
  trace::RequestBlock block;
  std::uint64_t counter = 0;
  while (stream->next(block)) {
    const std::size_t n = block.count();
    epochs.resize(n);
    cities.resize(n);
    users.resize(n);
    contact.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      epochs[i] = schedule.epoch_of(util::Seconds{block.timestamp_s[i]});
      cities[i] = util::CityId{block.location[i]};
      users[i] = util::splitmix64(counter++) % users_per_city;
    }

    first_contact.time(n, [&] {
      for (std::size_t i = 0; i < n; ++i) {
        contact[i] = schedule.first_contact(epochs[i], cities[i], users[i]);
      }
    });

    reachable.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (contact[i].sat.value() >= 0) reachable.push_back(i);
    }
    const std::size_t m = reachable.size();
    owner.resize(m);
    bucket_map.time(m, [&] {
      for (std::size_t j = 0; j < m; ++j) {
        const std::size_t i = reachable[j];
        const orbit::SatelliteId from = shell.id_of(contact[i].sat);
        owner[j] = mapper.owner(from, mapper.bucket_of_object(block.object[i]))
                       .value_or(from);
      }
    });

    west.resize(m);
    east.resize(m);
    relay_lookup.time(m, [&] {
      for (std::size_t j = 0; j < m; ++j) {
        west[j] = mapper.west_replica(owner[j]);
        east[j] = mapper.east_replica(owner[j]);
      }
    });

    owner_slot.resize(m);
    west_slot.resize(m);
    east_slot.resize(m);
    for (std::size_t j = 0; j < m; ++j) {
      owner_slot[j] = slot_of(owner[j]);
      west_slot[j] = slot_of(west[j]);
      east_slot[j] = slot_of(east[j]);
      auto& c = caches[static_cast<std::size_t>(owner_slot[j])];
      if (!c) c = cache::make_cache(cache::Policy::kLru, capacity, presize);
    }

    missed.clear();
    access.time(m, [&] {
      for (std::size_t j = 0; j < m; ++j) {
        const std::size_t i = reachable[j];
        const cache::AccessResult r =
            caches[static_cast<std::size_t>(owner_slot[j])]->access(
                block.object[i], block.size[i]);
        if (r != cache::AccessResult::kHit) missed.push_back(j);
      }
    });

    // A replica that has served nothing yet has no cache to probe.
    const auto probed = [&](int slot) -> const cache::Cache* {
      return slot >= 0 ? caches[static_cast<std::size_t>(slot)].get()
                       : nullptr;
    };
    std::uint64_t probes = 0;
    for (const std::size_t j : missed) {
      probes += (probed(west_slot[j]) != nullptr) +
                (probed(east_slot[j]) != nullptr);
    }
    peek.time(probes, [&] {
      for (const std::size_t j : missed) {
        const cache::ObjectId id = block.object[reachable[j]];
        for (const int slot : {west_slot[j], east_slot[j]}) {
          const cache::Cache* c = probed(slot);
          if (c != nullptr && c->peek(id)) ++peek_found;
        }
      }
    });

    if (codec.ops < kCodecRequests) {
      messages.clear();
      for (std::size_t i = 0; i < n && codec.ops + i < kCodecRequests; ++i) {
        messages.push_back(request_message(block.at(i), codec.ops + i));
      }
      std::uint64_t bad = 0;
      codec.time(messages.size(), [&] {
        net::FrameDecoder decoder;
        for (const net::Message& msg : messages) {
          decoder.feed(net::encode(msg));
          const std::optional<net::Message> back = decoder.next();
          bad += !back || *back != msg;
        }
      });
      if (bad != 0) out.errors.push_back("codec: decoded message differs");
      for (const net::Message& msg : messages) {
        if (rpc_messages.size() == kRpcRequests) break;
        rpc_messages.push_back(msg);
      }
    }
    out.requests += n;
  }

  std::uint64_t echo_bad = 0;
  Meter rpc;
  {
    EchoServer echo;
    net::Channel& ch = echo.client();
    rpc.time(rpc_messages.size(), [&] {
      for (const net::Message& msg : rpc_messages) {
        ch.send(msg);
        const std::optional<net::Message> reply = ch.recv();
        echo_bad += !reply || reply->request_id != msg.request_id;
      }
    });
  }
  if (echo_bad != 0) out.errors.push_back("net: echo reply mismatch");

  cache::CacheStats stats;
  for (const auto& c : caches) {
    if (c) stats.merge(c->stats());
  }
  out.first_contact_ns = first_contact.ns_per_op();
  out.bucket_map_ns = bucket_map.ns_per_op();
  out.relay_lookup_ns = relay_lookup.ns_per_op();
  out.cache_access_ns = access.ns_per_op();
  out.cache_peek_ns = peek.ns_per_op();
  out.cache_hit_ratio = stats.request_hit_rate();
  out.cache_evictions = stats.evictions;
  out.codec_ns = codec.ns_per_op();
  out.rpc_us = rpc.ns_per_op() * 1e-3;
  out.replica_found = peek_found;
  return out;
}

}  // namespace perfbench
