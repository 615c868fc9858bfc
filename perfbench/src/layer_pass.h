// Layer pass: the workload's own requests, replayed through the public
// functions of one layer at a time, timed per batch (one stream chunk) and
// never per call. It runs outside every timed replay, in the traced run
// only.
//
//   sched  LinkSchedule::first_contact for each request, with the epoch and
//          user-terminal rotation the simulator uses.
//   core   BucketMapper::bucket_of_object + owner; west_replica +
//          east_replica of the owner.
//   cache  one cache::make_cache LRU per owner: access() (touch, and admit
//          on a miss) per request, peek() on both replicas after a miss.
//   net    encode + FrameDecoder round trip of a request Message, and
//          request/reply round trips over make_inproc_pair to an echo
//          thread.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct LayerPass {
  std::uint64_t requests = 0;
  double first_contact_ns = 0.0;
  double bucket_map_ns = 0.0;
  double relay_lookup_ns = 0.0;
  double cache_access_ns = 0.0;
  double cache_peek_ns = 0.0;
  std::uint64_t replica_found = 0;  ///< peeks that found the object
  double cache_hit_ratio = 0.0;
  std::uint64_t cache_evictions = 0;
  double codec_ns = 0.0;
  double rpc_us = 0.0;
  std::vector<std::string> errors;  ///< codec or echo mismatches
};

[[nodiscard]] LayerPass run_layer_pass(const WorkloadSpec& spec,
                                       const Setup& setup);

}  // namespace perfbench
