// The benchmark's workloads: what each one builds before the first request
// is pulled (Setup) and what one timed replay of it does (Iteration).
//
//   day_variants    one-day nine-city video trace, healthy 72x18 shell,
//                   L=9, 8 GiB LRU; VanillaLRU, StarCDN-Fetch,
//                   StarCDN-Hashing and StarCDN in one Simulator, latency
//                   sampling on.
//   capacity_sweep  the Fig. 7 capacity axis (1-32 GiB), StarCDN only,
//                   latency sampling off, shell with 9.7% of slots knocked
//                   out; a fresh Simulator and stream per point.
//   cluster_inproc  replay_cluster over in-process channels, healthy
//                   shell, L=9, 8 GiB, 168k-request trace, on one CPU
//                   (see replay_cluster_on_one_cpu).
//
// The trace comes only from trace::WorkloadModel::generate_stream, seeded
// by the benchmark's --seed; nothing else about the program is configured
// from the seed.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/run_report.h"
#include "orbit/constellation.h"
#include "replay/replayer.h"
#include "sched/scheduler.h"
#include "timing_stream.h"
#include "trace/workload.h"
#include "util/units.h"

namespace perfbench {

enum class Kind : std::uint8_t { kDayVariants, kCapacitySweep, kClusterInproc };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  double scale;       ///< multiplier on the video class's requests_per_weight
  bool degraded;      ///< knock out 9.7% of slots (seed 2025, as in Fig. 11)
  std::size_t chunk;  ///< requests per streamed block
};

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
/// nullptr when `name` is not a workload.
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// Cache capacities of the sweep: bench::capacity_axis() (Fig. 7), copied
/// so that a change to the figure code cannot change the benchmark.
[[nodiscard]] const std::vector<starcdn::util::Bytes>& sweep_capacities();

/// Capacity and bucket count shared by day_variants, cluster_inproc, the
/// layer pass and the cross-check.
inline constexpr int kBuckets = 9;
inline constexpr starcdn::util::Bytes kReferenceCapacity =
    starcdn::util::gib(8);

/// Independently seeded traces an end-to-end run replays in turn. Seed s
/// gives the trace seeds kContents*s .. kContents*s + kContents - 1, so
/// one run's median covers several draws of the workload model: replay
/// time differs by up to a fifth between single draws.
inline constexpr std::size_t kContents = 4;

/// Everything built before the first request is pulled.
struct Setup {
  /// models[0] comes from build_setup (and is timed); add_contents builds
  /// the other kContents - 1.
  std::vector<std::unique_ptr<starcdn::trace::WorkloadModel>> models;
  std::unique_ptr<starcdn::orbit::Constellation> shell;
  std::unique_ptr<starcdn::sched::LinkSchedule> schedule;
  double model_s = 0.0;
  double orbit_s = 0.0;
  double sched_s = 0.0;
  [[nodiscard]] double seconds() const noexcept {
    return model_s + orbit_s + sched_s;
  }
  [[nodiscard]] const starcdn::trace::WorkloadModel& model() const {
    return *models.front();
  }
};

/// Builds the first trace content, the shell and the link schedule.
[[nodiscard]] Setup build_setup(const WorkloadSpec& spec, std::uint64_t seed);
/// Builds trace contents 1 .. kContents - 1 of `seed`.
void add_contents(Setup& setup, const WorkloadSpec& spec, std::uint64_t seed);

/// One Simulator::run + finish() inside an iteration.
struct SimRecord {
  starcdn::core::RunReport report;
  std::vector<TimingStream::Pull> pulls;  ///< empty when not decorated
  std::uint64_t requests = 0;             ///< requests the run pulled
  std::int64_t begin_us = 0;              ///< tracer clock, when tracing
  std::int64_t end_us = 0;
};

/// One timed replay of a workload.
struct Iteration {
  double replay_s = 0.0;  ///< first pull (stream creation) to sealed result
  double open_s = 0.0;    ///< generate_stream() calls (the counting pass)
  std::uint64_t requests = 0;
  std::uint64_t chunks = 0;
  double next_s = 0.0;
  double longest_pull_s = 0.0;
  std::vector<double> chunk_ms;  ///< intervals between next() entries
  std::vector<SimRecord> sims;
  std::optional<starcdn::replay::ReplayReport> cluster;
  std::uint64_t digest = 0;  ///< of the simulated counters
  std::vector<std::string> errors;  ///< failed output checks
};

/// Replays trace content `content` of the workload once. `decorate` wraps
/// every stream in a TimingStream (off only for the decorator self-test).
/// When a tracer is installed, SimRecord windows are stamped on its clock.
[[nodiscard]] Iteration run_iteration(const WorkloadSpec& spec,
                                      const Setup& setup, std::size_t content,
                                      bool decorate);

/// Output checks on one Simulator run: per variant, hits + misses =
/// requests = requests pulled, unreachable <= misses, bytes_hit <=
/// bytes_requested (= `pulled_bytes` when known). Failures go to `errors`.
void check_sim(const SimRecord& rec,
               std::optional<starcdn::util::Bytes> pulled_bytes,
               std::vector<std::string>& errors);
/// Output checks on one cluster replay: hits + misses = requests =
/// `pulled`, relay_hits <= hits.
void check_cluster(const starcdn::replay::ReplayReport& r,
                   std::uint64_t pulled, std::vector<std::string>& errors);

/// StarCDN through the Simulator on an explicit stream, configured like
/// the cluster (L=9, 8 GiB LRU), decorated; used to cross-check
/// replay_cluster on the same requests.
[[nodiscard]] SimRecord run_starcdn_reference(
    const Setup& setup, starcdn::trace::RequestStream& stream);

/// replay_cluster with the cluster_inproc configuration (L=9, 8 GiB LRU,
/// in-process channels), run with the orchestrator and its 1,296 worker
/// threads on one CPU. Unpinned, every RPC wakes a thread on another
/// virtual CPU, and that wake-up cost swings the replay time by a factor
/// of four between runs minutes apart on a shared 4-vCPU machine; on one
/// CPU the hand-offs are plain context switches and the time is steady.
/// Throws std::runtime_error when the affinity cannot be set.
[[nodiscard]] starcdn::replay::ReplayReport replay_cluster_on_one_cpu(
    const Setup& setup, starcdn::trace::RequestStream& stream);

}  // namespace perfbench
