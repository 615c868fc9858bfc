// Synthetic *production* workload generator — the substitution for the
// Akamai traces the paper collected (see DESIGN.md §3).
//
// The paper's nine-city video trace exhibits three structural properties
// its results depend on:
//   1. heavy-tailed (Zipf-like) per-city object popularity,
//   2. cross-city content overlap that decays with geographic distance and
//      language region (Table 2, Fig. 2): nearby same-language cities share
//      ~55% of objects and ~90% of traffic, distant ones ~10-25%,
//   3. per-traffic-class size distributions (video ~MB objects dominating
//      bytes; web small and numerous; downloads few but large).
//
// The model realizes these with an object universe in which every object
// has a home city, a heavy-tailed base popularity, and a popularity-
// correlated geographic reach; its weight in city c decays exponentially
// with distance(home, c)/reach and is scaled by a region-affinity factor.
// A city's requests are i.i.d.: each draws a minute from a diurnal profile
// in the city's local time, an object from the city's weight table and a
// uniform offset within the minute. Generation draws them minute-major —
// every request's minute first, then each (city, minute) cell's objects
// and offsets from an RNG of its own. Conditioned on the per-minute counts
// the cell draws are still i.i.d., so the trace's distribution is that of
// the i.i.d. model; only the sample depends on the order (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "trace/record.h"
#include "trace/stream.h"
#include "trace/zipf.h"
#include "util/geo.h"
#include "util/rng.h"

namespace starcdn::trace {

struct WorkloadParams {
  TrafficClass traffic_class = TrafficClass::kVideo;
  std::size_t object_count = 200'000;
  /// Requests generated per unit of city traffic weight.
  std::size_t requests_per_weight = 40'000;
  double duration_s = 1.0 * util::kDay.value();
  /// Zipf exponent of base popularity. Video popularity is strongly
  /// skewed; 1.2 reproduces the paper's hit-rate levels (§5.2).
  double zipf_alpha = 1.2;
  /// Log-normal object size parameters (per class defaults via
  /// default_params()).
  double size_mu = 13.5;     // exp(13.5) ≈ 730 KB
  double size_sigma = 1.2;
  /// Geographic reach: reach_km ~ pareto(reach_min_km, reach_shape);
  /// an object's weight decays as exp(-distance/reach) from its home city.
  double reach_min_km = 400.0;
  double reach_shape = 0.7;
  /// Optional popularity boost of reach (0 = popularity-independent; kept
  /// as an ablation knob).
  double reach_pop_boost = 0.0;
  /// Fraction of objects that are globally popular regardless of distance
  /// (world-cup finals, OS updates, ...).
  double global_fraction = 0.02;
  /// Region crossing gates: the probability that a given object is consumed
  /// in a foreign region *at all* (Table 2's language effect). Calibrated
  /// so cross-language European pairs share ~20-50% of traffic and
  /// NY->London about a quarter (Fig. 2).
  double same_language_family = 0.35;
  double cross_region = 0.30;
  /// Diurnal modulation depth in [0, 1): rate(t) = base * (1 + depth *
  /// sin(...)), peaking at ~20:00 local time.
  double diurnal_depth = 0.45;
  std::uint64_t seed = 42;
};

/// Per-class defaults calibrated to the paper's trace summary statistics
/// (§3.1.1 video: 423M reqs/512TB over 24M objects/24TB; §5.5 web: 2B reqs/
/// 642TB; downloads: 472M reqs/372TB).
[[nodiscard]] WorkloadParams default_params(TrafficClass c);

/// Tuning for WorkloadModel::generate_stream. It trades memory for speed
/// only: the emitted request sequence is identical for any value.
struct StreamParams {
  /// Requests per yielded RequestBlock. Each next() draws only the whole
  /// minutes its block needs, so this also sizes the generator's memory.
  std::size_t chunk_requests = kDefaultChunkRequests;
};

/// A generated object universe plus per-city popularity tables.
class WorkloadModel {
 public:
  /// Throws std::invalid_argument on an empty city list or a zero
  /// `params.object_count`.
  WorkloadModel(const std::vector<util::City>& cities,
                const WorkloadParams& params);

  [[nodiscard]] const std::vector<util::City>& cities() const noexcept {
    return *cities_;
  }
  [[nodiscard]] const WorkloadParams& params() const noexcept { return params_; }

  [[nodiscard]] std::size_t object_count() const noexcept {
    return sizes_.size();
  }
  [[nodiscard]] Bytes object_size(ObjectId id) const noexcept {
    return sizes_[static_cast<std::size_t>(id)];
  }

  /// Weight of an object in a city (0 when out of reach).
  [[nodiscard]] double weight(ObjectId id, std::size_t city) const;

  /// Generate the full multi-location production trace.
  [[nodiscard]] MultiTrace generate() const;

  /// Generate only one city's trace with `n` requests (tests/benches).
  /// Draws minute-major (trace/minute_order.h): a counting pass draws each
  /// request's diurnal minute from the city's salted RNG, then every
  /// (city, minute) cell draws its objects and intra-minute offsets from an
  /// RNG seeded by (seed, city, minute) and sorts them by timestamp.
  [[nodiscard]] LocationTrace generate_city(std::size_t city,
                                            std::size_t n_requests,
                                            std::uint64_t salt = 0) const;

  /// Requests generate() draws for one city (requests_per_weight scaled by
  /// the city's traffic weight), and their sum — the analytic trace length,
  /// available without generating anything.
  [[nodiscard]] std::size_t city_request_count(std::size_t city) const;
  [[nodiscard]] std::uint64_t total_request_count() const;

  /// Requests per minute of the city's generate() trace: the counting pass
  /// alone, without drawing any object or timestamp.
  [[nodiscard]] std::vector<std::uint32_t> minute_counts(
      std::size_t city) const;

  /// Probability that one of the city's requests asks for `id`: its weight
  /// in the city's popularity table over the table's total (0 when the
  /// object is out of the city's reach).
  [[nodiscard]] double request_probability(ObjectId id,
                                           std::size_t city) const;

  /// Bounded-memory, globally time-ordered generator: bitwise identical to
  /// merge_by_time(generate()) — same requests, same order — for any chunk
  /// size and thread count, with O(chunk) generator memory.
  ///
  /// How: the counting pass runs once per city, in parallel, and gives the
  /// request count of every (city, minute) cell. Each next() then draws
  /// only the whole minutes its block needs, in parallel over their cells,
  /// and merges each minute's cities by (timestamp, city) straight into the
  /// block; a minute that straddles two blocks keeps its tail for the next
  /// one. Every request is drawn exactly once.
  /// The stream keeps a reference to this model; the model must outlive it.
  [[nodiscard]] std::unique_ptr<RequestStream> generate_stream(
      const StreamParams& sp = {}) const;

 private:
  friend class WorkloadStream;
  /// One drawn request.
  struct Draw {
    double ts;
    ObjectId object;
    Bytes size;
    std::uint16_t city;
  };

  void build_city_pairs();
  void build_universe();
  /// Whether weight `w` of object `id` in some city puts it in that city's
  /// popularity table.
  [[nodiscard]] bool in_reach(double w, ObjectId id) const;
  void build_city_tables();
  [[nodiscard]] std::vector<double> diurnal_minute_weights(
      std::size_t city) const;
  [[nodiscard]] std::size_t minute_count() const noexcept;
  [[nodiscard]] std::uint64_t city_seed(std::size_t city,
                                        std::uint64_t salt) const noexcept;
  /// The counting pass of an `n`-request trace of `city`.
  [[nodiscard]] std::vector<std::uint32_t> counting_pass(
      std::size_t city, std::size_t n, std::uint64_t salt) const;
  /// Draw cell (city, minute) — out.size() requests — in draw order.
  void draw_cell(std::size_t city, std::size_t minute, std::uint64_t salt,
                 std::span<Draw> out) const;

  const std::vector<util::City>* cities_;
  WorkloadParams params_;

  /// What an object's weight needs of its (home city, city) pair, at
  /// [home * cities + city]: the region gate, the great-circle distance
  /// and the city's region hash.
  struct CityPair {
    double gate = 0.0;
    double distance_km = 0.0;
    std::uint64_t region_hash = 0;
  };
  std::vector<CityPair> pairs_;

  // Object universe.
  std::vector<Bytes> sizes_;
  std::vector<float> base_weight_;
  std::vector<float> reach_km_;
  std::vector<std::uint16_t> home_city_;
  std::vector<bool> global_;

  // Per-city popularity tables: the objects with non-negligible weight, and
  // a matching sampler.
  struct CityTable {
    struct Entry {
      ObjectId object;
      Bytes size;  // object_size(object), next to it: one line per draw
    };
    std::vector<Entry> entries;  // by descending weight
    std::unique_ptr<DiscreteSampler> sampler;  // over the entries' weights
    std::unique_ptr<DiscreteSampler> minutes;  // diurnal minute profile
  };
  std::vector<CityTable> city_tables_;
};

/// Region affinity in [0,1]: 1 for identical region tags, an intermediate
/// value for the same language family (e.g. "en-us" vs "en-gb"), and a low
/// floor across regions — the Table 2 effect that different languages
/// seldom share content.
[[nodiscard]] double region_affinity(const std::string& a,
                                     const std::string& b,
                                     const WorkloadParams& params);

// --- Overlap analytics (Table 2 / Fig. 2) -----------------------------------

struct OverlapResult {
  double object_overlap = 0.0;   // fraction of A's objects also seen in B
  double traffic_overlap = 0.0;  // fraction of A's bytes to objects in B
};

/// Percent of objects (and traffic) accessed at `a` that were also accessed
/// at `b` — the paper's Table 2 / Fig. 2 metric.
[[nodiscard]] OverlapResult overlap(const LocationTrace& a,
                                    const LocationTrace& b);

}  // namespace starcdn::trace
