#include "trace/workload.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <numbers>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "trace/minute_order.h"
#include "util/hash.h"
#include "util/parallel.h"

namespace starcdn::trace {

const char* to_string(TrafficClass c) noexcept {
  switch (c) {
    case TrafficClass::kVideo: return "video";
    case TrafficClass::kWeb: return "web";
    case TrafficClass::kDownload: return "download";
  }
  return "?";
}

WorkloadParams default_params(TrafficClass c) {
  WorkloadParams p;
  p.traffic_class = c;
  switch (c) {
    case TrafficClass::kVideo:
      // Video: multi-MB segments dominating bytes, heavy request volume,
      // strong reuse (512 TB served from a 24 TB footprint, §3.1.1).
      p.object_count = 300'000;
      p.requests_per_weight = 150'000;
      p.zipf_alpha = 1.2;
      p.size_mu = 15.9;  // median ≈ 8 MB
      p.size_sigma = 1.1;
      break;
    case TrafficClass::kWeb:
      // Web: many small objects, flatter popularity, broader geographic
      // reach of popular pages.
      p.object_count = 400'000;
      p.requests_per_weight = 50'000;
      p.zipf_alpha = 1.0;
      p.size_mu = 12.2;  // median ≈ 200 KB
      p.size_sigma = 1.4;
      p.global_fraction = 0.05;
      p.same_language_family = 0.45;
      p.cross_region = 0.35;
      break;
    case TrafficClass::kDownload:
      // Downloads: fewer, large objects (software images), very wide reach
      // (the same update ships worldwide), moderate request volume.
      p.object_count = 60'000;
      p.requests_per_weight = 12'000;
      p.zipf_alpha = 0.95;
      p.size_mu = 16.3;  // median ≈ 12 MB
      p.size_sigma = 1.3;
      p.global_fraction = 0.20;
      p.same_language_family = 0.7;
      p.cross_region = 0.6;
      break;
  }
  return p;
}

double region_affinity(const std::string& a, const std::string& b,
                       const WorkloadParams& params) {
  if (a == b) return 1.0;
  const auto family = [](const std::string& r) {
    const auto dash = r.find('-');
    return dash == std::string::npos ? r : r.substr(0, dash);
  };
  if (family(a) == family(b)) return params.same_language_family;
  return params.cross_region;
}

namespace {

/// Per-(object, region) crossing gate. Affinity acts as the *probability*
/// that a piece of content is consumed in a foreign region at all, not as a
/// popularity dampener: a German user either watches a British show or —
/// far more often (Table 2) — never touches it. The gate is a deterministic
/// hash so every city of the same region agrees.
bool crosses_region(ObjectId id, std::uint64_t target_region_hash,
                    double gate_probability) {
  if (gate_probability >= 1.0) return true;
  const std::uint64_t h = util::hash_combine(util::splitmix64(id + 0x9e37),
                                             target_region_hash);
  return static_cast<double>(h >> 11) * 0x1.0p-53 < gate_probability;
}

/// An in-reach object of one city's table. `key` is the complement of
/// the weight's bits: weights are positive and finite, and such doubles
/// order like their bit patterns, so ascending keys are descending weights.
struct Weighted {
  std::uint64_t key = 0;
  ObjectId id = 0;

  [[nodiscard]] static Weighted of(double w, ObjectId id) noexcept {
    return {~std::bit_cast<std::uint64_t>(w), id};
  }
  [[nodiscard]] double weight() const noexcept {
    return std::bit_cast<double>(~key);
  }
};

/// Sorts entries given in ascending id order by descending weight, ties by
/// ascending id: a stable LSD radix sort on `key`, so ties keep their id
/// order. The order equals a comparison sort on (weight desc, id asc); it
/// costs a few linear passes instead of the comparison sort's mispredicted
/// branches. A pass whose digit is the same for every entry is skipped.
void sort_heaviest_first(std::vector<Weighted>& v) {
  constexpr unsigned kBits = 11;
  constexpr std::size_t kBuckets = std::size_t{1} << kBits;
  std::vector<Weighted> scratch(v.size());
  std::vector<std::size_t> start(kBuckets);
  for (unsigned shift = 0; shift < 64; shift += kBits) {
    const auto digit = [shift](const Weighted& e) {
      return static_cast<std::size_t>((e.key >> shift) & (kBuckets - 1));
    };
    std::fill(start.begin(), start.end(), 0);
    for (const Weighted& e : v) ++start[digit(e)];
    if (std::find(start.begin(), start.end(), v.size()) != start.end()) {
      continue;
    }
    std::size_t at = 0;
    for (std::size_t& s : start) at += std::exchange(s, at);
    for (const Weighted& e : v) scratch[start[digit(e)]++] = e;
    v.swap(scratch);
  }
}

}  // namespace

WorkloadModel::WorkloadModel(const std::vector<util::City>& cities,
                             const WorkloadParams& params)
    : cities_(&cities), params_(params) {
  if (cities.empty()) throw std::invalid_argument("WorkloadModel: no cities");
  if (params.object_count == 0) {
    throw std::invalid_argument("WorkloadModel: object_count must be positive");
  }
  build_city_pairs();
  build_universe();
  build_city_tables();
}

void WorkloadModel::build_city_pairs() {
  const auto& cities = *cities_;
  const std::size_t n = cities.size();
  pairs_.resize(n * n);
  for (std::size_t home = 0; home < n; ++home) {
    for (std::size_t c = 0; c < n; ++c) {
      pairs_[home * n + c] = {
          region_affinity(cities[home].region, cities[c].region, params_),
          util::haversine(cities[home].coord, cities[c].coord).value(),
          util::fnv1a(cities[c].region)};
    }
  }
}

void WorkloadModel::build_universe() {
  const std::size_t n = params_.object_count;
  sizes_.resize(n);
  base_weight_.resize(n);
  reach_km_.resize(n);
  home_city_.resize(n);
  global_.assign(n, false);

  util::Rng rng(params_.seed);
  // Home city sampled by traffic weight.
  std::vector<double> city_w;
  city_w.reserve(cities_->size());
  for (const auto& c : *cities_) city_w.push_back(c.traffic_weight);
  const DiscreteSampler home_sampler(city_w);

  // Assign Zipf popularity by giving object i the weight of a random rank;
  // shuffling ranks keeps object ids uncorrelated with popularity.
  std::vector<std::size_t> ranks(n);
  for (std::size_t i = 0; i < n; ++i) ranks[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(ranks[i - 1], ranks[rng.below(i)]);
  }

  // A rank's Zipf weight, and the reach factor it sets, take no draw:
  // computed in parallel, ahead of the serial loop over the RNG.
  std::vector<double> reach_scale(n);
  util::parallel_for_chunks(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const double w =
          std::pow(static_cast<double>(ranks[i] + 1), -params_.zipf_alpha);
      base_weight_[i] = static_cast<float>(w);
      reach_scale[i] = 1.0 + params_.reach_pop_boost *
                                 std::log1p(w * static_cast<double>(n));
    }
  });

  for (std::size_t i = 0; i < n; ++i) {
    sizes_[i] = static_cast<Bytes>(
        std::max(1.0, rng.lognormal(params_.size_mu, params_.size_sigma)));
    home_city_[i] = static_cast<std::uint16_t>(home_sampler.sample(rng));
    global_[i] = rng.bernoulli(params_.global_fraction);
    const double reach =
        rng.pareto(params_.reach_min_km, params_.reach_shape) * reach_scale[i];
    reach_km_[i] = static_cast<float>(std::min(reach, 40'000.0));
  }
}

double WorkloadModel::weight(ObjectId id, std::size_t city) const {
  const auto i = static_cast<std::size_t>(id);
  const double base = base_weight_[i];
  if (global_[i]) return base;  // uniform worldwide popularity
  const std::size_t home = home_city_[i];
  if (home == city) return base;
  const CityPair& pair = pairs_[home * cities_->size() + city];
  if (!crosses_region(id, pair.region_hash, pair.gate)) return 0.0;
  return base * std::exp(-pair.distance_km / static_cast<double>(reach_km_[i]));
}

bool WorkloadModel::in_reach(double w, ObjectId id) const {
  // Weights below this fraction of the object's base weight are treated as
  // out of reach; keeps tables compact and models "content not offered".
  constexpr double kCutoff = 1e-3;
  return w > kCutoff * static_cast<double>(
                           base_weight_[static_cast<std::size_t>(id)]);
}

void WorkloadModel::build_city_tables() {
  city_tables_.resize(cities_->size());
  // Cities are independent: one task each, so the result does not depend
  // on the thread count.
  util::parallel_for(cities_->size(), [&](std::size_t c) {
    std::vector<Weighted> by_weight;
    for (std::size_t i = 0; i < sizes_.size(); ++i) {
      const auto id = static_cast<ObjectId>(i);
      const double w = weight(id, c);
      if (in_reach(w, id)) by_weight.push_back(Weighted::of(w, id));
    }
    // Most popular first (ties by id): the Zipf head, which most draws
    // hit, then shares a few cache lines of the CDF and of the table.
    sort_heaviest_first(by_weight);
    CityTable& t = city_tables_[c];
    std::vector<double> weights;
    weights.reserve(by_weight.size());
    t.entries.reserve(by_weight.size());
    for (const Weighted& e : by_weight) {
      weights.push_back(e.weight());
      t.entries.push_back({e.id, sizes_[static_cast<std::size_t>(e.id)]});
    }
    t.sampler = std::make_unique<DiscreteSampler>(weights);
    t.minutes = std::make_unique<DiscreteSampler>(diurnal_minute_weights(c));
  });
}

std::size_t WorkloadModel::minute_count() const noexcept {
  return static_cast<std::size_t>(
      std::max(1.0, params_.duration_s / util::kMinute.value()));
}

std::vector<double> WorkloadModel::diurnal_minute_weights(
    std::size_t city) const {
  // Local solar time from longitude; demand peaks around 20:00 local.
  const double lon = (*cities_)[city].coord.lon_deg;
  const double tz_offset_h = lon / 15.0;
  std::vector<double> w(minute_count());
  for (std::size_t m = 0; m < w.size(); ++m) {
    const double t_utc_h = static_cast<double>(m) / 60.0;
    const double local_h = std::fmod(t_utc_h + tz_offset_h + 48.0, 24.0);
    w[m] = 1.0 + params_.diurnal_depth *
                     std::sin(2.0 * std::numbers::pi * (local_h - 14.0) / 24.0);
  }
  return w;
}

std::uint64_t WorkloadModel::city_seed(std::size_t city,
                                       std::uint64_t salt) const noexcept {
  return util::hash_combine(params_.seed,
                            util::splitmix64(city * 7919 + salt + 1));
}

std::vector<std::uint32_t> WorkloadModel::counting_pass(
    std::size_t city, std::size_t n, std::uint64_t salt) const {
  const DiscreteSampler& minute = *city_tables_[city].minutes;
  std::vector<std::uint32_t> counts(minute.size(), 0);
  util::Rng rng(city_seed(city, salt));
  for (std::size_t k = 0; k < n; ++k) ++counts[minute.sample(rng)];
  return counts;
}

void WorkloadModel::draw_cell(std::size_t city, std::size_t minute,
                              std::uint64_t salt,
                              std::span<Draw> out) const {
  const CityTable& t = city_tables_[city];
  const double clamp_s = params_.duration_s - 1e-3;
  util::Rng rng(
      util::hash_combine(city_seed(city, salt), util::splitmix64(minute)));
  for (Draw& d : out) {
    const std::size_t k = t.sampler->sample(rng);
    d.object = t.entries[k].object;
    d.size = t.entries[k].size;
    d.ts = detail::draw_timestamp(minute, rng.uniform(), clamp_s);
    d.city = static_cast<std::uint16_t>(city);
  }
}

LocationTrace WorkloadModel::generate_city(std::size_t city,
                                           std::size_t n_requests,
                                           std::uint64_t salt) const {
  const std::vector<std::uint32_t> counts =
      counting_pass(city, n_requests, salt);
  std::vector<Draw> draws(n_requests);
  std::size_t at = 0;
  for (std::size_t m = 0; m < counts.size(); ++m) {
    const auto cell = std::span(draws).subspan(at, counts[m]);
    draw_cell(city, m, salt, cell);
    detail::sort_by_time(cell, static_cast<double>(m) * util::kMinute.value(),
                         util::kMinute.value());
    at += counts[m];
  }

  LocationTrace out;
  out.location = static_cast<std::uint16_t>(city);
  out.location_name = (*cities_)[city].name;
  out.requests.reserve(n_requests);
  for (const Draw& d : draws) {
    out.requests.push_back({d.ts, d.object, d.size, d.city});
  }
  return out;
}

std::size_t WorkloadModel::city_request_count(std::size_t city) const {
  return static_cast<std::size_t>(
      static_cast<double>(params_.requests_per_weight) *
      (*cities_)[city].traffic_weight);
}

std::uint64_t WorkloadModel::total_request_count() const {
  std::uint64_t total = 0;
  for (std::size_t c = 0; c < cities_->size(); ++c) {
    total += city_request_count(c);
  }
  return total;
}

std::vector<std::uint32_t> WorkloadModel::minute_counts(
    std::size_t city) const {
  return counting_pass(city, city_request_count(city), 0);
}

double WorkloadModel::request_probability(ObjectId id,
                                          std::size_t city) const {
  const double w = weight(id, city);
  return in_reach(w, id) ? w / city_tables_[city].sampler->total_weight()
                         : 0.0;
}

MultiTrace WorkloadModel::generate() const {
  MultiTrace out;
  out.reserve(cities_->size());
  for (std::size_t c = 0; c < cities_->size(); ++c) {
    out.push_back(generate_city(c, city_request_count(c)));
  }
  return out;
}

OverlapResult overlap(const LocationTrace& a, const LocationTrace& b) {
  std::unordered_set<ObjectId> in_b;
  for (const auto& r : b.requests) in_b.insert(r.object);

  std::unordered_set<ObjectId> seen_a;
  std::size_t shared_objects = 0;
  Bytes bytes_total = 0, bytes_shared = 0;
  for (const auto& r : a.requests) {
    bytes_total += r.size;
    const bool shared = in_b.contains(r.object);
    if (shared) bytes_shared += r.size;
    if (seen_a.insert(r.object).second && shared) ++shared_objects;
  }
  OverlapResult res;
  if (!seen_a.empty()) {
    res.object_overlap = static_cast<double>(shared_objects) /
                         static_cast<double>(seen_a.size());
  }
  if (bytes_total > 0) {
    res.traffic_overlap =
        static_cast<double>(bytes_shared) / static_cast<double>(bytes_total);
  }
  return res;
}

}  // namespace starcdn::trace
