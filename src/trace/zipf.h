// Zipf(ian) popularity sampling.
//
// CDN object popularity is famously Zipf-like; the workload model uses this
// sampler to assign base popularities and to draw i.i.d. requests from
// per-city popularity tables.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace starcdn::trace {

/// Samples ranks 0..n-1 with P(rank k) proportional to 1/(k+1)^alpha.
/// Precomputes the CDF (O(n) memory); suitable up to a few million ranks.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double alpha);

  [[nodiscard]] std::size_t sample(util::Rng& rng) const;
  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }
  [[nodiscard]] double alpha() const noexcept { return alpha_; }

  /// Probability mass of a rank.
  [[nodiscard]] double pmf(std::size_t rank) const;

 private:
  double alpha_;
  std::vector<double> cdf_;
};

/// Weighted discrete sampler over arbitrary non-negative, finite weights
/// (negative weights count as zero). Used for per-city object popularity
/// tables and the diurnal minute profile.
///
/// Lookup is an inverse-CDF search accelerated by a guide table (Chen and
/// Asau's indexed search): the weight axis is cut into one cell per
/// kEntriesPerCell CDF entries, and each cell stores the first entry that
/// maps into it or later. A draw maps to its cell with the same monotone
/// function the guide was built with, so the entries before the cell's
/// start are all <= the draw and those from the next cell's start on are
/// all > it; the binary search runs inside that bracket and returns exactly
/// the index a full std::upper_bound over the CDF returns, for every input.
class DiscreteSampler {
 public:
  /// Throws std::invalid_argument naming the index of a NaN or infinite
  /// weight, when the weights sum to zero or overflow, and when there are
  /// more weights than a 32-bit guide index can address.
  explicit DiscreteSampler(const std::vector<double>& weights);

  [[nodiscard]] std::size_t sample(util::Rng& rng) const;

  /// Index for a unit draw u in [0, 1): sample(rng) == index_of(
  /// rng.uniform()). Exposed so the lookup can be tested against
  /// std::upper_bound and timed apart from the RNG.
  [[nodiscard]] std::size_t index_of(double unit) const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }
  [[nodiscard]] double total_weight() const noexcept { return total_; }

  /// CDF entries per guide cell: the guide costs a quarter of a uint32 per
  /// entry (1/8 of the CDF's bytes) and leaves a few entries to search.
  static constexpr std::size_t kEntriesPerCell = 4;

 private:
  /// Guide cell of a point on the weight axis. Monotone non-decreasing in
  /// x (NaN maps to the last cell), which is what makes the guide exact.
  [[nodiscard]] std::size_t cell_of(double x) const noexcept;

  std::vector<double> cdf_;
  double total_ = 0.0;
  double cells_per_weight_ = 0.0;
  /// guide_[k]: first CDF index whose cell is >= k; guide_.back() == size.
  std::vector<std::uint32_t> guide_;
};

}  // namespace starcdn::trace
