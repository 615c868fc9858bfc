#include "trace/zipf.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace starcdn::trace {

ZipfSampler::ZipfSampler(std::size_t n, double alpha) : alpha_(alpha) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n == 0");
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), alpha);
    cdf_[k] = acc;
  }
  for (auto& v : cdf_) v /= acc;
  cdf_.back() = 1.0;  // guard against rounding
}

std::size_t ZipfSampler::sample(util::Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin());
}

double ZipfSampler::pmf(std::size_t rank) const {
  if (rank >= cdf_.size()) return 0.0;
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

DiscreteSampler::DiscreteSampler(const std::vector<double>& weights) {
  if (weights.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("DiscreteSampler: more than 2^32-1 weights");
  }
  cdf_.resize(weights.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    // std::max(0.0, NaN) is 0 and an infinite weight swallows the whole
    // CDF, so either would be drawn wrongly without a word.
    if (!std::isfinite(weights[i])) {
      throw std::invalid_argument("DiscreteSampler: weight " +
                                  std::to_string(i) + " is not finite");
    }
    acc += std::max(0.0, weights[i]);
    cdf_[i] = acc;
  }
  total_ = acc;
  if (acc <= 0.0) {
    throw std::invalid_argument("DiscreteSampler: all weights zero");
  }
  if (!std::isfinite(acc)) {
    throw std::invalid_argument("DiscreteSampler: weights sum to infinity");
  }

  // One linear pass: cell_of is monotone over the non-decreasing CDF, so
  // each cell's start is the first entry whose cell reaches it.
  std::size_t cells = std::max<std::size_t>(1, cdf_.size() / kEntriesPerCell);
  cells_per_weight_ = static_cast<double>(cells) / total_;
  if (!std::isfinite(cells_per_weight_)) {  // subnormal total
    cells = 1;
    cells_per_weight_ = 0.0;
  }
  guide_.resize(cells + 1);
  std::size_t k = 0;
  for (std::size_t i = 0; i < cdf_.size(); ++i) {
    const std::size_t c = cell_of(cdf_[i]);
    while (k <= c) guide_[k++] = static_cast<std::uint32_t>(i);
  }
  while (k <= cells) guide_[k++] = static_cast<std::uint32_t>(cdf_.size());
}

std::size_t DiscreteSampler::sample(util::Rng& rng) const {
  return index_of(rng.uniform());
}

std::size_t DiscreteSampler::cell_of(double x) const noexcept {
  const std::size_t last = guide_.size() - 2;
  const double c = x * cells_per_weight_;
  if (!(c < static_cast<double>(last))) return last;  // also NaN
  if (c < 1.0) return 0;                               // also negative
  return static_cast<std::size_t>(c);
}

std::size_t DiscreteSampler::index_of(double unit) const noexcept {
  // The answer is the first entry > u. Entries before guide_[k] have a
  // lower cell than u, so by monotonicity they are < u; entries from
  // guide_[k + 1] on have a higher cell, so they are > u.
  const double u = unit * total_;
  const std::size_t k = cell_of(u);
  // std::upper_bound over [guide_[k], guide_[k + 1]), with the halving
  // step written as a select: draws are random, so a branch per probe
  // would mispredict about half the time.
  const double* base = cdf_.data() + guide_[k];
  std::size_t len = guide_[k + 1] - guide_[k];
  while (len > 1) {
    const std::size_t half = len / 2;
    base = (u < base[half]) ? base : base + half;
    len -= half;
  }
  const std::size_t idx = static_cast<std::size_t>(base - cdf_.data()) +
                          (len == 1 && !(u < *base) ? 1 : 0);
  return std::min(idx, cdf_.size() - 1);
}

}  // namespace starcdn::trace
