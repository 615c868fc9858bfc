#include "trace/zipf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <string>
#include <vector>

namespace starcdn::trace {
namespace {

TEST(Zipf, PmfSumsToOneAndDecreases) {
  const ZipfSampler z(1'000, 1.0);
  double total = 0.0;
  double prev = 1.0;
  for (std::size_t k = 0; k < z.size(); ++k) {
    const double p = z.pmf(k);
    EXPECT_LE(p, prev + 1e-15);
    prev = p;
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_EQ(z.pmf(5'000), 0.0);
}

TEST(Zipf, HeadDominatesForLargeAlpha) {
  const ZipfSampler z(100'000, 1.2);
  // Top 100 ranks should hold a large share of mass at alpha 1.2.
  double head = 0.0;
  for (std::size_t k = 0; k < 100; ++k) head += z.pmf(k);
  EXPECT_GT(head, 0.5);
}

TEST(Zipf, SampleMatchesPmf) {
  const ZipfSampler z(50, 0.8);
  util::Rng rng(3);
  std::vector<int> counts(50, 0);
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) ++counts[z.sample(rng)];
  for (std::size_t k = 0; k < 10; ++k) {
    EXPECT_NEAR(counts[k] / static_cast<double>(kN), z.pmf(k),
                0.02 * z.pmf(0) + 0.002);
  }
}

TEST(Zipf, AlphaZeroIsUniform) {
  const ZipfSampler z(10, 0.0);
  for (std::size_t k = 0; k < 10; ++k) EXPECT_NEAR(z.pmf(k), 0.1, 1e-12);
}

TEST(Zipf, EmptyThrows) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
}

TEST(DiscreteSampler, RespectsWeights) {
  const DiscreteSampler s({1.0, 0.0, 3.0});
  util::Rng rng(4);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40'000; ++i) ++counts[s.sample(rng)];
  EXPECT_NEAR(counts[0], 10'000, 500);
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2], 30'000, 500);
}

TEST(DiscreteSampler, NegativeWeightsClampToZero) {
  const DiscreteSampler s({-5.0, 2.0});
  util::Rng rng(5);
  for (int i = 0; i < 1'000; ++i) EXPECT_EQ(s.sample(rng), 1u);
}

TEST(DiscreteSampler, AllZeroThrows) {
  EXPECT_THROW(DiscreteSampler({0.0, 0.0}), std::invalid_argument);
}

TEST(DiscreteSampler, InfiniteWeightThrowsNamingIndex) {
  // Accepted, an infinite weight is never drawn: every unit maps past it,
  // and index_of(0.0) computes 0 * inf = NaN.
  try {
    const DiscreteSampler s({1.0, std::numeric_limits<double>::infinity(),
                             1.0});
    FAIL() << "accepted an infinite weight";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("weight 1 "), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(DiscreteSampler({-std::numeric_limits<double>::infinity()}),
               std::invalid_argument);
}

TEST(DiscreteSampler, NaNWeightThrowsNamingIndex) {
  // Accepted, a NaN weight would read as zero: std::max(0.0, NaN) is 0.
  try {
    const DiscreteSampler s({1.0, 2.0, std::nan("")});
    FAIL() << "accepted a NaN weight";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("weight 2 "), std::string::npos)
        << e.what();
  }
}

TEST(DiscreteSampler, OverflowingSumThrows) {
  const double big = std::numeric_limits<double>::max();
  EXPECT_THROW(DiscreteSampler({big, big}), std::invalid_argument);
}

/// The reference the guide table must reproduce: a full std::upper_bound
/// over the same cumulative sums, clamped to the last index.
std::size_t reference_index(const std::vector<double>& cdf, double total,
                            double unit) {
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), unit * total);
  return std::min(static_cast<std::size_t>(it - cdf.begin()), cdf.size() - 1);
}

void expect_exact_lookups(const std::vector<double>& weights,
                          const std::string& name) {
  SCOPED_TRACE(name);
  const DiscreteSampler s(weights);
  std::vector<double> cdf(weights.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += std::max(0.0, weights[i]);
    cdf[i] = acc;
  }
  ASSERT_EQ(s.total_weight(), acc);

  std::vector<double> units = {0.0, 1.0 - 0x1.0p-53};
  for (const double c : cdf) {
    // Every CDF boundary as a unit, with its neighbours on both sides:
    // where the cell arithmetic and the CDF's own rounding meet.
    const double b = c / acc;
    units.push_back(b);
    units.push_back(std::nextafter(b, 0.0));
    units.push_back(std::nextafter(b, 1.0));
  }
  // Every guide cell edge as a unit, with neighbours a few ulps away.
  const std::size_t cells = std::max<std::size_t>(
      1, weights.size() / DiscreteSampler::kEntriesPerCell);
  for (std::size_t k = 1; k < cells; ++k) {
    const double e = static_cast<double>(k) / static_cast<double>(cells);
    units.push_back(e);
    double up = e;
    double down = e;
    for (int step = 0; step < 3; ++step) {
      up = std::nextafter(up, 1.0);
      down = std::nextafter(down, 0.0);
      units.push_back(up);
      units.push_back(down);
    }
  }
  util::Rng rng(11);
  for (int i = 0; i < 1'000'000; ++i) units.push_back(rng.uniform());

  std::size_t mismatches = 0;
  for (const double u : units) {
    if (u < 0.0 || u >= 1.0) continue;
    const std::size_t got = s.index_of(u);
    const std::size_t want = reference_index(cdf, acc, u);
    if (got != want && ++mismatches <= 5) {
      ADD_FAILURE() << "unit " << std::hexfloat << u << std::defaultfloat
                    << ": index_of " << got << ", upper_bound " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(DiscreteSampler, IndexOfMatchesFullUpperBound) {
  expect_exact_lookups({2.5}, "one entry");

  std::vector<double> zeros;
  for (int i = 0; i < 4'000; ++i) {
    zeros.push_back(i % 3 == 0 ? 0.0 : 0.1 * (i % 7));
  }
  zeros.insert(zeros.begin() + 1'000, 2'000, 0.0);  // a long flat run
  expect_exact_lookups(zeros, "zero weights interleaved");

  std::vector<double> negative;
  for (int i = 0; i < 3'000; ++i) {
    negative.push_back(i % 2 == 0 ? -0.3 * i : 0.7);
  }
  expect_exact_lookups(negative, "negative weights");

  std::vector<double> dominant(5'000, 1e-9);
  dominant[2'500] = 1e6;
  expect_exact_lookups(dominant, "one dominant weight");

  // Equal weights put CDF entries on guide cell edges, up to the rounding
  // of 0.1 sums: where a guide built from edge thresholds instead of the
  // lookup's own cell function goes wrong.
  for (const std::size_t n : {std::size_t{40}, std::size_t{100},
                              std::size_t{10'000}}) {
    expect_exact_lookups(std::vector<double>(n, 0.1),
                         std::to_string(n) + " x 0.1");
  }

  // A diurnal minute profile, shaped like the generator's minute tables.
  std::vector<double> diurnal(1'440);
  for (std::size_t m = 0; m < diurnal.size(); ++m) {
    diurnal[m] = 1.0 + 0.45 * std::sin(2.0 * std::numbers::pi *
                                       (static_cast<double>(m) / 60.0 - 14.0) /
                                       24.0);
  }
  expect_exact_lookups(diurnal, "diurnal minutes");

  // A city object table: Zipf(1.2) weights over 300k objects in random
  // rank order (object ids are a shuffle of the popularity ranks).
  constexpr std::size_t kObjects = 300'000;
  std::vector<std::size_t> ranks(kObjects);
  for (std::size_t i = 0; i < kObjects; ++i) ranks[i] = i;
  util::Rng shuffle(7);
  for (std::size_t i = kObjects; i > 1; --i) {
    std::swap(ranks[i - 1], ranks[shuffle.below(i)]);
  }
  std::vector<double> zipf(kObjects);
  for (std::size_t i = 0; i < kObjects; ++i) {
    zipf[i] = std::pow(static_cast<double>(ranks[i] + 1), -1.2);
  }
  expect_exact_lookups(zipf, "random-order Zipf(1.2), 300k");
}

}  // namespace
}  // namespace starcdn::trace
