#include "sched/scheduler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>

#include "util/geo.h"

namespace starcdn::sched {
namespace {

class SchedulerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    shell_ = new orbit::Constellation{orbit::WalkerParams{}};
    schedule_ = new LinkSchedule(*shell_, util::paper_cities(),
                                 util::Seconds{30 * 60.0} /* 30 minutes */);
  }
  static void TearDownTestSuite() {
    delete schedule_;
    delete shell_;
    schedule_ = nullptr;
    shell_ = nullptr;
  }
  static orbit::Constellation* shell_;
  static LinkSchedule* schedule_;
};

orbit::Constellation* SchedulerTest::shell_ = nullptr;
LinkSchedule* SchedulerTest::schedule_ = nullptr;

TEST_F(SchedulerTest, EpochCount) {
  EXPECT_EQ(schedule_->epochs(), 120u);  // 30 min / 15 s
  EXPECT_DOUBLE_EQ(schedule_->epoch_duration().value(), 15.0);
}

TEST_F(SchedulerTest, EpochOfClampsToRange) {
  EXPECT_EQ(schedule_->epoch_of(util::Seconds{-5.0}).value(), 0u);
  EXPECT_EQ(schedule_->epoch_of(util::Seconds{0.0}).value(), 0u);
  EXPECT_EQ(schedule_->epoch_of(util::Seconds{15.0}).value(), 1u);
  EXPECT_EQ(schedule_->epoch_of(util::Seconds{1e9}).value(), schedule_->epochs() - 1);
}

TEST_F(SchedulerTest, CandidatesAreValidSatellites) {
  for (std::size_t e = 0; e < schedule_->epochs(); e += 17) {
    for (std::size_t c = 0; c < util::paper_cities().size(); ++c) {
      for (const auto& cand : schedule_->candidates(util::EpochIdx{e}, util::CityId{static_cast<std::uint32_t>(c)})) {
        EXPECT_GE(cand.sat.value(), 0);
        EXPECT_LT(cand.sat.value(), shell_->size());
        // One-way GSL delay at 550 km with a 25-degree mask: 1.8 - 5 ms.
        EXPECT_GT(cand.gsl_one_way_ms, 1.7F);
        EXPECT_LT(cand.gsl_one_way_ms, 5.5F);
      }
    }
  }
}

TEST_F(SchedulerTest, MidLatitudeCitiesAlwaysCovered) {
  for (std::size_t e = 0; e < schedule_->epochs(); ++e) {
    for (std::size_t c = 0; c < util::paper_cities().size(); ++c) {
      EXPECT_FALSE(schedule_->candidates(util::EpochIdx{e}, util::CityId{static_cast<std::uint32_t>(c)}).empty())
          << "city " << c << " uncovered at epoch " << e;
    }
  }
}

TEST_F(SchedulerTest, PaperReportsManySatellitesInView) {
  // §3.1.2: "a Starlink client often has 10+ satellites in view". With the
  // top-K cap at 10 the mean should be close to the cap at these latitudes.
  EXPECT_GT(schedule_->mean_candidates(), 5.0);
}

TEST_F(SchedulerTest, FirstContactStableWithinEpoch) {
  const auto a = schedule_->first_contact(util::EpochIdx{5}, util::CityId{2}, 7);
  const auto b = schedule_->first_contact(util::EpochIdx{5}, util::CityId{2}, 7);
  EXPECT_EQ(a.sat, b.sat);
}

TEST_F(SchedulerTest, FirstContactReshufflesAcrossEpochs) {
  // The Starlink scheduler reconfigures every 15 s; over many epochs one
  // user must not stay pinned to a single satellite.
  std::set<int> sats;
  for (std::size_t e = 0; e < schedule_->epochs(); ++e) {
    sats.insert(schedule_->first_contact(util::EpochIdx{e}, util::CityId{0}, 7).sat.value());
  }
  EXPECT_GT(sats.size(), 5u);
}

TEST_F(SchedulerTest, UsersSpreadOverCandidates) {
  // Within one epoch, different users must land on different satellites
  // (the multi-satellite redundancy challenge, §3.1.2).
  std::set<int> sats;
  for (std::uint64_t user = 0; user < 64; ++user) {
    sats.insert(schedule_->first_contact(util::EpochIdx{10}, util::CityId{4}, user).sat.value());
  }
  EXPECT_GT(sats.size(), 3u);
}

TEST_F(SchedulerTest, CityOutOfRangeThrowsNamingBounds) {
  const util::EpochIdx last{schedule_->epochs() - 1};
  const util::CityId past{
      static_cast<std::uint32_t>(util::paper_cities().size())};
  try {
    (void)schedule_->candidates(last, past);
    FAIL() << "candidates() accepted city == n_cities";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::to_string(past.value())), std::string::npos);
    EXPECT_NE(what.find(std::to_string(util::paper_cities().size())),
              std::string::npos);
  }
  EXPECT_THROW((void)schedule_->first_contact(last, past, 0),
               std::out_of_range);
}

TEST(Scheduler, EmptyCellForUncoveredCity) {
  const orbit::Constellation shell{orbit::WalkerParams{}};
  const std::vector<util::City> arctic = {
      {"Alert", {82.5, -62.3}, 1.0, "en"}};
  const LinkSchedule schedule(shell, arctic, util::Seconds{60.0});
  EXPECT_TRUE(schedule.candidates(util::EpochIdx{0}, util::CityId{0}).empty());
  EXPECT_EQ(schedule.first_contact(util::EpochIdx{0}, util::CityId{0}, 1).sat.value(), -1);
}

TEST(Scheduler, CustomParams) {
  const orbit::Constellation shell{orbit::WalkerParams{}};
  SchedulerParams params;
  params.epoch = util::Seconds{60.0};
  params.candidates_per_cell = 2;
  const LinkSchedule schedule(shell, util::paper_cities(), util::Seconds{600.0}, params);
  EXPECT_EQ(schedule.epochs(), 10u);
  for (std::size_t c = 0; c < util::paper_cities().size(); ++c) {
    EXPECT_LE(schedule.candidates(util::EpochIdx{0}, util::CityId{static_cast<std::uint32_t>(c)}).size(), 2u);
  }
}

}  // namespace
}  // namespace starcdn::sched
