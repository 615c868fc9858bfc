#include "trace/trace_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace starcdn::trace {
namespace {

LocationTrace sample_trace() {
  LocationTrace t;
  t.location = 3;
  t.location_name = "Vienna";
  for (int i = 0; i < 500; ++i) {
    t.requests.push_back(
        {i * 0.25, static_cast<ObjectId>(i % 37), 1000u + i, 3});
  }
  return t;
}

class TraceIoTest : public ::testing::Test {
 protected:
  /// Per-test file name: ctest runs each test in its own process, in
  /// parallel, so a shared name would let tests clobber each other.
  std::string path(const char* ext) const {
    const std::string test =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    return (std::filesystem::temp_directory_path() /
            ("starcdn_trace_test_" + test + "." + ext))
        .string();
  }
  void TearDown() override {
    std::remove(path("bin").c_str());
    std::remove(path("csv").c_str());
  }
};

TEST_F(TraceIoTest, BinaryRoundTrip) {
  const auto original = sample_trace();
  write_binary(original, path("bin"));
  const auto loaded = read_binary(path("bin"));
  EXPECT_EQ(loaded.location, original.location);
  EXPECT_EQ(loaded.location_name, original.location_name);
  ASSERT_EQ(loaded.requests.size(), original.requests.size());
  for (std::size_t i = 0; i < loaded.requests.size(); ++i) {
    EXPECT_EQ(loaded.requests[i].timestamp_s, original.requests[i].timestamp_s);
    EXPECT_EQ(loaded.requests[i].object, original.requests[i].object);
    EXPECT_EQ(loaded.requests[i].size, original.requests[i].size);
    EXPECT_EQ(loaded.requests[i].location, original.requests[i].location);
  }
  EXPECT_EQ(loaded.total_bytes(), original.total_bytes());
}

TEST_F(TraceIoTest, CsvRoundTrip) {
  const auto original = sample_trace();
  write_csv(original, path("csv"));
  const auto loaded = read_csv_trace(path("csv"));
  ASSERT_EQ(loaded.requests.size(), original.requests.size());
  EXPECT_EQ(loaded.requests[7].object, original.requests[7].object);
  EXPECT_EQ(loaded.requests[7].size, original.requests[7].size);
  EXPECT_EQ(loaded.location, 3);
}

TEST_F(TraceIoTest, EmptyTraceRoundTrip) {
  LocationTrace empty;
  empty.location_name = "nowhere";
  write_binary(empty, path("bin"));
  const auto loaded = read_binary(path("bin"));
  EXPECT_TRUE(loaded.requests.empty());
  EXPECT_EQ(loaded.location_name, "nowhere");
}

TEST_F(TraceIoTest, BadMagicRejected) {
  {
    std::ofstream out(path("bin"), std::ios::binary);
    out << "NOTATRACEFILE....";
  }
  EXPECT_THROW((void)read_binary(path("bin")), std::runtime_error);
}

TEST_F(TraceIoTest, TruncatedFileRejected) {
  write_binary(sample_trace(), path("bin"));
  // Truncate mid-record.
  std::filesystem::resize_file(path("bin"), 64);
  EXPECT_THROW((void)read_binary(path("bin")), std::runtime_error);
}

/// Overwrite a little-endian u32/u64 at `offset` of an existing file.
template <typename T>
void patch(const std::string& path, std::streamoff offset, T value) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(offset);
  f.write(reinterpret_cast<const char*>(&value), sizeof value);
  ASSERT_TRUE(f.good());
}

TEST_F(TraceIoTest, CorruptCountRejectedBeforeAllocating) {
  const auto original = sample_trace();
  write_binary(original, path("bin"));
  // magic, u16 location, u16 name length, name, then the u64 count.
  const auto count_at =
      static_cast<std::streamoff>(8 + 2 + 2 + original.location_name.size());
  patch(path("bin"), count_at, std::uint64_t{0xFFFFFFFF});
  EXPECT_THROW((void)read_binary(path("bin")), std::runtime_error);
}

TEST_F(TraceIoTest, CorruptStreamBlockCountRejectedBeforeAllocating) {
  const auto original = sample_trace();
  VectorStream src(original.requests, 64);
  write_binary_stream(src, path("bin"));
  // magic, u64 total, then the first block's u32 count.
  patch(path("bin"), 8 + 8, std::uint32_t{0xFFFFFFFF});
  const auto reader = open_binary_stream(path("bin"));
  RequestBlock block;
  EXPECT_THROW((void)reader->next(block), std::runtime_error);
}

TEST(TraceIo, MissingFilesThrow) {
  EXPECT_THROW((void)read_binary("/nonexistent/trace.bin"),
               std::runtime_error);
  EXPECT_THROW(write_binary({}, "/nonexistent/dir/trace.bin"),
               std::runtime_error);
}

TEST(GoldenTraceFixture, MatchesItsDocumentedShape) {
  // tests/data/golden_trace.scdnstr feeds SimulatorGolden: the 1,800 s,
  // nine-city, 5,000-object video trace with 22,400 requests.
  const auto reader = open_binary_stream(std::string(STARCDN_TEST_DATA_DIR) +
                                         "/golden_trace.scdnstr");
  ASSERT_EQ(reader->size_hint(), 22'400u);
  RequestBlock block;
  std::uint64_t n = 0;
  double last = 0.0;
  while (reader->next(block)) {
    for (std::size_t i = 0; i < block.count(); ++i) {
      const Request r = block.at(i);
      ASSERT_GE(r.timestamp_s, last) << "request " << n;
      ASSERT_LT(r.timestamp_s, 1'800.0) << "request " << n;
      ASSERT_LT(r.object, 5'000u) << "request " << n;
      ASSERT_LT(r.location, 9u) << "request " << n;
      ASSERT_GT(r.size, 0u) << "request " << n;
      last = r.timestamp_s;
      ++n;
    }
  }
  EXPECT_EQ(n, 22'400u);
}

}  // namespace
}  // namespace starcdn::trace
