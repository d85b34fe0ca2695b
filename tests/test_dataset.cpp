// Unit tests: Dataset container, generators (distribution properties,
// determinism, Table I registry), binary/CSV IO round-trips.
#include <gtest/gtest.h>

#include <cmath>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "data/dataset.hpp"
#include "data/generators.hpp"
#include "data/io.hpp"

namespace gsj {
namespace {

TEST(Dataset, PushBackAndAccess) {
  Dataset ds(3);
  const double p0[] = {1.0, 2.0, 3.0};
  const double p1[] = {4.0, 5.0, 6.0};
  ds.push_back(p0);
  ds.push_back(p1);
  ASSERT_EQ(ds.size(), 2u);
  EXPECT_DOUBLE_EQ(ds.coord(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(ds.coord(1, 2), 6.0);
  EXPECT_DOUBLE_EQ(ds.dist2(0, 1), 27.0);
}

TEST(Dataset, MinMaxCorners) {
  Dataset ds(2);
  const double a[] = {1.0, 9.0};
  const double b[] = {5.0, -2.0};
  ds.push_back(a);
  ds.push_back(b);
  EXPECT_EQ(ds.min_corner(), (std::vector<double>{1.0, -2.0}));
  EXPECT_EQ(ds.max_corner(), (std::vector<double>{5.0, 9.0}));
}

TEST(Dataset, PermutedReordersPoints) {
  Dataset ds(1);
  for (double v : {10.0, 20.0, 30.0}) ds.push_back({&v, 1});
  const std::vector<PointId> perm{2, 0, 1};
  const Dataset p = ds.permuted(perm);
  EXPECT_DOUBLE_EQ(p.coord(0, 0), 30.0);
  EXPECT_DOUBLE_EQ(p.coord(1, 0), 10.0);
  EXPECT_DOUBLE_EQ(p.coord(2, 0), 20.0);
}

TEST(Dataset, DimsValidated) {
  EXPECT_THROW(Dataset(0), CheckError);
  EXPECT_THROW(Dataset(17), CheckError);
}

TEST(DatasetConcurrency, FreshDatasetCornersMatchSerialReadAcrossThreads) {
  // The bbox cache is built by the first const reader; 8 concurrent
  // first readers must publish it once and all see the serial values.
  const Dataset reference = gen_exponential(20000, 3, 5);
  const std::vector<double> lo = reference.min_corner();
  const std::vector<double> hi = reference.max_corner();
  for (int round = 0; round < 4; ++round) {
    const Dataset fresh = gen_exponential(20000, 3, 5);
    std::vector<std::vector<double>> mins(8);
    std::vector<std::vector<double>> maxs(8);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 8; ++t) {
      threads.emplace_back([&, t] {
        if (t % 2 == 0) {
          mins[t] = fresh.min_corner();
          maxs[t] = fresh.max_corner();
        } else {
          maxs[t] = fresh.max_corner();
          mins[t] = fresh.min_corner();
        }
      });
    }
    for (auto& th : threads) th.join();
    for (std::size_t t = 0; t < 8; ++t) {
      EXPECT_EQ(mins[t], lo) << "thread " << t;
      EXPECT_EQ(maxs[t], hi) << "thread " << t;
    }
    // A copy taken after the concurrent reads carries the cache.
    const Dataset copy = fresh;
    EXPECT_EQ(copy.min_corner(), lo);
    EXPECT_EQ(copy.max_corner(), hi);
  }
}

TEST(Dataset, RejectsNonFiniteCoordinates) {
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (const double v : bad) {
    SCOPED_TRACE(v);
    Dataset ds(3);
    ds.push_back(std::vector<double>{1.0, 2.0, 3.0});
    const std::uint64_t gen = ds.generation();
    const auto expect_error = [&](auto&& op, const std::string& what) {
      try {
        op();
        FAIL() << "expected CheckError";
      } catch (const CheckError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(what), std::string::npos) << msg;
        EXPECT_NE(msg.find("non-finite"), std::string::npos) << msg;
      }
    };
    expect_error([&] { ds.insert(std::vector<double>{0.0, v, 0.0}); },
                 "dimension 1 of point 1");
    expect_error([&] { ds.move_point(0, std::vector<double>{v, 0.0, 0.0}); },
                 "dimension 0 of point 0");
    expect_error([&] { ds.set_coord(0, 2, v); }, "dimension 2 of point 0");
    // Nothing was applied.
    EXPECT_EQ(ds.size(), 1u);
    EXPECT_EQ(ds.generation(), gen);
    EXPECT_EQ(ds.coord(0, 0), 1.0);
    EXPECT_EQ(ds.coord(0, 2), 3.0);
  }
}

TEST(Generators, UniformBoundsAndMean) {
  const Dataset ds = gen_uniform(20000, 3, 11);
  ASSERT_EQ(ds.size(), 20000u);
  for (int d = 0; d < 3; ++d) {
    const Summary s = summarize(ds.dim(d));
    EXPECT_GE(s.min, 0.0);
    EXPECT_LT(s.max, 100.0);
    EXPECT_NEAR(s.mean, 50.0, 1.5);
  }
}

TEST(Generators, ExponentialIsSkewedTowardOrigin) {
  const Dataset ds = gen_exponential(20000, 2, 12);
  for (int d = 0; d < 2; ++d) {
    const Summary s = summarize(ds.dim(d));
    EXPECT_GE(s.min, 0.0);
    // Exp(40): mean 1/40, median ln(2)/40.
    EXPECT_NEAR(s.mean, 0.025, 0.002);
    EXPECT_NEAR(s.median, std::log(2.0) / 40.0, 0.002);
  }
}

TEST(Generators, DeterministicPerSeed) {
  const Dataset a = gen_exponential(100, 4, 99);
  const Dataset b = gen_exponential(100, 4, 99);
  const Dataset c = gen_exponential(100, 4, 100);
  EXPECT_DOUBLE_EQ(a.coord(50, 2), b.coord(50, 2));
  EXPECT_NE(a.coord(50, 2), c.coord(50, 2));
}

TEST(Generators, SwLikeShapes) {
  const Dataset d2 = gen_sw_like(5000, /*with_tec=*/false, 5);
  EXPECT_EQ(d2.dims(), 2);
  const Dataset d3 = gen_sw_like(5000, /*with_tec=*/true, 5);
  EXPECT_EQ(d3.dims(), 3);
  const Summary lon = summarize(d3.dim(0));
  EXPECT_GE(lon.min, -180.0);
  EXPECT_LE(lon.max, 180.0);
  const Summary tec = summarize(d3.dim(2));
  EXPECT_GE(tec.min, 0.0);
  EXPECT_LE(tec.max, 100.0);
}

TEST(Generators, SwLikeIsSpatiallySkewed) {
  // Hotspot mixture must produce a much heavier-tailed local density
  // than uniform: compare cell-occupancy dispersion on a coarse grid.
  const Dataset sw = gen_sw_like(20000, false, 3);
  const Dataset un = gen_uniform(20000, 2, 3, -180.0, 180.0);
  auto occupancy_cv = [](const Dataset& ds) {
    constexpr int kG = 32;
    std::vector<std::uint64_t> cnt(kG * kG, 0);
    const auto lo = ds.min_corner();
    const auto hi = ds.max_corner();
    for (std::size_t i = 0; i < ds.size(); ++i) {
      int cx = static_cast<int>((ds.coord(i, 0) - lo[0]) / (hi[0] - lo[0] + 1e-9) * kG);
      int cy = static_cast<int>((ds.coord(i, 1) - lo[1]) / (hi[1] - lo[1] + 1e-9) * kG);
      cnt[static_cast<std::size_t>(cy * kG + cx)]++;
    }
    return summarize(std::span<const std::uint64_t>(cnt)).cv();
  };
  EXPECT_GT(occupancy_cv(sw), 3.0 * occupancy_cv(un));
}

TEST(Generators, GaiaLikeConcentratedOnPlane) {
  const Dataset g = gen_gaia_like(20000, 8);
  ASSERT_EQ(g.dims(), 2);
  std::size_t near_plane = 0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    ASSERT_GE(g.coord(i, 1), -90.0);
    ASSERT_LE(g.coord(i, 1), 90.0);
    if (std::abs(g.coord(i, 1)) < 15.0) ++near_plane;
  }
  // Laplace(15): P(|b|<15) ~ 0.63 vs 0.167 for uniform latitude.
  EXPECT_GT(static_cast<double>(near_plane) / g.size(), 0.5);
}

TEST(Generators, SpecRegistryMatchesTable1) {
  EXPECT_EQ(dataset_specs().size(), 15u);  // 10 synthetic + 4 SW + Gaia
  const DatasetSpec* unif = find_spec("Unif4D2M");
  ASSERT_NE(unif, nullptr);
  EXPECT_EQ(unif->dims, 4);
  EXPECT_EQ(unif->paper_n, 2'000'000u);
  const DatasetSpec* gaia = find_spec("Gaia");
  ASSERT_NE(gaia, nullptr);
  EXPECT_EQ(gaia->dims, 2);
  EXPECT_EQ(find_spec("nope"), nullptr);
}

TEST(Generators, MakeDatasetByName) {
  const Dataset ds = make_dataset("Expo3D2M", 500, 7);
  EXPECT_EQ(ds.dims(), 3);
  EXPECT_EQ(ds.size(), 500u);
  EXPECT_THROW(make_dataset("Unknown", 10, 1), CheckError);
}

class IoTest : public ::testing::Test {
 protected:
  std::string path(const char* name) {
    return (std::filesystem::temp_directory_path() / name).string();
  }
  void TearDown() override {
    std::filesystem::remove(path("gsj_io_test.bin"));
    std::filesystem::remove(path("gsj_io_test.csv"));
  }
};

TEST_F(IoTest, BinaryRoundTrip) {
  const Dataset ds = gen_uniform(1234, 5, 21);
  save_binary(ds, path("gsj_io_test.bin"));
  const Dataset back = load_binary(path("gsj_io_test.bin"));
  ASSERT_EQ(back.size(), ds.size());
  ASSERT_EQ(back.dims(), ds.dims());
  for (std::size_t i = 0; i < ds.size(); i += 97) {
    for (int d = 0; d < ds.dims(); ++d) {
      EXPECT_DOUBLE_EQ(back.coord(i, d), ds.coord(i, d));
    }
  }
}

TEST_F(IoTest, CsvRoundTrip) {
  const Dataset ds = gen_exponential(200, 2, 33);
  save_csv(ds, path("gsj_io_test.csv"));
  const Dataset back = load_csv(path("gsj_io_test.csv"), 2);
  ASSERT_EQ(back.size(), ds.size());
  for (std::size_t i = 0; i < ds.size(); i += 13) {
    EXPECT_NEAR(back.coord(i, 0), ds.coord(i, 0), 1e-5);
  }
}

TEST_F(IoTest, LoadRejectsGarbage) {
  const std::string p = path("gsj_io_test.bin");
  std::FILE* f = std::fopen(p.c_str(), "wb");
  std::fputs("not a dataset", f);
  std::fclose(f);
  EXPECT_THROW(load_binary(p), CheckError);
}

/// Writes a dataset-file header (magic, version 1, dims, n) followed by
/// `payload_doubles` zero coordinates.
void write_header(const std::string& p, std::uint32_t dims, std::uint64_t n,
                  std::size_t payload_doubles) {
  std::FILE* f = std::fopen(p.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const std::uint32_t version = 1;
  std::fwrite("GSJD", 1, 4, f);
  std::fwrite(&version, sizeof version, 1, f);
  std::fwrite(&dims, sizeof dims, 1, f);
  std::fwrite(&n, sizeof n, 1, f);
  const double zero = 0.0;
  for (std::size_t i = 0; i < payload_doubles; ++i) {
    std::fwrite(&zero, sizeof zero, 1, f);
  }
  std::fclose(f);
}

TEST_F(IoTest, HugePointCountIsTruncatedNotBadAlloc) {
  const std::string p = path("gsj_io_test.bin");
  write_header(p, 2, std::uint64_t{1} << 40, 8);
  try {
    (void)load_binary(p);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
  // A header that matches its payload still loads.
  write_header(p, 2, 4, 8);
  EXPECT_EQ(load_binary(p).size(), 4u);
}

TEST_F(IoTest, DimsCappedAtGridLimit) {
  const std::string p = path("gsj_io_test.bin");
  write_header(p, Mutation::kCoordCap + 1, 1, Mutation::kCoordCap + 1);
  EXPECT_THROW(load_binary(p), CheckError);
  write_header(p, Mutation::kCoordCap, 1, Mutation::kCoordCap);
  EXPECT_EQ(load_binary(p).dims(), Mutation::kCoordCap);
}

TEST_F(IoTest, BinaryRejectsNonFiniteCoordinates) {
  const std::string p = path("gsj_io_test.bin");
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (const double v : bad) {
    SCOPED_TRACE(v);
    // Two 2-D points, column-major: point 1 of dimension 1 is bad.
    write_header(p, 2, 2, 0);
    std::FILE* f = std::fopen(p.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const double cols[] = {0.5, 1.5, 2.5, v};
    std::fwrite(cols, sizeof(double), 4, f);
    std::fclose(f);
    try {
      (void)load_binary(p);
      FAIL() << "expected CheckError";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("dimension 1 of point 1"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST_F(IoTest, CsvRejectsNonFiniteCoordinates) {
  const std::string p = path("gsj_io_test.csv");
  for (const char* v : {"nan", "inf", "-inf"}) {
    SCOPED_TRACE(v);
    std::FILE* f = std::fopen(p.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "0.1,0.2\n0.3,0.4\n%s,0.5\n", v);
    std::fclose(f);
    try {
      (void)load_csv(p, 2);
      FAIL() << "expected CheckError";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("dimension 0 of point 2"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace gsj
