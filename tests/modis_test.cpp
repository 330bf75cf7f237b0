// Unit tests for the synthetic MODIS system: noise determinism, orbit
// geometry, product consistency, catalog naming/sizing, workload statistics,
// and CRC32 pins on the synthesised outputs.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "modis/catalog.hpp"
#include "modis/noise.hpp"
#include "modis/products.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace mfw::modis {
namespace {

TEST(Noise, DeterministicPerSeed) {
  NoiseField a(42), b(42), c(43);
  EXPECT_DOUBLE_EQ(a.at(1.5, 2.5), b.at(1.5, 2.5));
  EXPECT_NE(a.at(1.5, 2.5), c.at(1.5, 2.5));
}

TEST(Noise, BoundedAndSmooth) {
  NoiseField field(7);
  for (double x = -10; x < 10; x += 0.37) {
    for (double y = -10; y < 10; y += 0.41) {
      const double v = field.fbm(x, y, 4);
      ASSERT_GE(v, -1.0);
      ASSERT_LE(v, 1.0);
      // Smoothness: nearby samples are close.
      const double v2 = field.fbm(x + 1e-4, y, 4);
      ASSERT_LT(std::abs(v - v2), 0.02);
    }
  }
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// A cursor carried along a walk returns bitwise what fresh pointwise calls
// return: small steps (cell hits), jumps, negative coordinates, exact
// integers on cell boundaries and large magnitudes.
TEST(Noise, CursorMatchesPointwiseAlongWalk) {
  const NoiseField field(2022);
  util::Rng rng(99);
  for (const int octaves : {1, 3, 5, NoiseField::kCursorOctaves + 2}) {
    NoiseField::Cursor cursor;
    double x = -3.7, y = 12.2;
    for (int step = 0; step < 4000; ++step) {
      const int kind = static_cast<int>(rng.uniform(0, 20));
      if (kind == 0) {
        x = std::floor(rng.uniform(-50, 50));  // exact cell corner
        y = std::floor(rng.uniform(-50, 50));
      } else if (kind == 1) {
        x = rng.uniform(-1e9, 1e9);
        y = rng.uniform(-1e9, 1e9);
      } else if (kind == 2) {
        x = -x;
      } else {
        x += rng.uniform(-0.3, 0.3);
        y += rng.uniform(-0.3, 0.3);
      }
      ASSERT_EQ(bits(field.fbm(x, y, octaves, cursor)),
                bits(field.fbm(x, y, octaves)))
          << "octaves " << octaves << " at (" << x << ", " << y << ")";
    }
  }
}

TEST(Noise, CursorHonoursGainAndLacunarity) {
  const NoiseField field(7);
  NoiseField::Cursor cursor;
  for (double x = -2.0; x < 2.0; x += 0.013) {
    ASSERT_EQ(bits(field.fbm(x, 0.5 * x, 4, cursor, 0.6, 2.5)),
              bits(field.fbm(x, 0.5 * x, 4, 0.6, 2.5)));
  }
}

TEST(Products, SamplerMatchesPointwiseEarth) {
  const EarthModel earth(2022);
  EarthModel::Sampler sampler(earth);
  for (int r = 0; r < 40; ++r) {
    const SwathRow row = swath_row(Satellite::kAqua, 150, (r + 0.5) / 40);
    for (int c = 0; c < 64; ++c) {
      const LatLon p = row.pixel((c + 0.5) / 64);
      ASSERT_EQ(sampler.is_land(p), earth.is_land(p));
      ASSERT_EQ(bits(sampler.cloud_intensity(p, 17)),
                bits(earth.cloud_intensity(p, 17)));
      ASSERT_EQ(bits(sampler.cloud_top_pressure(p, 17)),
                bits(earth.cloud_top_pressure(p, 17)));
      ASSERT_EQ(bits(sampler.surface_temperature(p)),
                bits(earth.surface_temperature(p)));
    }
  }
}

TEST(Geo, SwathRowPixelMatchesSwathPixel) {
  for (const Satellite sat : {Satellite::kTerra, Satellite::kAqua}) {
    for (int slot = 0; slot < kSlotsPerDay; slot += 7) {
      for (int r = 0; r < 50; ++r) {
        const double row_frac = (r + 0.5) / 50;
        const SwathRow row = swath_row(sat, slot, row_frac);
        for (int c = 0; c < 37; ++c) {
          const double col_frac = (c + 0.5) / 37;
          const LatLon a = row.pixel(col_frac);
          const LatLon b = swath_pixel(sat, slot, row_frac, col_frac);
          ASSERT_EQ(bits(a.lat), bits(b.lat));
          ASSERT_EQ(bits(a.lon), bits(b.lon));
        }
      }
    }
  }
}

TEST(Geo, GroundTrackCoversLatitudes) {
  double min_lat = 90, max_lat = -90;
  for (int slot = 0; slot < kSlotsPerDay; ++slot) {
    const auto p = ground_track(Satellite::kTerra, slot, 0.5);
    min_lat = std::min(min_lat, p.lat);
    max_lat = std::max(max_lat, p.lat);
    ASSERT_GE(p.lon, -180.0);
    ASSERT_LT(p.lon, 180.0);
  }
  EXPECT_LT(min_lat, -75.0);  // polar orbit reaches high latitudes
  EXPECT_GT(max_lat, 75.0);
}

TEST(Geo, DayNightSplitRoughlyHalf) {
  int day = 0;
  for (int slot = 0; slot < kSlotsPerDay; ++slot)
    if (is_daytime(Satellite::kTerra, slot, 1)) ++day;
  EXPECT_GT(day, kSlotsPerDay / 4);
  EXPECT_LT(day, 3 * kSlotsPerDay / 4);
}

TEST(Geo, SolarZenithExtremes) {
  // Local noon at the equator (lon 0, day fraction 0.5): low zenith.
  const double noon = solar_zenith_deg({0.0, 0.0}, 0.5, 80);
  const double midnight = solar_zenith_deg({0.0, 0.0}, 0.0, 80);
  EXPECT_LT(noon, 30.0);
  EXPECT_GT(midnight, 90.0);
}

TEST(Products, GeneratedShapesMatchGeometry) {
  GranuleGenerator gen(1);
  GranuleSpec spec;
  spec.geometry = kSmallGeometry;
  spec.slot = 100;
  const auto m03 = gen.mod03(spec);
  EXPECT_EQ(m03.latitude.size(), spec.geometry.pixels());
  EXPECT_EQ(m03.land_mask.size(), spec.geometry.pixels());
  const auto m06 = gen.mod06(spec);
  EXPECT_EQ(m06.cloud_mask.size(), spec.geometry.pixels());
  const auto m02 = gen.mod02(spec);
  EXPECT_EQ(m02.radiance.size(),
            spec.geometry.pixels() * static_cast<std::size_t>(spec.geometry.bands));
}

TEST(Products, CrossProductConsistency) {
  // MOD06 cloud mask and MOD02 radiance must describe the same scene: cloudy
  // pixels are brighter in the visible bands (daytime granule).
  GranuleGenerator gen(2022);
  GranuleSpec spec;
  spec.geometry = kSmallGeometry;
  // Find a daytime slot.
  int slot = 0;
  while (!is_daytime(spec.satellite, slot, spec.day_of_year)) ++slot;
  spec.slot = slot;
  const auto m02 = gen.mod02(spec);
  const auto m06 = gen.mod06(spec);
  ASSERT_TRUE(m02.daytime);
  double cloudy_sum = 0, clear_sum = 0;
  std::size_t cloudy_n = 0, clear_n = 0;
  for (int r = 0; r < spec.geometry.rows; ++r) {
    for (int c = 0; c < spec.geometry.cols; ++c) {
      const std::size_t i =
          static_cast<std::size_t>(r) * spec.geometry.cols + c;
      const float vis = m02.at(0, r, c);
      if (m06.cloud_mask[i]) {
        cloudy_sum += vis;
        ++cloudy_n;
      } else {
        clear_sum += vis;
        ++clear_n;
      }
    }
  }
  ASSERT_GT(cloudy_n, 0u);
  ASSERT_GT(clear_n, 0u);
  EXPECT_GT(cloudy_sum / cloudy_n, clear_sum / clear_n + 0.1);
}

TEST(Products, NightGranulesHaveFilledReflectiveBands) {
  GranuleGenerator gen(2022);
  GranuleSpec spec;
  spec.geometry = kSmallGeometry;
  int slot = 0;
  while (is_daytime(spec.satellite, slot, spec.day_of_year)) ++slot;
  spec.slot = slot;
  const auto m02 = gen.mod02(spec);
  ASSERT_FALSE(m02.daytime);
  EXPECT_FLOAT_EQ(m02.at(0, 0, 0), kFillValue);
  EXPECT_FLOAT_EQ(m02.at(2, 5, 5), kFillValue);
  // Thermal bands remain valid at night.
  EXPECT_NE(m02.at(3, 0, 0), kFillValue);
}

TEST(Products, HdflRoundTripAllProducts) {
  GranuleGenerator gen(5);
  GranuleSpec spec;
  spec.geometry = GranuleGeometry{64, 48, 4};
  spec.slot = 37;
  const auto m02 = gen.mod02(spec);
  const auto back02 = Mod02Granule::from_hdfl(
      storage::HdflFile::deserialize(m02.to_hdfl().serialize()));
  EXPECT_EQ(back02.spec.slot, 37);
  EXPECT_EQ(back02.daytime, m02.daytime);
  EXPECT_EQ(back02.radiance, m02.radiance);

  const auto m03 = gen.mod03(spec);
  const auto back03 = Mod03Granule::from_hdfl(
      storage::HdflFile::deserialize(m03.to_hdfl().serialize()));
  EXPECT_EQ(back03.land_mask, m03.land_mask);

  const auto m06 = gen.mod06(spec);
  const auto back06 = Mod06Granule::from_hdfl(
      storage::HdflFile::deserialize(m06.to_hdfl().serialize()));
  EXPECT_EQ(back06.cloud_mask, m06.cloud_mask);
}

TEST(Products, LandFractionPlausible) {
  EarthModel earth(2022);
  int land = 0;
  const int n = 6000;
  util::Rng rng(1);
  for (int i = 0; i < n; ++i) {
    const LatLon p{rng.uniform(-80, 80), rng.uniform(-180, 180)};
    if (earth.is_land(p)) ++land;
  }
  const double frac = static_cast<double>(land) / n;
  EXPECT_GT(frac, 0.12);
  EXPECT_LT(frac, 0.55);
}

TEST(Catalog, FilenameRoundTrip) {
  GranuleId id{ProductKind::kMod02, Satellite::kTerra, 2022, 1, 95};
  EXPECT_EQ(id.filename(), "MOD021KM.A2022001.0755.061.hdf");
  const auto parsed = parse_granule_filename(id.filename());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, id);

  GranuleId aqua{ProductKind::kMod06, Satellite::kAqua, 2023, 365, 0};
  EXPECT_EQ(aqua.filename(), "MYD06_L2.A2023365.0000.061.hdf");
  EXPECT_EQ(*parse_granule_filename(aqua.filename()), aqua);
}

TEST(Catalog, RejectsMalformedFilenames) {
  EXPECT_FALSE(parse_granule_filename("notaproduct.A2022001.0000.061.hdf"));
  EXPECT_FALSE(parse_granule_filename("MOD021KM.A2022001.0003.061.hdf"));  // minute not multiple of 5
  EXPECT_FALSE(parse_granule_filename("MOD021KM.A2022001.0000.061.txt"));
  EXPECT_FALSE(parse_granule_filename("MOD021KM.X2022001.0000.061.hdf"));
}

TEST(Catalog, ProductNames) {
  EXPECT_EQ(product_short_name(ProductKind::kMod03, Satellite::kAqua), "MYD03");
  const auto parsed = parse_product_name("MOD021KM");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->first, ProductKind::kMod02);
  EXPECT_FALSE(parse_product_name("TROPOMI").has_value());
}

TEST(Catalog, ListsFullDay) {
  ArchiveService archive(2022);
  const auto entries = archive.list(ProductKind::kMod02, Satellite::kTerra,
                                    DaySpan{2022, 1, 1});
  ASSERT_EQ(entries.size(), 288u);
  EXPECT_EQ(entries.front().id.slot, 0);
  EXPECT_EQ(entries.back().id.slot, 287);
  for (const auto& e : entries) ASSERT_GT(e.size_bytes, 0u);
}

TEST(Catalog, DayVolumesMatchPaper) {
  // Paper: ~32 GB MOD02, ~8.4 GB MOD03, ~18 GB MOD06 per day.
  ArchiveService archive(2022);
  auto total = [&](ProductKind kind) {
    std::uint64_t sum = 0;
    for (const auto& e :
         archive.list(kind, Satellite::kTerra, DaySpan{2022, 1, 1}))
      sum += e.size_bytes;
    return static_cast<double>(sum) / (1024.0 * 1024 * 1024);
  };
  EXPECT_NEAR(total(ProductKind::kMod02), 32.0, 6.0);
  EXPECT_NEAR(total(ProductKind::kMod03), 8.4, 1.5);
  EXPECT_NEAR(total(ProductKind::kMod06), 18.0, 3.0);
}

TEST(Catalog, SizesDeterministic) {
  ArchiveService a(2022), b(2022);
  const GranuleId id{ProductKind::kMod02, Satellite::kTerra, 2022, 15, 100};
  EXPECT_EQ(a.size_of(id), b.size_of(id));
}

TEST(Catalog, MaterializeParsesBack) {
  ArchiveService archive(2022);
  const GranuleId id{ProductKind::kMod06, Satellite::kTerra, 2022, 1, 130};
  const auto bytes = archive.materialize(id, GranuleGeometry{64, 48, 4});
  const auto granule = Mod06Granule::from_hdfl(storage::HdflFile::deserialize(bytes));
  EXPECT_EQ(granule.spec.slot, 130);
  EXPECT_EQ(granule.cloud_mask.size(), 64u * 48u);
}

TEST(Stats, NightGranulesYieldNoTiles) {
  GranuleGenerator gen(2022);
  GranuleSpec spec;
  spec.geometry = kFullGeometry;
  int slot = 0;
  while (is_daytime(spec.satellite, slot, spec.day_of_year)) ++slot;
  spec.slot = slot;
  const auto stats = estimate_granule_stats(gen, spec);
  EXPECT_FALSE(stats.daytime);
  EXPECT_EQ(stats.selected_tiles, 0);
}

TEST(Stats, SelectedSubsetOfCandidates) {
  GranuleGenerator gen(2022);
  for (int slot = 0; slot < 288; slot += 17) {
    GranuleSpec spec;
    spec.geometry = kFullGeometry;
    spec.slot = slot;
    const auto stats = estimate_granule_stats(gen, spec);
    ASSERT_LE(stats.selected_tiles, stats.candidate_tiles);
    ASSERT_LE(stats.candidate_tiles, 150);  // 15 x 10 grid at full geometry
    ASSERT_GE(stats.selected_tiles, 0);
  }
}

TEST(Stats, DayYieldIsRealistic) {
  // Across a full day, mean selected tiles per daytime granule should be in
  // the range the AICCA papers describe (tens to ~150 per swath).
  GranuleGenerator gen(2022);
  long total = 0;
  int day_granules = 0;
  for (int slot = 0; slot < 288; ++slot) {
    GranuleSpec spec;
    spec.geometry = kFullGeometry;
    spec.slot = slot;
    const auto stats = estimate_granule_stats(gen, spec);
    if (stats.daytime) {
      ++day_granules;
      total += stats.selected_tiles;
    }
  }
  ASSERT_GT(day_granules, 0);
  const double mean = static_cast<double>(total) / day_granules;
  EXPECT_GT(mean, 30.0);
  EXPECT_LT(mean, 150.0);
}

// The pins below fix every bit the samplers produce: the workload statistics
// of 2304 full-geometry granules (Terra and Aqua, four days, all slots) and
// the serialised bytes of three materialised granules per product. Any change
// to the synthesis, however small, moves a CRC.
TEST(Pins, GranuleStatsFingerprint) {
  GranuleGenerator gen(2022);
  std::string text;
  char line[128];
  for (const Satellite sat : {Satellite::kTerra, Satellite::kAqua}) {
    for (const int day : {1, 100, 200, 366}) {
      for (int slot = 0; slot < kSlotsPerDay; ++slot) {
        GranuleSpec spec;
        spec.satellite = sat;
        spec.year = 2022;
        spec.day_of_year = day;
        spec.slot = slot;
        spec.geometry = kFullGeometry;
        spec.world_seed = 2022;
        const auto s = estimate_granule_stats(gen, spec);
        std::snprintf(line, sizeof line, "%s %d %d %d %d %d %a\n",
                      satellite_name(sat), day, slot, s.daytime ? 1 : 0,
                      s.candidate_tiles, s.selected_tiles,
                      s.mean_cloud_fraction);
        text += line;
      }
    }
  }
  EXPECT_EQ(util::crc32(text.data(), text.size()), 0x2abf3d80u);
}

struct MaterializePin {
  Satellite satellite;
  int slot;
  std::uint32_t mod02, mod03, mod06;
};

constexpr MaterializePin kMaterializePins[] = {
    // Terra slot 8 is the first daytime slot, slot 0 a night granule.
    {Satellite::kTerra, 8, 0xf4d286e8u, 0x797fb261u, 0x9939ede9u},
    {Satellite::kTerra, 0, 0x17fff0a2u, 0xddffd298u, 0x74ff219du},
    {Satellite::kAqua, 150, 0xf037b2a6u, 0x29b018e7u, 0x621fbcd9u},
};

TEST(Pins, MaterializedBytes) {
  const ArchiveService archive(2022);
  const GranuleGeometry geometry{256, 192, 6};
  for (const auto& pin : kMaterializePins) {
    const std::pair<ProductKind, std::uint32_t> expected[] = {
        {ProductKind::kMod02, pin.mod02},
        {ProductKind::kMod03, pin.mod03},
        {ProductKind::kMod06, pin.mod06}};
    for (const auto& [kind, crc] : expected) {
      const GranuleId id{kind, pin.satellite, 2022, 1, pin.slot};
      EXPECT_EQ(util::crc32(archive.materialize(id, geometry)), crc)
          << id.filename();
    }
  }
}

// Synthesis keeps no state between calls, so one ArchiveService shared by
// several threads yields the same bytes as a serial run (also run under
// TSan by tools/ci_sanitize.sh).
TEST(Concurrency, SharedArchiveMaterializesSameBytes) {
  const ArchiveService archive(2022);
  const GranuleGeometry geometry{64, 48, 4};
  std::vector<GranuleId> ids;
  for (const Satellite sat : {Satellite::kTerra, Satellite::kAqua})
    for (const int slot : {0, 8, 40, 150, 200, 287})
      for (const ProductKind kind :
           {ProductKind::kMod02, ProductKind::kMod03, ProductKind::kMod06})
        ids.push_back(GranuleId{kind, sat, 2022, 1, slot});
  std::vector<std::vector<std::byte>> serial;
  for (const auto& id : ids)
    serial.push_back(archive.materialize(id, geometry));

  constexpr int kThreads = 4;
  std::vector<std::vector<std::byte>> parallel(ids.size());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < ids.size(); i += kThreads)
        parallel[i] = archive.materialize(ids[i], geometry);
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t i = 0; i < ids.size(); ++i)
    EXPECT_EQ(parallel[i], serial[i]) << ids[i].filename();
}

}  // namespace
}  // namespace mfw::modis
