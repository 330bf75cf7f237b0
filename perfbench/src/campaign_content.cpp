// campaign_content: materialised campaigns with real bytes.
//
// Each op runs the paper-default (barrier) workflow over a day no earlier op
// used, keeping its first four daytime Terra granules, materialised at
// 256 x 192 x 6 and cut into 32-px tiles, and labels them with a staged fp32
// RICC model whose centroids are fixed. Obs is off.
//
// Checks per op regenerate MOD03/MOD06 through `modis` and apply the tiler's
// selection rule independently (daytime, no land pixel, cloud fraction >=
// min_cloud_fraction), and re-label every shipped tile with a separately
// constructed fp32 reference model.
#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "ml/ricc.hpp"
#include "modis/catalog.hpp"
#include "modis/geo.hpp"
#include "modis/products.hpp"
#include "pipeline/eoml_workflow.hpp"
#include "preprocess/tasks.hpp"
#include "preprocess/tile_io.hpp"
#include "storage/memfs.hpp"

using namespace mfw;

namespace perfbench {
namespace {

constexpr modis::GranuleGeometry kGeometry{256, 192, 6};
constexpr std::size_t kGranulesPerOp = 4;
constexpr int kTileSize = 32;
constexpr double kMinCloudFraction = 0.3;
constexpr const char* kModelPath = "models/ricc.hdfl";

ml::RiccConfig model_config() {
  ml::RiccConfig config;
  config.tile_size = kTileSize;
  config.channels = kGeometry.bands;
  return config;
}

/// Fixed centroids, drawn once from a constant stream.
ml::Tensor fixed_centroids() {
  const ml::RiccConfig config = model_config();
  InputRng rng(0xce47);
  std::vector<float> values(
      static_cast<std::size_t>(config.num_classes * config.latent_dim));
  for (auto& v : values) v = static_cast<float>(rng.normal(0.0, 0.5));
  return ml::Tensor({config.num_classes, config.latent_dim}, std::move(values));
}

/// The model artifact the workflow loads: an fp32 RICC model with the fixed
/// centroids, serialised to hdfl bytes.
std::vector<std::byte> stage_model() {
  ml::RiccModel model(model_config());
  model.set_centroids(fixed_centroids());
  return model.save().serialize();
}

/// One shipped tile file, as the checks see it.
struct ShippedFile {
  modis::GranuleId granule;
  std::vector<std::pair<int, int>> origins;  // (row, col) per tile
  std::vector<std::int32_t> labels;
  std::vector<preprocess::Tile> tiles;
};

struct ContentOp {
  double seconds = 0.0;
  std::size_t granules = 0;
  std::size_t total_tiles = 0;
  std::size_t labeled_tiles = 0;
  std::size_t shipped_files = 0;
  std::vector<ShippedFile> files;
  /// Shipped bytes, file by file: the determinism fingerprint.
  std::vector<std::vector<std::byte>> raw;
};

preprocess::TilerOptions tiler_options() {
  preprocess::TilerOptions tiler;
  tiler.tile_size = kTileSize;
  tiler.channels = kGeometry.bands;
  tiler.min_cloud_fraction = kMinCloudFraction;
  return tiler;
}

ContentOp run_op(const CampaignDay& day,
                 const std::vector<std::byte>& model_bytes) {
  ContentOp op;
  const auto t0 = Clock::now();
  pipeline::EomlConfig config;
  config.span = modis::DaySpan{day.year, day.day_of_year, day.day_of_year};
  config.max_files = kGranulesPerOp;
  config.daytime_only = true;
  config.materialize = true;
  config.geometry = kGeometry;
  config.tiler = tiler_options();
  config.model_path = kModelPath;
  pipeline::EomlWorkflow workflow(config);
  workflow.defiant_fs().write_file(kModelPath, model_bytes);
  const auto report = workflow.run();
  op.seconds = seconds_since(t0);

  op.granules = report.granules;
  op.total_tiles = report.total_tiles;
  op.labeled_tiles = report.labeled_tiles;
  op.shipped_files = report.shipped_files;
  auto& orion = workflow.orion_fs();
  for (const auto& info : orion.list("aicca/*.ncl")) {
    op.raw.push_back(orion.read_file(info.path));
    const auto file = preprocess::read_tile_file(orion, info.path);
    ShippedFile shipped;
    shipped.granule = preprocess::read_tile_summary(orion, info.path).granule;
    if (preprocess::pixel_tile_count(file) > 0) {
      const auto rows = file.var("origin_row").as_i32();
      const auto cols = file.var("origin_col").as_i32();
      for (std::size_t i = 0; i < rows.size(); ++i)
        shipped.origins.emplace_back(rows[i], cols[i]);
      shipped.tiles = preprocess::tiles_from_ncl(file);
    }
    if (file.has_var("label")) {
      const auto labels = file.var("label").as_i32();
      shipped.labels.assign(labels.begin(), labels.end());
    }
    op.files.push_back(std::move(shipped));
  }
  return op;
}

/// Tile origins the tiler's rule selects, computed from MOD03/MOD06
/// regenerated through `modis`.
std::set<std::pair<int, int>> expected_origins(
    const modis::GranuleGenerator& generator, const modis::GranuleId& id) {
  std::set<std::pair<int, int>> origins;
  if (!modis::is_daytime(id.satellite, id.slot, id.day_of_year)) return origins;
  modis::GranuleSpec spec;
  spec.satellite = id.satellite;
  spec.year = id.year;
  spec.day_of_year = id.day_of_year;
  spec.slot = id.slot;
  spec.geometry = kGeometry;
  spec.world_seed = kWorldSeed;
  const auto mod03 = generator.mod03(spec);
  const auto mod06 = generator.mod06(spec);
  const int cols = kGeometry.cols;
  for (int r0 = 0; r0 + kTileSize <= kGeometry.rows; r0 += kTileSize) {
    for (int c0 = 0; c0 + kTileSize <= kGeometry.cols; c0 += kTileSize) {
      bool land = false;
      int cloudy = 0;
      for (int r = r0; r < r0 + kTileSize; ++r) {
        for (int c = c0; c < c0 + kTileSize; ++c) {
          const auto i = static_cast<std::size_t>(r) * cols + c;
          land = land || mod03.land_mask[i] != 0;
          cloudy += mod06.cloud_mask[i] != 0;
        }
      }
      if (!land && cloudy >= kMinCloudFraction * kTileSize * kTileSize)
        origins.emplace(r0, c0);
    }
  }
  return origins;
}

/// Per-granule expected origins for the files of an op.
using Expectation = std::vector<std::set<std::pair<int, int>>>;

Expectation expect_for(const modis::GranuleGenerator& generator,
                       const ContentOp& op) {
  Expectation expect;
  for (const auto& file : op.files)
    expect.push_back(expected_origins(generator, file.granule));
  return expect;
}

std::string check_content(const ContentOp& op, const Expectation& expect,
                          ml::RiccModel& reference) {
  if (op.granules != kGranulesPerOp || op.shipped_files != kGranulesPerOp ||
      op.files.size() != kGranulesPerOp)
    return "granules " + std::to_string(op.granules) + ", shipped " +
           std::to_string(op.shipped_files) + ", on Orion " +
           std::to_string(op.files.size()) + "; expected 4";
  if (op.labeled_tiles != op.total_tiles)
    return "labelled tiles " + std::to_string(op.labeled_tiles) +
           " != total tiles " + std::to_string(op.total_tiles);
  std::size_t tiles = 0;
  for (std::size_t f = 0; f < op.files.size(); ++f) {
    const ShippedFile& file = op.files[f];
    const std::string name = file.granule.filename();
    const std::set<std::pair<int, int>> got(file.origins.begin(),
                                            file.origins.end());
    if (got.size() != file.origins.size() || got != expect[f])
      return name + ": " + std::to_string(file.origins.size()) +
             " tile origins differ from the " + std::to_string(expect[f].size()) +
             " the tiler rule selects";
    if (file.labels.size() != file.tiles.size() ||
        file.tiles.size() != file.origins.size())
      return name + ": " + std::to_string(file.labels.size()) + " labels for " +
             std::to_string(file.tiles.size()) + " tiles";
    for (std::size_t i = 0; i < file.tiles.size(); ++i) {
      const auto& tile = file.tiles[i];
      const int want = reference.predict(ml::Tensor(
          {tile.channels, tile.tile_size, tile.tile_size}, tile.data));
      if (file.labels[i] != want)
        return name + ": tile " + std::to_string(i) + " labelled " +
               std::to_string(file.labels[i]) + ", reference model says " +
               std::to_string(want);
    }
    tiles += file.tiles.size();
  }
  if (tiles != op.total_tiles)
    return "shipped files hold " + std::to_string(tiles) + " tiles, report " +
           std::to_string(op.total_tiles);
  return {};
}

/// Shows each content check failing on a corrupted copy of a good op.
void selftest(const ContentOp& good, const Expectation& expect,
              ml::RiccModel& reference, WorkloadResult& result) {
  const auto expect_caught = [&](const char* name, const ContentOp& bad) {
    if (check_content(bad, expect, reference).empty()) {
      std::fprintf(stderr, "perfbench: self-test: %s not caught\n", name);
      result.correct = false;
    } else {
      result.selftest_caught.push_back(name);
    }
  };
  // Corrupt the first file that carries tiles.
  std::size_t f = 0;
  while (f < good.files.size() && good.files[f].tiles.empty()) ++f;
  if (f == good.files.size()) {
    std::fprintf(stderr, "perfbench: self-test: warm-up op has no tiles\n");
    result.correct = false;
    return;
  }
  ContentOp bad = good;
  bad.files[f].labels.pop_back();
  expect_caught("content.dropped_label", bad);
  bad = good;
  bad.files[f].origins.front().second += kTileSize;
  expect_caught("content.shifted_origin", bad);
  bad = good;
  bad.files[f].labels.front() = (bad.files[f].labels.front() + 1) % 42;
  expect_caught("content.wrong_label", bad);
  bad = good;
  --bad.labeled_tiles;
  expect_caught("content.unlabelled_tile", bad);
}

/// Per-layer replay of one op's module calls, on the op's exact inputs.
struct LayerTimes {
  double materialize_s = 0.0;
  double run_s = 0.0;
  double make_tiles_s = 0.0;
  double predict_s = 0.0;
  double append_s = 0.0;
  std::size_t tiles = 0;
  std::size_t bytes_staged = 0;
};

LayerTimes replay_layers(const ContentOp& op,
                         const std::vector<std::byte>& model_bytes) {
  LayerTimes t;
  const modis::ArchiveService archive(kWorldSeed);
  storage::MemFs fs("replay");
  ml::RiccModel model =
      ml::RiccModel::load(storage::HdflFile::deserialize(model_bytes));
  for (const auto& file : op.files) {
    preprocess::GranulePaths paths;
    std::string* path_of[] = {&paths.mod02, &paths.mod03, &paths.mod06};
    for (const auto product :
         {modis::ProductKind::kMod02, modis::ProductKind::kMod03,
          modis::ProductKind::kMod06}) {
      modis::GranuleId id = file.granule;
      id.product = product;
      const auto t0 = Clock::now();
      const auto bytes = archive.materialize(id, kGeometry);
      t.materialize_s += seconds_since(t0);
      t.bytes_staged += bytes.size();
      *path_of[static_cast<int>(product)] = "staging/" + id.filename();
      fs.write_file(*path_of[static_cast<int>(product)], bytes);
    }
    const std::string out = "tiles/" + file.granule.filename() + ".ncl";
    auto t0 = Clock::now();
    const auto tiled =
        preprocess::run_preprocess(fs, paths, fs, out, tiler_options());
    t.run_s += seconds_since(t0);

    const auto decode = [&](const std::string& path) {
      return storage::HdflFile::deserialize(fs.read_file(path));
    };
    const auto mod02 = modis::Mod02Granule::from_hdfl(decode(paths.mod02));
    const auto mod03 = modis::Mod03Granule::from_hdfl(decode(paths.mod03));
    const auto mod06 = modis::Mod06Granule::from_hdfl(decode(paths.mod06));
    t0 = Clock::now();
    const auto again = preprocess::make_tiles(mod02, mod03, mod06,
                                              tiler_options());
    t.make_tiles_s += seconds_since(t0);

    std::vector<std::int32_t> labels;
    for (const auto& tile : again.tiles) {
      ml::Tensor input({tile.channels, tile.tile_size, tile.tile_size},
                       tile.data);
      t0 = Clock::now();
      labels.push_back(model.predict(input));
      t.predict_s += seconds_since(t0);
    }
    t.tiles += tiled.tiles.size();
    t0 = Clock::now();
    preprocess::append_labels(fs, out, labels);
    t.append_s += seconds_since(t0);
  }
  return t;
}

}  // namespace

WorkloadResult run_campaign_content(const RunContext& ctx) {
  WorkloadResult result;
  const modis::GranuleGenerator generator(kWorldSeed);
  ml::RiccModel reference(model_config());
  reference.set_centroids(fixed_centroids());
  DayPlan plan(stream_seed(ctx.seed, 0xc0de));

  // Set-up: model staging and one untimed warm-up op.
  std::vector<std::byte> model_bytes;
  ContentOp warm;
  const double setup_s = cold_setup_s([&] {
    model_bytes = stage_model();
    warm = run_op(plan.next(), model_bytes);
  });
  const Expectation warm_expect = expect_for(generator, warm);
  if (const auto problem = check_content(warm, warm_expect, reference);
      !problem.empty()) {
    std::fprintf(stderr, "perfbench: warm-up op failed: %s\n", problem.c_str());
    result.correct = false;
  }
  selftest(warm, warm_expect, reference, result);

  std::vector<double> rates, op_s, overhead_s, materialize_s, run_s,
      make_tiles_s, predict_s, append_s, rest_s, tiles, bytes;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(ctx.seconds);
  while (Clock::now() < deadline) {
    const CampaignDay day = plan.next();
    const ContentOp op = run_op(day, model_bytes);
    rates.push_back(static_cast<double>(op.labeled_tiles) / op.seconds);
    op_s.push_back(op.seconds);

    // Untimed: the traced replay and the checks.
    std::string problem;
    if (ctx.trace) {
      const ContentOp traced = run_op(day, model_bytes);
      const LayerTimes t = replay_layers(traced, model_bytes);
      overhead_s.push_back(traced.seconds - op.seconds);
      materialize_s.push_back(t.materialize_s);
      run_s.push_back(t.run_s);
      make_tiles_s.push_back(t.make_tiles_s);
      predict_s.push_back(t.predict_s);
      append_s.push_back(t.append_s);
      rest_s.push_back(traced.seconds - t.materialize_s - t.run_s -
                       t.predict_s - t.append_s);
      tiles.push_back(static_cast<double>(t.tiles));
      bytes.push_back(static_cast<double>(t.bytes_staged));
      if (traced.raw != op.raw)
        problem = "traced run shipped different bytes";
      else if (t.tiles != op.total_tiles)
        problem = "replayed tiler cut " + std::to_string(t.tiles) +
                  " tiles, the op " + std::to_string(op.total_tiles);
    }
    if (problem.empty())
      problem = check_content(op, expect_for(generator, op), reference);
    result.record_op(problem);
  }

  result.set("setup_s", setup_s);
  result.set("peak_rss_mb", peak_rss_mb());
  result.set("work_per_s", median(rates));
  result.set("latency_p50_ms", median(op_s) * 1e3);
  result.idle = {"modis.granule_stats_s", "obs.", "sim.", "serve."};
  if (ctx.trace) {
    result.set("modis.materialize_s", median(materialize_s));
    result.set("preprocess.run_s", median(run_s));
    result.set("preprocess.make_tiles_s", median(make_tiles_s));
    result.set("ml.predict_s", median(predict_s));
    result.set("preprocess.append_labels_s", median(append_s));
    result.set("pipeline.rest_s", median(rest_s));
    result.set("ml.tiles", median(tiles));
    result.set("storage.bytes_staged", median(bytes));
    result.set("bench.trace_overhead_s", median(overhead_s));
  }
  return result;
}

}  // namespace perfbench
