// serve_read and serve_ingest: the serving tier driven by one closed-loop
// caller on this thread (the tier is an in-process library whose callers
// each wait for their answer).
//
// serve_read: a sealed catalog over a synthetic labelled-tile corpus, queried
// through the default ServeService with its cache on. An op is a batch of
// queries from a Zipf home-cell mix (70% point, 20% bbox, 8% class, 2%
// time_range), quantised as map clients quantise.
//
// serve_ingest: the same tier while it fills. A round starts an empty
// catalog; each op ingests one simulated day of rows through
// Catalog::ingest(records, nullptr) and then answers a burst of queries
// against the unsealed catalog. The round ends by sealing. A day holds as
// many rows as a timing-only campaign labels on one Terra day.
//
// Corpus, query streams and checks are the benchmark's own: every checked
// response is compared with a linear scan of the rows the catalog holds at
// the time of the query.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/aicca.hpp"
#include "bench.hpp"
#include "modis/products.hpp"
#include "serve/api.hpp"
#include "serve/catalog.hpp"
#include "serve/service.hpp"

using namespace mfw;

namespace perfbench {
namespace {

// Catalog geometry the benchmark assumes: CatalogConfig's default cells.
constexpr double kCellDeg = 10.0;
constexpr int kLatCells = 18;
constexpr int kLonCells = 36;
constexpr int kClasses = 42;
constexpr std::size_t kUsers = 100000;
constexpr double kZipfCells = 1.05;
constexpr double kZipfClasses = 0.8;
constexpr int kDayWindow = 7;
constexpr std::size_t kSampleLimit = 4;

// serve_read.
constexpr std::size_t kReadRows = 200000;
constexpr int kReadDays = 30;
constexpr std::size_t kReadBatch = 1000;
constexpr std::size_t kReadCheckEvery = 20;

// serve_ingest. Rows per day come from campaign_day_tiles; the burst size
// is the benchmark's choice (no source in the program fixes a query rate
// per publish).
constexpr int kIngestDays = 20;
constexpr std::size_t kIngestBurst = 150;
constexpr std::size_t kIngestCheckEvery = 8;
constexpr std::size_t kSelftestRows = 5000;

/// Inverse-CDF sampler over ranks [0, n) with P(k) ∝ (k + 1)^-s.
class ZipfRanks {
 public:
  ZipfRanks(std::size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k)
      cdf_[k] = total += std::pow(static_cast<double>(k + 1), -s);
    for (auto& c : cdf_) c /= total;
    cdf_.back() = 1.0;
  }
  std::size_t operator()(InputRng& rng) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

int cell_index(double v, double lo, int cells) {
  const int i = static_cast<int>(std::floor((v - lo) / kCellDeg));
  return std::clamp(i, 0, cells - 1);
}

int cell_of(double lat, double lon) {
  return cell_index(lat, -90.0, kLatCells) * kLonCells +
         cell_index(lon, -180.0, kLonCells);
}

/// Labelled-tile rows with AICCA-like marginals: two subtropical latitude
/// decks over a broad background, Zipf-skewed classes, lognormal physics.
void append_rows(InputRng& rng, std::size_t n, int day_lo, int day_hi,
                 std::vector<analysis::TileRecord>& out) {
  static const ZipfRanks classes(kClasses, kZipfClasses);
  for (std::size_t i = 0; i < n; ++i) {
    analysis::TileRecord r;
    r.granule.product = modis::ProductKind::kMod02;
    r.granule.satellite =
        rng.uniform() < 0.5 ? modis::Satellite::kTerra : modis::Satellite::kAqua;
    r.granule.year = 2022;
    r.granule.day_of_year = static_cast<int>(rng.uniform_int(day_lo, day_hi));
    r.granule.slot = static_cast<int>(rng.uniform_int(0, 287));
    r.label = static_cast<int>(classes(rng));
    const double mode = rng.uniform();
    const double lat = mode < 0.35   ? rng.normal(-18.0, 8.0)
                       : mode < 0.70 ? rng.normal(22.0, 8.0)
                                     : rng.uniform(-85.0, 85.0);
    r.latitude = static_cast<float>(std::clamp(lat, -90.0, 90.0));
    r.longitude = static_cast<float>(rng.uniform(-180.0, 180.0));
    r.cloud_fraction =
        static_cast<float>(std::clamp(rng.normal(0.65, 0.2), 0.3, 1.0));
    r.optical_thickness = static_cast<float>(12.0 * std::exp(rng.normal(0, 0.6)));
    r.cloud_top_pressure =
        static_cast<float>(std::clamp(rng.normal(650.0, 180.0), 150.0, 1000.0));
    r.water_path = static_cast<float>(90.0 * std::exp(rng.normal(0, 0.7)));
    out.push_back(r);
  }
}

/// A user population with Zipf-ranked home cells replaying the request mix.
class QueryStream {
 public:
  QueryStream(std::uint64_t seed, int day_lo, int day_hi)
      : rng_(seed), day_lo_(day_lo), day_hi_(day_hi), home_(kUsers) {
    std::vector<int> perm(kLatCells * kLonCells);
    for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int>(i);
    for (std::size_t i = perm.size(); i > 1; --i)
      std::swap(perm[i - 1], perm[static_cast<std::size_t>(rng_.uniform_int(
                                 0, static_cast<std::int64_t>(i) - 1))]);
    const ZipfRanks zipf(perm.size(), kZipfCells);
    for (auto& cell : home_) cell = perm[zipf(rng_)];
  }

  serve::QueryRequest next() {
    serve::QueryRequest q;
    q.sample_limit = kSampleLimit;
    const int cell = home_[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(kUsers) - 1))];
    const double lat = -90.0 + (cell / kLonCells + 0.5) * kCellDeg;
    const double lon = -180.0 + (cell % kLonCells + 0.5) * kCellDeg;
    // Day windows snap to window-aligned blocks, coordinates to a sub-cell
    // grid, so identical requests recur as they do from map clients.
    const int d0 = static_cast<int>(rng_.uniform_int(day_lo_, day_hi_));
    q.day_lo = day_lo_ + (d0 - day_lo_) / kDayWindow * kDayWindow;
    q.day_hi = std::min(day_hi_, q.day_lo + kDayWindow - 1);
    const double mix = rng_.uniform();
    if (mix < 0.70) {
      q.kind = serve::QueryKind::kPoint;
      const double step = 0.3 * kCellDeg;
      q.lat = std::clamp(lat + step * static_cast<double>(rng_.uniform_int(-1, 1)),
                         -90.0, 90.0);
      q.lon = std::clamp(lon + step * static_cast<double>(rng_.uniform_int(-1, 1)),
                         -180.0, 180.0);
    } else if (mix < 0.90) {
      q.kind = serve::QueryKind::kBbox;
      const double half =
          (0.5 + 0.5 * static_cast<double>(rng_.uniform_int(0, 3))) * kCellDeg;
      q.lat_lo = std::max(-90.0, lat - half);
      q.lat_hi = std::min(90.0, lat + half);
      q.lon_lo = std::max(-180.0, lon - half);
      q.lon_hi = std::min(180.0, lon + half);
    } else if (mix < 0.98) {
      q.kind = serve::QueryKind::kClass;
      q.label = static_cast<int>(rng_.uniform_int(0, kClasses - 1));
    } else {
      q.kind = serve::QueryKind::kTimeRange;
    }
    return q;
  }

 private:
  InputRng rng_;
  int day_lo_, day_hi_;
  std::vector<int> home_;
};

/// Linear scan of rows[0, n) for `q`; compares the matched count and the
/// per-class counts exactly and the per-class means within float tolerance.
std::string check_response(const std::vector<analysis::TileRecord>& rows,
                           std::size_t n, const serve::QueryRequest& q,
                           const serve::QueryResponse& got) {
  struct Sums {
    std::uint64_t count = 0;
    double cf = 0, cot = 0, ctp = 0, cwp = 0, abs_lat = 0;
  };
  std::map<int, Sums> want;
  std::uint64_t matched = 0;
  const int target = q.kind == serve::QueryKind::kPoint ? cell_of(q.lat, q.lon) : -1;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& r = rows[i];
    const int day = r.granule.day_of_year;
    if (day < q.day_lo || day > q.day_hi) continue;
    const double lat = r.latitude, lon = r.longitude;
    bool match = true;
    switch (q.kind) {
      case serve::QueryKind::kPoint: match = cell_of(lat, lon) == target; break;
      case serve::QueryKind::kBbox:
        match = lat >= q.lat_lo && lat <= q.lat_hi && lon >= q.lon_lo &&
                lon <= q.lon_hi;
        break;
      case serve::QueryKind::kClass: match = r.label == q.label; break;
      case serve::QueryKind::kTimeRange: break;
    }
    if (!match) continue;
    ++matched;
    Sums& s = want[r.label];
    ++s.count;
    s.cf += r.cloud_fraction;
    s.cot += r.optical_thickness;
    s.ctp += r.cloud_top_pressure;
    s.cwp += r.water_path;
    s.abs_lat += std::abs(lat);
  }
  const std::string what = std::string(serve::kind_name(q.kind)) + " query";
  if (got.matched != matched)
    return what + " matched " + std::to_string(got.matched) + ", scan finds " +
           std::to_string(matched);
  if (got.classes.size() != want.size())
    return what + " has " + std::to_string(got.classes.size()) +
           " classes, scan finds " + std::to_string(want.size());
  if (got.sample.size() != std::min<std::uint64_t>(matched, q.sample_limit))
    return what + " sample holds " + std::to_string(got.sample.size()) + " rows";
  const auto close = [](double a, double b) {
    return std::abs(a - b) <= 1e-6 * std::max(1.0, std::abs(b));
  };
  auto it = want.begin();
  for (const auto& c : got.classes) {
    const Sums& s = it->second;
    const double k = static_cast<double>(s.count);
    if (c.label != it->first || c.stats.count != s.count)
      return what + " class " + std::to_string(c.label) + " count " +
             std::to_string(c.stats.count) + ", scan finds class " +
             std::to_string(it->first) + " count " + std::to_string(s.count);
    if (!close(c.stats.mean_cloud_fraction, s.cf / k) ||
        !close(c.stats.mean_optical_thickness, s.cot / k) ||
        !close(c.stats.mean_cloud_top_pressure, s.ctp / k) ||
        !close(c.stats.mean_water_path, s.cwp / k) ||
        !close(c.stats.mean_abs_latitude, s.abs_lat / k))
      return what + " class " + std::to_string(c.label) + " means disagree";
    ++it;
  }
  return {};
}

/// A response kept for checking after the timed batch.
struct Pending {
  serve::QueryRequest request;
  serve::QueryResponse response;
  std::size_t rows = 0;  // rows the catalog held when the query was issued
};

/// Latency samples of one run, split the ways the metrics need.
struct QuerySamples {
  std::vector<double> all_us, hit_us, miss_us;
  std::array<std::vector<double>, 4> catalog_us;  // by QueryKind
  std::vector<double> batch_rates;
  std::vector<double> traced_s, untraced_s;  // op times, traced runs only
  std::vector<double> hits, misses, stale, probed, pruned;  // per op
};

/// Issues `requests` through the service, timing each; keeps every
/// `check_every`-th response (and the first of each kind) for checking.
double timed_queries(serve::ServeService& service,
                     const std::vector<serve::QueryRequest>& requests,
                     std::size_t rows, std::size_t check_every,
                     std::array<bool, 4>& kind_checked, QuerySamples& samples,
                     std::vector<Pending>& pending) {
  const serve::ServeStats before = service.stats();
  double probed = 0, pruned = 0;
  const auto batch_t0 = Clock::now();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto t0 = Clock::now();
    serve::QueryResponse response = service.query(requests[i]);
    const double us = seconds_since(t0) * 1e6;
    samples.all_us.push_back(us);
    (response.cache_hit ? samples.hit_us : samples.miss_us).push_back(us);
    probed += response.shards_probed;
    pruned += response.shards_pruned;
    const auto kind = static_cast<std::size_t>(requests[i].kind);
    if (i % check_every == 0 || !kind_checked[kind]) {
      kind_checked[kind] = true;
      pending.push_back({requests[i], std::move(response), rows});
    }
  }
  const double batch_s = seconds_since(batch_t0);
  const serve::ServeStats after = service.stats();
  samples.hits.push_back(static_cast<double>(after.cache_hits - before.cache_hits));
  samples.misses.push_back(
      static_cast<double>(after.cache_misses - before.cache_misses));
  samples.stale.push_back(static_cast<double>(after.cache_stale - before.cache_stale));
  samples.probed.push_back(probed);
  samples.pruned.push_back(pruned);
  return batch_s;
}

/// Traced replay: the same requests straight into Catalog::query.
void replay_catalog(const serve::Catalog& catalog,
                    const std::vector<serve::QueryRequest>& requests,
                    QuerySamples& samples) {
  for (const auto& q : requests) {
    const auto t0 = Clock::now();
    (void)catalog.query(q);
    samples.catalog_us[static_cast<std::size_t>(q.kind)].push_back(
        seconds_since(t0) * 1e6);
  }
}

std::string check_pending(const std::vector<analysis::TileRecord>& rows,
                          std::vector<Pending>& pending, std::size_t& checked) {
  std::string problem;
  for (const auto& p : pending) {
    if (problem.empty()) problem = check_response(rows, p.rows, p.request, p.response);
    ++checked;
  }
  pending.clear();
  return problem;
}

/// Exact p99 of raw samples; reads 0 below 1000 samples, too few for a tail.
double p99_or_zero(const std::vector<double>& v) {
  return v.size() >= 1000 ? quantile(v, 0.99) : 0.0;
}

void set_query_metrics(const QuerySamples& s, WorkloadResult& result) {
  result.set("serve.query_p99_us", p99_or_zero(s.all_us));
  result.set("serve.queries_per_s", median(s.batch_rates));
  result.set("serve.hit_us_p50", median(s.hit_us));
  result.set("serve.miss_us_p50", median(s.miss_us));
  result.set("serve.miss_us_p99", p99_or_zero(s.miss_us));
  const char* kinds[] = {"point", "bbox", "class", "time_range"};
  for (std::size_t k = 0; k < 4; ++k) {
    const std::string base = std::string("serve.catalog.") + kinds[k];
    result.set(base + "_us_p50", median(s.catalog_us[k]));
    result.set(base + "_us_p99", p99_or_zero(s.catalog_us[k]));
  }
  const double hits = median(s.hits), misses = median(s.misses),
               stale = median(s.stale);
  result.set("serve.cache_hits", hits);
  result.set("serve.cache_misses", misses);
  result.set("serve.cache_stale", stale);
  double total_hits = 0, total = 0;
  for (std::size_t i = 0; i < s.hits.size(); ++i) {
    total_hits += s.hits[i];
    total += s.hits[i] + s.misses[i] + s.stale[i];
  }
  result.set("serve.cache_hit_ratio", total > 0 ? total_hits / total : 0.0);
  result.set("serve.shards_probed", median(s.probed));
  result.set("serve.shards_pruned", median(s.pruned));
  result.set("bench.trace_overhead_s", median(s.traced_s) - median(s.untraced_s));
}

}  // namespace

WorkloadResult run_serve_read(const RunContext& ctx) {
  WorkloadResult result;
  std::vector<analysis::TileRecord> rows;
  std::unique_ptr<serve::Catalog> catalog;
  std::unique_ptr<serve::ServeService> service;
  std::optional<QueryStream> stream;
  std::vector<double> seal_s;
  QuerySamples warm;
  std::array<bool, 4> kind_checked{};
  std::vector<Pending> pending;

  // Set-up: corpus, catalog build and seal, and one warm-up batch.
  const double setup_s = cold_setup_s([&] {
    service.reset();
    catalog.reset();
    rows.clear();
    InputRng rng(stream_seed(ctx.seed, 0x5e7d));
    append_rows(rng, kReadRows, 1, kReadDays, rows);
    catalog = std::make_unique<serve::Catalog>();
    catalog->ingest(rows, nullptr);
    const auto t0 = Clock::now();
    catalog->seal();
    seal_s.push_back(seconds_since(t0));
    service = std::make_unique<serve::ServeService>(*catalog);
    stream.emplace(stream_seed(ctx.seed, 0x9e11), 1, kReadDays);
    std::vector<serve::QueryRequest> batch;
    for (std::size_t i = 0; i < kReadBatch; ++i) batch.push_back(stream->next());
    kind_checked = {};
    pending.clear();
    timed_queries(*service, batch, rows.size(), kReadCheckEvery, kind_checked,
                  warm, pending);
  });

  std::size_t checked = 0;
  if (const auto problem = check_pending(rows, pending, checked); !problem.empty()) {
    std::fprintf(stderr, "perfbench: warm-up batch failed: %s\n", problem.c_str());
    result.correct = false;
  }
  checked = 0;
  // Self-test: an off-by-one matched count, an off-by-one class count and a
  // shifted class mean must each be caught.
  {
    serve::QueryRequest q;
    q.kind = serve::QueryKind::kTimeRange;
    q.day_lo = 1;
    q.day_hi = kReadDays;
    q.sample_limit = kSampleLimit;
    serve::QueryResponse r = catalog->query(q);
    const auto expect_caught = [&](const char* name,
                                   const serve::QueryResponse& bad) {
      if (check_response(rows, rows.size(), q, bad).empty()) {
        std::fprintf(stderr, "perfbench: self-test: %s not caught\n", name);
        result.correct = false;
      } else {
        result.selftest_caught.push_back(name);
      }
    };
    serve::QueryResponse bad = r;
    ++bad.matched;
    expect_caught("serve.matched_off_by_one", bad);
    bad = r;
    ++bad.classes.front().stats.count;
    expect_caught("serve.class_count_off_by_one", bad);
    bad = r;
    bad.classes.front().stats.mean_water_path *= 1.001;
    expect_caught("serve.class_mean_off", bad);
  }

  QuerySamples samples;
  kind_checked = {};
  bool replayed = false;
  const auto deadline = Clock::now() + std::chrono::duration<double>(ctx.seconds);
  while (Clock::now() < deadline) {
    std::vector<serve::QueryRequest> batch;
    for (std::size_t i = 0; i < kReadBatch; ++i) batch.push_back(stream->next());
    const double batch_s = timed_queries(*service, batch, rows.size(),
                                         kReadCheckEvery, kind_checked, samples,
                                         pending);
    samples.batch_rates.push_back(static_cast<double>(batch.size()) / batch_s);
    if (ctx.trace) {
      // Replays follow every other batch, so the batches after a replay
      // (traced) and the others (untraced) share one run's host state.
      (replayed ? samples.traced_s : samples.untraced_s).push_back(batch_s);
      replayed = !replayed;
      if (replayed) replay_catalog(*catalog, batch, samples);
    }
    result.record_op(check_pending(rows, pending, checked));
  }
  if (!std::all_of(kind_checked.begin(), kind_checked.end(),
                   [](bool b) { return b; }) ||
      checked < 500) {
    std::fprintf(stderr, "perfbench: only %zu responses checked\n", checked);
    result.correct = false;
  }

  result.set("setup_s", setup_s);
  result.set("peak_rss_mb", peak_rss_mb());
  result.set("work_per_s", median(samples.batch_rates));
  result.set("latency_p50_ms", median(samples.all_us) * 1e-3);
  result.idle = {"pipeline.", "modis.", "obs.", "sim.", "preprocess.",
                 "ml.",       "storage.", "serve.ingest_s"};
  if (ctx.trace) {
    set_query_metrics(samples, result);
    result.set("serve.seal_s", median(seal_s));
  }
  return result;
}

WorkloadResult run_serve_ingest(const RunContext& ctx) {
  WorkloadResult result;
  const modis::GranuleGenerator generator(kWorldSeed);
  DayPlan plan(stream_seed(ctx.seed, 0x1da7));
  InputRng row_rng(stream_seed(ctx.seed, 0x1a9e));
  QueryStream stream(stream_seed(ctx.seed, 0x9e12), 1, kIngestDays);
  QuerySamples samples;
  std::vector<double> ingest_rates, ingest_s, seal_s;
  std::size_t checked = 0;
  std::array<bool, 4> kind_checked{};
  std::vector<Pending> pending;

  // One round: an empty catalog filled with `days` days, a query burst
  // after each day, sealed at the end. Each day of the round holds the
  // labelled tiles of one fresh campaign day. Returns the first problem.
  bool replay_round = false;  // traced runs replay in every other round
  const auto round = [&](bool timed, int days) {
    const std::size_t rows_per_day = campaign_day_tiles(generator, plan.next());
    std::vector<analysis::TileRecord> rows;
    serve::Catalog catalog;
    serve::ServeService service(catalog);
    std::string problem;
    for (int day = 1; day <= days; ++day) {
      std::vector<analysis::TileRecord> batch;
      append_rows(row_rng, rows_per_day, day, day, batch);
      const auto t0 = Clock::now();
      const std::size_t ingested = catalog.ingest(batch, nullptr);
      const double s = seconds_since(t0);
      rows.insert(rows.end(), batch.begin(), batch.end());
      std::vector<serve::QueryRequest> burst;
      for (std::size_t i = 0; i < kIngestBurst; ++i) burst.push_back(stream.next());
      const double burst_s = timed_queries(service, burst, rows.size(),
                                           kIngestCheckEvery, kind_checked,
                                           samples, pending);
      if (timed) {
        ingest_s.push_back(s);
        ingest_rates.push_back(static_cast<double>(ingested) / s);
        samples.batch_rates.push_back(static_cast<double>(burst.size()) / burst_s);
        if (ctx.trace) {
          // Replays run in every other round; bursts of those rounds are
          // the traced ops, the others the untraced ones.
          (replay_round ? samples.traced_s : samples.untraced_s)
              .push_back(burst_s);
          if (replay_round) replay_catalog(catalog, burst, samples);
        }
      }
      std::string day_problem = check_pending(rows, pending, checked);
      if (ingested != batch.size())
        day_problem = "ingest took " + std::to_string(ingested) + " of " +
                      std::to_string(batch.size()) + " rows";
      if (timed) result.record_op(day_problem);
      if (problem.empty()) problem = day_problem;
    }
    const auto t0 = Clock::now();
    catalog.seal();
    seal_s.push_back(seconds_since(t0));
    std::string seal_problem;
    if (catalog.tile_count() != rows.size())
      seal_problem = "sealed catalog holds " +
                     std::to_string(catalog.tile_count()) + " rows of " +
                     std::to_string(rows.size());
    if (timed) result.record_op(seal_problem);
    return problem.empty() ? seal_problem : problem;
  };

  // Set-up: the rows of one campaign day and one untimed warm-up op (that
  // day ingested, its burst answered), sealed.
  std::string warm_problem;
  const double setup_s =
      cold_setup_s([&] { warm_problem = round(false, 1); });
  if (!warm_problem.empty()) {
    std::fprintf(stderr, "perfbench: warm-up round failed: %s\n",
                 warm_problem.c_str());
    result.correct = false;
  }
  samples = QuerySamples{};
  seal_s.clear();

  // Self-test: an answer cached before a publish, replayed after it, must be
  // caught as stale.
  {
    std::vector<analysis::TileRecord> rows;
    serve::Catalog catalog;
    serve::ServeService service(catalog);
    InputRng rng(stream_seed(ctx.seed, 0x57a1e));
    append_rows(rng, kSelftestRows, 1, 1, rows);
    catalog.ingest(rows, nullptr);
    serve::QueryRequest q;
    q.kind = serve::QueryKind::kTimeRange;
    q.day_lo = 1;
    q.day_hi = kIngestDays;
    q.sample_limit = kSampleLimit;
    const serve::QueryResponse before = service.query(q);
    std::vector<analysis::TileRecord> day2;
    append_rows(rng, kSelftestRows, 2, 2, day2);
    catalog.ingest(day2, nullptr);
    rows.insert(rows.end(), day2.begin(), day2.end());
    const serve::QueryResponse after = service.query(q);
    if (check_response(rows, rows.size(), q, before).empty() ||
        !check_response(rows, rows.size(), q, after).empty()) {
      std::fprintf(stderr, "perfbench: self-test: serve.stale_answer not caught\n");
      result.correct = false;
    } else {
      result.selftest_caught.push_back("serve.stale_answer");
    }
    serve::QueryResponse bad = after;
    --bad.matched;
    if (check_response(rows, rows.size(), q, bad).empty()) {
      std::fprintf(stderr, "perfbench: self-test: serve.matched_off_by_one not caught\n");
      result.correct = false;
    } else {
      result.selftest_caught.push_back("serve.matched_off_by_one");
    }
  }

  kind_checked = {};
  const auto deadline = Clock::now() + std::chrono::duration<double>(ctx.seconds);
  while (Clock::now() < deadline) {
    round(true, kIngestDays);
    replay_round = !replay_round;
  }
  if (!std::all_of(kind_checked.begin(), kind_checked.end(),
                   [](bool b) { return b; })) {
    std::fprintf(stderr, "perfbench: not every query kind was checked\n");
    result.correct = false;
  }

  result.set("setup_s", setup_s);
  result.set("peak_rss_mb", peak_rss_mb());
  result.set("work_per_s", median(ingest_rates));
  result.set("latency_p50_ms", median(samples.all_us) * 1e-3);
  result.idle = {"pipeline.", "modis.", "obs.", "sim.", "preprocess.", "ml.",
                 "storage."};
  if (ctx.trace) {
    set_query_metrics(samples, result);
    result.set("serve.ingest_s", median(ingest_s));
    result.set("serve.seal_s", median(seal_s));
  }
  return result;
}

}  // namespace perfbench
