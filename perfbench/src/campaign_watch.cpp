// campaign_watch: timing-only streaming EO-ML campaigns, one Terra day per
// op, under the live-health chain `mfwctl watch` wires (a kStatsOnly
// recorder feeding a TelemetryBus, the bus chained to a SpanRollup, and a
// HealthMonitor polled once per simulated day).
//
// Each op runs all 288 granules of a day, night included, on 10 nodes x 8
// workers, the bench/archive_campaign settings. Checks per op compare the
// report with figures the benchmark computes through `modis` directly and
// with the obs layer's own accounting identities.
#include <cstdio>
#include <memory>
#include <string>

#include "bench.hpp"
#include "modis/products.hpp"
#include "obs/export.hpp"
#include "obs/rollup.hpp"
#include "obs/trace.hpp"
#include "obs/watch.hpp"
#include "pipeline/eoml_workflow.hpp"

using namespace mfw;

namespace perfbench {
namespace {

constexpr int kGranulesPerDay = 288;

/// Benchmark-owned sink between the recorder and the bus (traced run only):
/// forwards every callback and times it.
class TimingSink final : public obs::SpanSink {
 public:
  explicit TimingSink(obs::SpanSink& next) : next_(next) {}

  void on_span(const obs::TraceTrack& track,
               const obs::TraceSpan& span) override {
    const auto t0 = Clock::now();
    next_.on_span(track, span);
    busy_s += seconds_since(t0);
    ++spans;
  }
  void on_instant(const obs::TraceTrack& track,
                  const obs::TraceInstant& instant) override {
    const auto t0 = Clock::now();
    next_.on_instant(track, instant);
    busy_s += seconds_since(t0);
  }

  double busy_s = 0.0;
  std::uint64_t spans = 0;

 private:
  obs::SpanSink& next_;
};

/// What one op produced, as the checks see it.
struct WatchFacts {
  std::size_t granules = 0;
  std::size_t shipped_files = 0;
  std::size_t labeled_files = 0;
  std::size_t labeled_tiles = 0;
  std::size_t total_tiles = 0;
  std::size_t incomplete_granules = 0;
  std::size_t recorder_observed = 0;
  std::size_t recorder_retained = 0;
  std::size_t recorder_dropped = 0;
  std::uint64_t rollup_spans = 0;
  std::uint64_t rollup_instants = 0;
  std::uint64_t bus_published = 0;
  std::uint64_t bus_dropped = 0;
  std::size_t sim_events = 0;
  /// Every report number, doubles bit-exact: the determinism fingerprint.
  std::string fingerprint;
};

struct WatchOp {
  WatchFacts facts;
  double seconds = 0.0;
  double sink_s = 0.0;
  std::uint64_t sink_spans = 0;
};

std::string fingerprint_of(const pipeline::EomlReport& r) {
  std::string out;
  char buf[96];
  const auto add = [&](const char* key, double v) {
    std::snprintf(buf, sizeof buf, "%s=%a;", key, v);
    out += buf;
  };
  add("makespan", r.makespan);
  add("granules", static_cast<double>(r.granules));
  add("tiles", static_cast<double>(r.total_tiles));
  add("labeled_files", static_cast<double>(r.labeled_files));
  add("labeled_tiles", static_cast<double>(r.labeled_tiles));
  add("shipped_files", static_cast<double>(r.shipped_files));
  add("shipped_bytes", static_cast<double>(r.shipped_bytes));
  add("download_bytes", static_cast<double>(r.download.total_bytes));
  add("download_files", static_cast<double>(r.download.files.size()));
  for (const auto* span : {&r.download_span, &r.preprocess_span,
                           &r.inference_span, &r.shipment_span}) {
    add("start", span->start);
    add("end", span->end);
  }
  for (const double dwell : r.granule_dwell) add("dwell", dwell);
  return out;
}

/// One campaign day through the watched workflow. With `traced`, a
/// TimingSink sits in front of the bus.
WatchOp run_day(const CampaignDay& day, bool traced) {
  WatchOp op;
  const auto t0 = Clock::now();

  pipeline::EomlConfig config;
  config.span = modis::DaySpan{day.year, day.day_of_year, day.day_of_year};
  config.daytime_only = false;
  config.scheduling = pipeline::SchedulingMode::kStreaming;
  config.preprocess_nodes = 10;
  config.workers_per_node = 8;
  config.preprocess_walltime = 400.0 * 24 * 3600;
  config.retain_provenance = false;

  auto& rec = obs::TraceRecorder::instance();
  rec.clear();
  rec.set_retention({obs::RetentionMode::kStatsOnly, 64, 4096});
  obs::SpanRollup rollup(obs::RollupConfig{86400.0, 2});
  obs::TelemetryBus bus(65536);
  bus.set_next(&rollup);
  obs::HealthConfig health;
  health.window_s = 86400.0;
  health.anomaly_k = 4.0;
  obs::HealthMonitor monitor(health, {});
  monitor.attach(bus);
  std::unique_ptr<TimingSink> timing;
  if (traced) timing = std::make_unique<TimingSink>(bus);
  rec.set_span_sink(traced ? static_cast<obs::SpanSink*>(timing.get()) : &bus);
  obs::set_globally_enabled(true);

  WatchFacts& f = op.facts;
  {
    pipeline::EomlWorkflow workflow(config);
    workflow.attach_health(monitor, 86400.0);
    const auto report = workflow.run();
    monitor.finish(workflow.engine().now());
    f.sim_events = workflow.engine().processed();
    f.granules = report.granules;
    f.shipped_files = report.shipped_files;
    f.labeled_files = report.labeled_files;
    f.labeled_tiles = report.labeled_tiles;
    f.total_tiles = report.total_tiles;
    f.incomplete_granules = report.incomplete_granules;
    f.fingerprint = fingerprint_of(report);
  }
  obs::set_globally_enabled(false);
  f.recorder_observed = rec.observed_span_count();
  f.recorder_retained = rec.span_count();
  f.recorder_dropped = rec.dropped_span_count();
  rec.set_span_sink(nullptr);
  rec.set_retention({});
  rec.clear();
  f.rollup_spans = rollup.spans_seen();
  f.rollup_instants = rollup.instants_seen();
  f.bus_published = bus.published();
  f.bus_dropped = bus.dropped_total();
  op.seconds = seconds_since(t0);
  if (timing) {
    op.sink_s = timing->busy_s;
    op.sink_spans = timing->spans;
  }
  return op;
}

std::string check_watch(const WatchFacts& f, std::size_t expect_tiles) {
  if (f.granules != kGranulesPerDay)
    return "granules " + std::to_string(f.granules) + " != 288";
  if (f.shipped_files != f.granules || f.labeled_files != f.granules)
    return "shipped " + std::to_string(f.shipped_files) + " / labelled " +
           std::to_string(f.labeled_files) + " files != granules";
  if (f.incomplete_granules != 0)
    return std::to_string(f.incomplete_granules) + " incomplete granules";
  if (f.labeled_tiles != f.total_tiles || f.total_tiles != expect_tiles)
    return "labelled tiles " + std::to_string(f.labeled_tiles) +
           ", total tiles " + std::to_string(f.total_tiles) +
           ", modis expects " + std::to_string(expect_tiles);
  if (f.recorder_observed != f.recorder_retained + f.recorder_dropped)
    return "recorder observed " + std::to_string(f.recorder_observed) +
           " != retained + dropped";
  if (f.rollup_spans + f.rollup_instants != f.bus_published)
    return "rollup saw " + std::to_string(f.rollup_spans) + " spans + " +
           std::to_string(f.rollup_instants) + " instants, bus published " +
           std::to_string(f.bus_published);
  return {};
}

/// Shows each watch check failing on a corrupted copy of a good op.
void selftest(const WatchFacts& good, std::size_t expect_tiles,
              WorkloadResult& result) {
  const auto expect_caught = [&](const char* name, const WatchFacts& bad,
                                 std::size_t expect = 0) {
    if (check_watch(bad, expect ? expect : expect_tiles).empty()) {
      std::fprintf(stderr, "perfbench: self-test: %s not caught\n", name);
      result.correct = false;
    } else {
      result.selftest_caught.push_back(name);
    }
  };
  WatchFacts bad = good;
  --bad.labeled_tiles;
  expect_caught("watch.dropped_label", bad);
  bad = good;
  --bad.shipped_files;
  expect_caught("watch.lost_shipment", bad);
  bad = good;
  ++bad.incomplete_granules;
  expect_caught("watch.incomplete_granule", bad);
  bad = good;
  ++bad.recorder_dropped;
  expect_caught("watch.recorder_imbalance", bad);
  bad = good;
  ++bad.bus_published;
  expect_caught("watch.rollup_imbalance", bad);
  expect_caught("watch.tile_sum", good, expect_tiles + 1);
}

}  // namespace

std::size_t campaign_day_tiles(const modis::GranuleGenerator& generator,
                               const CampaignDay& day) {
  std::size_t tiles = 0;
  for (int slot = 0; slot < kGranulesPerDay; ++slot) {
    // The spec as make_preprocess_task builds it.
    modis::GranuleSpec spec;
    spec.satellite = modis::Satellite::kTerra;
    spec.year = day.year;
    spec.day_of_year = day.day_of_year;
    spec.slot = slot;
    spec.geometry = modis::kFullGeometry;
    const auto stats = modis::estimate_granule_stats(generator, spec);
    if (stats.daytime) tiles += static_cast<std::size_t>(stats.selected_tiles);
  }
  return tiles;
}

WorkloadResult run_campaign_watch(const RunContext& ctx) {
  WorkloadResult result;
  const modis::GranuleGenerator generator(kWorldSeed);
  DayPlan plan(stream_seed(ctx.seed, 0xca11));

  // Set-up: the first day of the plan as one untimed warm-up op.
  WatchOp warm;
  CampaignDay warm_day;
  const double setup_s = cold_setup_s([&] {
    warm_day = plan.next();
    warm = run_day(warm_day, false);
  });
  const std::size_t warm_expect = campaign_day_tiles(generator, warm_day);
  if (const auto problem = check_watch(warm.facts, warm_expect);
      !problem.empty()) {
    std::fprintf(stderr, "perfbench: warm-up op failed: %s\n", problem.c_str());
    result.correct = false;
  }
  selftest(warm.facts, warm_expect, result);

  std::vector<double> rates, op_s, overhead_s, stats_s, sink_s, rest_s, spans,
      dropped, events;
  const auto deadline = Clock::now() + std::chrono::duration<double>(ctx.seconds);
  while (Clock::now() < deadline) {
    const CampaignDay day = plan.next();
    const WatchOp op = run_day(day, false);
    rates.push_back(static_cast<double>(op.facts.granules) / op.seconds);
    op_s.push_back(op.seconds);

    // Untimed: the expectation, the traced replay and the checks.
    std::string problem;
    std::size_t expect = 0;
    if (ctx.trace) {
      const WatchOp traced = run_day(day, true);
      const auto t0 = Clock::now();
      expect = campaign_day_tiles(generator, day);
      const double stats = seconds_since(t0);
      overhead_s.push_back(traced.seconds - op.seconds);
      stats_s.push_back(stats);
      sink_s.push_back(traced.sink_s);
      rest_s.push_back(traced.seconds - stats - traced.sink_s);
      spans.push_back(static_cast<double>(traced.sink_spans));
      dropped.push_back(static_cast<double>(traced.facts.bus_dropped));
      events.push_back(static_cast<double>(traced.facts.sim_events));
      if (traced.facts.fingerprint != op.facts.fingerprint)
        problem = "traced report differs from the untraced report";
      else
        problem = check_watch(traced.facts, expect);
    } else {
      expect = campaign_day_tiles(generator, day);
    }
    if (problem.empty()) problem = check_watch(op.facts, expect);
    result.record_op(problem);
  }

  result.set("setup_s", setup_s);
  result.set("peak_rss_mb", peak_rss_mb());
  result.set("work_per_s", median(rates));
  result.set("latency_p50_ms", median(op_s) * 1e3);
  result.idle = {"modis.materialize_s", "preprocess.", "ml.", "storage.",
                 "serve."};
  if (ctx.trace) {
    result.set("modis.granule_stats_s", median(stats_s));
    result.set("obs.sink_s", median(sink_s));
    result.set("pipeline.rest_s", median(rest_s));
    result.set("obs.spans", median(spans));
    result.set("obs.bus_dropped", median(dropped));
    result.set("sim.events", median(events));
    result.set("bench.trace_overhead_s", median(overhead_s));
  }
  return result;
}

}  // namespace perfbench
